"""Mean-field (fluid-limit) substrate for the USD."""

from .fixed_points import (
    FixedPointClassification,
    classify_fixed_point,
    consensus_fixed_point,
    jacobian,
    symmetric_interior_fixed_point,
    undecided_fixed_point_fraction,
)
from .ode import MeanFieldSolution, USDMeanField
from .surrogate import (
    ESCALATE,
    MARGINAL,
    SURROGATE_PROTOCOLS,
    TRUSTED,
    VERDICTS,
    SurrogateResult,
    ValidityReport,
    resolve_surrogate,
    surrogate_unsupported_reason,
)
from .timescales import (
    MeanFieldTimescales,
    predict_timescales,
    timescales_from_solution,
)

__all__ = [
    "ESCALATE",
    "MARGINAL",
    "TRUSTED",
    "VERDICTS",
    "SURROGATE_PROTOCOLS",
    "FixedPointClassification",
    "MeanFieldSolution",
    "MeanFieldTimescales",
    "SurrogateResult",
    "USDMeanField",
    "ValidityReport",
    "predict_timescales",
    "timescales_from_solution",
    "resolve_surrogate",
    "surrogate_unsupported_reason",
    "classify_fixed_point",
    "consensus_fixed_point",
    "jacobian",
    "symmetric_interior_fixed_point",
    "undecided_fixed_point_fraction",
]
