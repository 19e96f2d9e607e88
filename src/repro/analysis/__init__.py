"""Analysis: ensemble statistics, trajectory post-processing, scaling fits."""

from .ensembles import EnsembleBand, ensemble_band_from_series
from .scaling import (
    CANDIDATE_LAWS,
    ScalingComparison,
    compare_scaling_laws,
    law_value,
)
from .stabilization import (
    UNDETERMINED_WINNER,
    StabilizationEnsemble,
    usd_stabilization_ensemble,
)
from .stats import (
    LinearFit,
    Summary,
    fit_proportional,
    summarize,
)
from .trajectories import (
    UndecidedExceedance,
    doubling_time,
    majority_minority_gap_series,
    minority_band,
    threshold_crossing_time,
    undecided_exceedance,
)

__all__ = [
    "CANDIDATE_LAWS",
    "EnsembleBand",
    "LinearFit",
    "ScalingComparison",
    "StabilizationEnsemble",
    "Summary",
    "UNDETERMINED_WINNER",
    "UndecidedExceedance",
    "compare_scaling_laws",
    "doubling_time",
    "ensemble_band_from_series",
    "fit_proportional",
    "law_value",
    "majority_minority_gap_series",
    "minority_band",
    "summarize",
    "threshold_crossing_time",
    "undecided_exceedance",
    "usd_stabilization_ensemble",
]
