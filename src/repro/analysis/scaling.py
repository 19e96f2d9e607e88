"""Scaling-law fits: which law explains the measured stabilization times?

Theorem 3.5 sandwiches USD's parallel stabilization time between
``c₁·k·log(√n/(k log n))`` (the paper's lower bound) and ``c₂·k·log n``
(Amir et al.'s upper bound).  At asymptotic scale both inner logs are
large; at simulable sizes the informative finite-``n`` form of the same
mechanism is the *doubling law*

    T ≈ c · k · log₂( (n/k) / bias )

— each gap doubling costs Θ(k·n) interactions (Lemma 3.4) and the gap
must double from the initial bias to the Θ(n/k) support scale.  The
``thm35-scaling`` experiment fits all candidate shapes and checks the
two directions of the sandwich:

* every measured time exceeds the explicit finite-n lower bound
  (with the paper's 1/25 constant);
* ``T/(k·log n)`` does not grow with ``k`` (consistency with the
  ``O(k log n)`` upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ExperimentError
from .stats import LinearFit, fit_proportional

__all__ = [
    "CANDIDATE_LAWS",
    "law_value",
    "ScalingComparison",
    "compare_scaling_laws",
]


def _lower_bound_law(n: float, k: float, _bias: Optional[float]) -> float:
    """The paper's asymptotic shape ``k·log(√n/(k·log n))`` (clamped at 0)."""
    inner = math.sqrt(n) / (k * math.log(n))
    return k * math.log(inner) if inner > 1.0 else 0.0


def _doubling_law(n: float, k: float, bias: Optional[float]) -> float:
    """Finite-n form ``k·log₂((n/k)/bias)``: doublings × cost-per-doubling."""
    if bias is None or bias <= 0:
        raise ExperimentError("the doubling law needs a positive initial bias")
    inner = (n / k) / bias
    return k * math.log2(inner) if inner > 1.0 else 0.0


def _amir_law(n: float, k: float, _bias: Optional[float]) -> float:
    return k * math.log(n)


def _linear_k_law(_n: float, k: float, _bias: Optional[float]) -> float:
    return k


#: Candidate parallel-time laws, mapping ``(n, k, bias)`` to the shape
#: factor whose leading constant is fitted.
CANDIDATE_LAWS = {
    "doubling": _doubling_law,  # k·log₂((n/k)/bias)   (finite-n mechanism)
    "lower_bound": _lower_bound_law,  # k·log(√n/(k·log n))  (Theorem 3.5)
    "amir_upper": _amir_law,  # k·log n              (Amir et al.)
    "linear_k": _linear_k_law,  # k                    (naive reference)
}


def law_value(law: str, n: float, k: float, bias: Optional[float] = None) -> float:
    """Evaluate a named candidate law's shape factor."""
    try:
        fn = CANDIDATE_LAWS[law]
    except KeyError:
        raise ExperimentError(
            f"unknown law {law!r}; choose from {sorted(CANDIDATE_LAWS)}"
        ) from None
    return fn(n, k, bias)


@dataclass(frozen=True)
class ScalingComparison:
    """Fit of every candidate law to one measured sweep.

    Attributes
    ----------
    fits:
        Law name → proportional :class:`LinearFit`.
    best_law:
        The law with the highest R².
    lower_bound_ok:
        Every measurement exceeds the paper's explicit finite-n lower
        bound (shape × 1/25).
    upper_shape_ok:
        ``T/(k·log n)`` does not *increase* along the sweep (within 15%
        tolerance) — the measured times are consistent with an
        ``O(k log n)`` upper bound.
    """

    fits: Dict[str, LinearFit]
    best_law: str
    lower_bound_ok: bool
    upper_shape_ok: bool

    @property
    def sandwich_ok(self) -> bool:
        """Both directions of the §1.3 sandwich hold."""
        return self.lower_bound_ok and self.upper_shape_ok


def compare_scaling_laws(
    ns: Sequence[float],
    ks: Sequence[float],
    times: Sequence[float],
    biases: Optional[Sequence[float]] = None,
) -> ScalingComparison:
    """Fit the candidate laws to measured parallel times.

    ``ns``, ``ks``, ``times`` (and optionally ``biases``) are parallel
    arrays over the sweep points.  The ``doubling`` law is only fitted
    when biases are provided.
    """
    n_arr = np.asarray(ns, dtype=float)
    k_arr = np.asarray(ks, dtype=float)
    t_arr = np.asarray(times, dtype=float)
    if not (n_arr.size == k_arr.size == t_arr.size) or n_arr.size < 2:
        raise ExperimentError("need at least two matching sweep measurements")
    bias_arr: Sequence[Optional[float]]
    if biases is None:
        bias_arr = [None] * n_arr.size
    else:
        bias_arr = list(np.asarray(biases, dtype=float))
        if len(bias_arr) != n_arr.size:
            raise ExperimentError("biases must match the sweep length")

    laws = [
        name
        for name in CANDIDATE_LAWS
        if name != "doubling" or biases is not None
    ]

    fits: Dict[str, LinearFit] = {}
    for law in laws:
        shape = np.array(
            [law_value(law, n, k, b) for n, k, b in zip(n_arr, k_arr, bias_arr)]
        )
        fits[law] = fit_proportional(shape, t_arr)

    best = max(fits, key=lambda name: fits[name].r_squared)

    explicit_lower = np.array(
        [_lower_bound_law(n, k, None) / 25.0 for n, k in zip(n_arr, k_arr)]
    )
    lower_ok = bool(np.all(t_arr >= explicit_lower))

    # Sort by k before the monotonicity check; sweeps may come unordered.
    order = np.argsort(k_arr)
    ratios = (t_arr / (k_arr * np.log(n_arr)))[order]
    upper_ok = bool(np.all(ratios[1:] <= ratios[:-1] * 1.15))

    return ScalingComparison(
        fits=fits,
        best_law=best,
        lower_bound_ok=lower_ok,
        upper_shape_ok=upper_ok,
    )

