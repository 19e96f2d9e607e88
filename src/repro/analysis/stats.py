"""Summary statistics for seed ensembles.

Small, dependency-light statistical helpers: summaries with a normal
confidence interval, and least-squares fits used by the scaling
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ReproError

__all__ = [
    "Summary",
    "summarize",
    "LinearFit",
    "fit_proportional",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample.

    Attributes
    ----------
    count, mean, std, minimum, median, maximum:
        The obvious sample statistics (``std`` with ``ddof=1``).
    ci_low, ci_high:
        Normal-approximation 95% confidence interval for the mean.
    """

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float
    ci_low: float
    ci_high: float


def summarize(values: Sequence[float]) -> Summary:
    """Summarise a non-empty sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ReproError("cannot summarise an empty sample")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    half_width = 1.96 * std / np.sqrt(arr.size) if arr.size > 1 else 0.0
    mean = float(arr.mean())
    return Summary(
        count=int(arr.size),
        mean=mean,
        std=std,
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y ≈ slope·x + intercept``.

    Attributes
    ----------
    slope, intercept:
        Fitted coefficients.
    r_squared:
        Coefficient of determination on the fitted data.
    """

    slope: float
    intercept: float
    r_squared: float


def fit_proportional(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least squares through the origin: ``y ≈ c·x``.

    Used to fit the unknown leading constants of asymptotic laws
    (e.g. ``T ≈ c · k log n``).
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.size != y_arr.size or x_arr.size < 1:
        raise ReproError("fit_proportional needs two same-length non-empty samples")
    denominator = float(np.dot(x_arr, x_arr))
    if denominator == 0:
        raise ReproError("cannot fit a proportional law to all-zero x")
    slope = float(np.dot(x_arr, y_arr)) / denominator
    return LinearFit(
        slope=slope,
        intercept=0.0,
        r_squared=_r_squared(y_arr, slope * x_arr),
    )


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(np.sum((y - predicted) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0:
        return 1.0 if residual == 0 else 0.0
    return 1.0 - residual / total
