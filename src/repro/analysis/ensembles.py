"""Ensemble trajectories: mean curves with dispersion bands.

Figure 1 of the paper is a single run; its observations (the u-plateau,
the slow gap growth, the late surge) are *distributional*.  This module
aggregates many independent runs onto a common parallel-time grid and
produces a mean/band curve, so the `fig1-ensemble` experiment can state
those observations with error bars instead of one sample path.

Alignment: runs stabilize at different times, so each trajectory is
interpolated onto a shared grid; after a run's own final snapshot its
values are held constant (the configuration is absorbed — holding is
exact, not an approximation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ExperimentError

__all__ = ["EnsembleBand", "ensemble_band_from_series"]

#: Points on the common parallel-time grid, and the ensemble quantile the
#: band starts at (it ends at the complement).
GRID_POINTS = 200
BAND_QUANTILE = 0.1


@dataclass(frozen=True)
class EnsembleBand:
    """Mean curve with dispersion band over an ensemble of runs.

    Attributes
    ----------
    grid:
        The common parallel-time grid.
    mean:
        Per-grid-point ensemble mean.
    lower, upper:
        Dispersion band (quantiles across runs).
    runs:
        Ensemble size.
    """

    grid: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    runs: int


def ensemble_band_from_series(
    series: Sequence[Sequence[Sequence[float]]],
) -> EnsembleBand:
    """Aggregate raw ``(times, values)`` pairs into a mean ± quantile band.

    Each pair is one run's trajectory (for a
    :class:`~repro.core.recorder.Trace`, e.g.
    ``(trace.parallel_times, trace.undecided_series())``; for a
    sweep-checkpoint row, its downsampled polyline).  The grid spans
    [0, max last time across runs] in :data:`GRID_POINTS` points; outside
    a run's own time range its boundary value is held (an absorbed run
    cannot change).  The band runs from the :data:`BAND_QUANTILE` to the
    ``1 − BAND_QUANTILE`` ensemble quantile at each grid point.
    """
    if not series:
        raise ExperimentError("need at least one series to aggregate")
    pairs = [
        (np.asarray(times, dtype=float), np.asarray(values, dtype=float))
        for times, values in series
    ]
    horizon = max(float(times[-1]) for times, _ in pairs)
    grid = np.linspace(0.0, horizon, GRID_POINTS)
    matrix = np.vstack([np.interp(grid, times, values) for times, values in pairs])
    return EnsembleBand(
        grid=grid,
        mean=matrix.mean(axis=0),
        lower=np.quantile(matrix, BAND_QUANTILE, axis=0),
        upper=np.quantile(matrix, 1.0 - BAND_QUANTILE, axis=0),
        runs=matrix.shape[0],
    )
