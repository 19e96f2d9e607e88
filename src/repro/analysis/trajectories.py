"""Trajectory post-processing — the quantities plotted in Figure 1.

Everything here consumes a :class:`repro.core.recorder.Trace` of a
USD-layout run and extracts the paper's derived series and event times:

* the *maximum difference* series ``max_{j≥2}(x₁ − x_j)`` of Figure 1
  (right);
* the doubling time of the majority (``x₁`` reaching ``2·x₁(0)``),
  which the paper observes consumes most of the stabilization time;
* the undecided-plateau deviation used by the Lemma 3.1 experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.recorder import Trace
from ..errors import ReproError
from ..theory.lemmas import u_tilde

__all__ = [
    "threshold_crossing_time",
    "doubling_time",
    "majority_minority_gap_series",
    "minority_band",
    "UndecidedExceedance",
    "undecided_exceedance",
]


def threshold_crossing_time(
    times: np.ndarray, series: np.ndarray, threshold: float
) -> Optional[float]:
    """First recorded time at which ``series >= threshold`` (``None`` if never).

    Returns the snapshot time, i.e. an upper bound on the true crossing
    time with snapshot-cadence resolution.
    """
    times = np.asarray(times)
    series = np.asarray(series)
    if times.shape != series.shape:
        raise ReproError("times and series must have matching shapes")
    hits = np.flatnonzero(series >= threshold)
    if hits.size == 0:
        return None
    return float(times[hits[0]])


def doubling_time(trace: Trace, opinion: int = 1) -> Optional[float]:
    """Parallel time at which opinion ``opinion`` first doubles its
    initial support (Figure 1 right's headline event)."""
    series = trace.opinion_series(opinion)
    initial = series[0]
    if initial <= 0:
        raise ReproError(f"opinion {opinion} starts with no support")
    crossing = threshold_crossing_time(trace.times, series, 2 * initial)
    return None if crossing is None else crossing / trace.n


def majority_minority_gap_series(trace: Trace) -> np.ndarray:
    """Figure 1 (right)'s ``max_{j≥2}(x₁ − x_j)`` per snapshot."""
    opinions = trace.opinion_matrix()
    if opinions.shape[1] < 2:
        raise ReproError("majority/minority gap needs at least two opinions")
    return opinions[:, 0] - opinions[:, 1:].min(axis=1)


def minority_band(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-snapshot (min, mean, max) over the minority opinions ``2..k``."""
    opinions = trace.opinion_matrix()
    if opinions.shape[1] < 2:
        raise ReproError("minority band needs at least two opinions")
    minorities = opinions[:, 1:]
    return minorities.min(axis=1), minorities.mean(axis=1), minorities.max(axis=1)


@dataclass(frozen=True)
class UndecidedExceedance:
    """How far ``u(t)`` climbed above Lemma 3.1's centre ``ũ``.

    Attributes
    ----------
    max_undecided:
        Largest recorded ``u(t)``.
    u_tilde:
        The lemma's centre ``n/2 − n/(4k) + 10n/(k−1)²``.
    exceedance:
        ``max_u − ũ`` in agents (negative when u never reached ũ).
    normalized:
        The exceedance in units of ``√(n ln n)`` — the paper proves this
        stays below ``20·132 + 1``; measured values are O(1).
    """

    max_undecided: int
    u_tilde: float
    exceedance: float
    normalized: float


def undecided_exceedance(trace: Trace, k: int) -> UndecidedExceedance:
    """Measure the Lemma 3.1 exceedance of a USD trace."""
    undecided = trace.undecided_series()
    n = trace.n
    centre = u_tilde(n, k)
    peak = int(undecided.max())
    exceedance = peak - centre
    scale = math.sqrt(n * math.log(n))
    return UndecidedExceedance(
        max_undecided=peak,
        u_tilde=centre,
        exceedance=float(exceedance),
        normalized=float(exceedance / scale),
    )
