"""Deterministic timescale predictions from the fluid limit.

The mean-field ODE of :mod:`repro.meanfield.ode` predicts the *shape*
of Figure 1 deterministically: when u(τ) enters its plateau, when the
majority doubles, and when consensus is (numerically) reached.  These
predictions line up with the simulated medians at large n — they are
the zero-noise skeleton the paper's concentration analysis decorates
with O(√(n log n)) fluctuations — and the integration tests compare the
two directly.

Caveat spelled out in the docstrings: from an *exactly symmetric*
minority start the ODE conserves minority equality, while the
stochastic system breaks ties by noise; predictions are therefore made
from the (biased) paper initial configuration, whose asymmetry the ODE
amplifies just like the expected dynamics do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.configuration import Configuration
from ..errors import SimulationError
from .fixed_points import undecided_fixed_point_fraction
from .ode import MeanFieldSolution, USDMeanField

__all__ = [
    "MeanFieldTimescales",
    "predict_timescales",
    "timescales_from_solution",
]


@dataclass(frozen=True)
class MeanFieldTimescales:
    """ODE-predicted event times (parallel-time units).

    Attributes
    ----------
    plateau_entry:
        First time the undecided fraction comes within ``tolerance`` of
        the symmetric fixed point ``(k−1)/(2k−1)``.
    majority_doubling:
        First time the majority fraction reaches twice its initial
        value (``None`` when it does not double before ``horizon``).
    consensus:
        First time the majority holds all but ``tolerance`` of the
        population (``None`` if not reached before ``horizon``).
    horizon:
        The integration horizon used.
    """

    plateau_entry: Optional[float]
    majority_doubling: Optional[float]
    consensus: Optional[float]
    horizon: float


def _first_crossing(
    times: np.ndarray, series: np.ndarray, predicate: np.ndarray
) -> Optional[float]:
    hits = np.flatnonzero(predicate)
    return float(times[hits[0]]) if hits.size else None


def predict_timescales(
    initial: Configuration,
    *,
    horizon: float = 500.0,
    tolerance: float = 1e-3,
) -> MeanFieldTimescales:
    """Integrate the fluid limit from ``initial`` and extract event times.

    ``tolerance`` is in *fraction* units: plateau entry means
    ``|v − v*| < tolerance`` and consensus means the majority fraction
    exceeds ``1 − tolerance``.  The solution is read on a 4000-point
    grid over ``[0, horizon]``.
    """
    if horizon <= 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    if not 0 < tolerance < 0.5:
        raise SimulationError(f"tolerance must be in (0, 0.5), got {tolerance}")
    model = USDMeanField(k=initial.k)
    grid = np.linspace(0.0, horizon, 4000)
    solution = model.integrate(initial, t_end=horizon, t_eval=grid)
    return timescales_from_solution(solution, tolerance=tolerance)


def timescales_from_solution(
    solution: MeanFieldSolution, *, tolerance: float = 1e-3
) -> MeanFieldTimescales:
    """Extract event times from an already-integrated fluid-limit solution.

    The surrogate fidelity tier integrates once per resolved spec and
    reads both the trajectory and these event times off the same
    solution — re-integrating (as :func:`predict_timescales` does from
    a configuration) would double the resolve latency for nothing.
    """
    if not 0 < tolerance < 0.5:
        raise SimulationError(f"tolerance must be in (0, 0.5), got {tolerance}")
    if solution.times.size == 0:
        raise SimulationError("cannot extract timescales from an empty solution")
    k = solution.opinions.shape[1]
    horizon = float(solution.times[-1])

    v_star = undecided_fixed_point_fraction(k)
    plateau = _first_crossing(
        solution.times,
        solution.undecided,
        np.abs(solution.undecided - v_star) < tolerance,
    )
    majority = solution.opinions[:, 0]
    initial_fraction = majority[0]
    doubling = None
    if initial_fraction > 0:
        doubling = _first_crossing(
            solution.times, majority, majority >= 2.0 * initial_fraction
        )
    consensus = _first_crossing(
        solution.times, majority, majority >= 1.0 - tolerance
    )
    return MeanFieldTimescales(
        plateau_entry=plateau,
        majority_doubling=doubling,
        consensus=consensus,
        horizon=horizon,
    )
