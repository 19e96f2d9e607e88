"""Mean-field (expected) dynamics of the Undecided State Dynamics.

Writing opinion *fractions* ``a_i = x_i / n`` and the undecided
fraction ``v = u / n``, and measuring time in parallel-time units (one
unit = ``n`` interactions), the conditional one-step drifts of the
paper's Lemma 3.1 / Lemma 3.3 proofs become the ODE system

.. math::

    \\dot a_i &= 2 a_i (2v - 1 + a_i) \\\\
    \\dot v   &= -2 v (1 - v) + 2\\bigl((1 - v)^2 - \\textstyle\\sum_i a_i^2\\bigr)

(the ``a_i`` equation is the recruitment gain ``2 a_i v`` minus the
cancellation loss ``2 a_i (1 - v - a_i)``).  The fluid limit is the
n → ∞ deterministic skeleton of the process: the simulated trajectories
of Figure 1 track it to within the O(√(n log n)) fluctuations the
paper's drift analysis bounds.

This module integrates the system with SciPy and is used by the theory
tests (plateau location, threshold behaviour), by the figure
experiments as an overlay reference, and by the surrogate fidelity tier
(:mod:`repro.meanfield.surrogate`).  scipy is imported inside
:meth:`USDMeanField.integrate`, so importing :mod:`repro` loads none of
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..core.configuration import Configuration
from ..errors import SimulationError

__all__ = ["USDMeanField", "MeanFieldSolution"]


@dataclass(frozen=True)
class MeanFieldSolution:
    """Integrated mean-field trajectory.

    Attributes
    ----------
    times:
        Parallel-time grid, shape ``(T,)``.
    undecided:
        Undecided fraction ``v(τ)``, shape ``(T,)``.
    opinions:
        Opinion fractions ``a_i(τ)``, shape ``(T, k)``.
    """

    times: np.ndarray
    undecided: np.ndarray
    opinions: np.ndarray


class USDMeanField:
    """The k-opinion USD fluid limit."""

    def __init__(self, k: int):
        if k < 1:
            raise SimulationError(f"number of opinions must be >= 1, got {k}")
        self._k = int(k)

    @property
    def k(self) -> int:
        """Number of opinions."""
        return self._k

    def rhs(self, _t: float, y: np.ndarray) -> np.ndarray:
        """Right-hand side over the packed state ``y = [v, a_1..a_k]``."""
        v = y[0]
        a = y[1:]
        da = 2.0 * a * (2.0 * v - 1.0 + a)
        dv = -2.0 * v * (1.0 - v) + 2.0 * ((1.0 - v) ** 2 - float(np.dot(a, a)))
        out = np.empty_like(y)
        out[0] = dv
        out[1:] = da
        return out

    def initial_state(
        self, initial: Union[Configuration, Sequence[float]]
    ) -> np.ndarray:
        """Pack an initial condition into ``[v, a_1..a_k]`` fractions."""
        if isinstance(initial, Configuration):
            if initial.k != self._k:
                raise SimulationError(
                    f"configuration has k={initial.k}, model expects k={self._k}"
                )
            y0 = np.empty(self._k + 1)
            y0[0] = initial.undecided / initial.n
            y0[1:] = initial.fractions()
            return y0
        y0 = np.asarray(initial, dtype=float)
        if y0.shape != (self._k + 1,):
            raise SimulationError(
                f"initial state must have shape ({self._k + 1},), got {y0.shape}"
            )
        if np.any(y0 < 0) or not np.isclose(y0.sum(), 1.0, atol=1e-8):
            raise SimulationError("initial fractions must be non-negative and sum to 1")
        return y0

    def integrate(
        self,
        initial: Union[Configuration, Sequence[float]],
        t_end: float,
        *,
        t_eval: np.ndarray,
    ) -> MeanFieldSolution:
        """Integrate the fluid limit up to parallel time ``t_end``."""
        from scipy.integrate import solve_ivp

        if t_end <= 0:
            raise SimulationError(f"t_end must be positive, got {t_end}")
        y0 = self.initial_state(initial)
        solution = solve_ivp(
            self.rhs,
            (0.0, float(t_end)),
            y0,
            t_eval=np.asarray(t_eval, dtype=float),
            rtol=1e-8,
            atol=1e-10,
            method="RK45",
        )
        if not solution.success:  # pragma: no cover - scipy failure path
            raise SimulationError(f"mean-field integration failed: {solution.message}")
        states = solution.y.T
        return MeanFieldSolution(
            times=solution.t.copy(),
            undecided=states[:, 0].copy(),
            opinions=states[:, 1:].copy(),
        )
