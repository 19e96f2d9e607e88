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
(:mod:`repro.meanfield.surrogate`).

SciPy is an *optional* dependency, gated at first use: importing
this module never imports scipy.  :func:`load_solve_ivp` performs the
lazy import and raises a clear :class:`~repro.errors.SimulationError`
when scipy is missing, and :func:`scipy_unavailable_reason` lets the
fidelity layer decide up front (``fidelity='surrogate'`` fails loudly,
``fidelity='auto'`` falls back to the exact engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..core.configuration import Configuration
from ..errors import SimulationError

__all__ = [
    "USDMeanField",
    "MeanFieldSolution",
    "load_solve_ivp",
    "scipy_available",
    "scipy_unavailable_reason",
]

#: Lazily-resolved ``scipy.integrate.solve_ivp`` (or the import error
#: message), cached after the first attempt.
_SOLVE_IVP: Optional[Callable] = None
_SCIPY_REASON: Optional[str] = None
_SCIPY_PROBED = False


def _probe_scipy() -> None:
    global _SOLVE_IVP, _SCIPY_REASON, _SCIPY_PROBED
    if _SCIPY_PROBED:
        return
    _SCIPY_PROBED = True
    try:
        from scipy.integrate import solve_ivp
    except ImportError as exc:  # pragma: no cover - scipy-less installs
        _SCIPY_REASON = f"scipy is not installed ({exc})"
    else:
        _SOLVE_IVP = solve_ivp


def scipy_unavailable_reason() -> Optional[str]:
    """Why the ODE integrator cannot run, or ``None`` when it can."""
    _probe_scipy()
    return _SCIPY_REASON


def scipy_available() -> bool:
    """Whether ``scipy.integrate.solve_ivp`` is importable."""
    return scipy_unavailable_reason() is None


def load_solve_ivp() -> Callable:
    """The lazily-imported ``solve_ivp``, or a loud, actionable error.

    A scipy-less install can import and use the whole library — only
    the code paths that genuinely need the integrator (mean-field
    ``integrate``, the surrogate fidelity tier) fail, and they fail
    with an error that names the missing dependency instead of an
    ImportError mid-flight.
    """
    _probe_scipy()
    if _SOLVE_IVP is None:
        raise SimulationError(
            "mean-field ODE integration needs scipy (scipy.integrate."
            f"solve_ivp): {_SCIPY_REASON}; install scipy, or use "
            "fidelity='exact' runs which never touch the integrator"
        )
    return _SOLVE_IVP


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
        t_eval: Optional[np.ndarray] = None,
        rtol: float = 1e-8,
        atol: float = 1e-10,
    ) -> MeanFieldSolution:
        """Integrate the fluid limit up to parallel time ``t_end``."""
        if t_end <= 0:
            raise SimulationError(f"t_end must be positive, got {t_end}")
        y0 = self.initial_state(initial)
        if t_eval is None:
            t_eval = np.linspace(0.0, t_end, 500)
        solve_ivp = load_solve_ivp()
        solution = solve_ivp(
            self.rhs,
            (0.0, float(t_end)),
            y0,
            t_eval=np.asarray(t_eval, dtype=float),
            rtol=rtol,
            atol=atol,
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
