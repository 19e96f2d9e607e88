"""Fixed points of the USD mean-field dynamics.

The paper's Section 2 observation that ``u(t)`` "settles around
``n/2 − n/(4k)``" is, in the fluid limit, a statement about the
symmetric interior fixed point of the ODE system of
:mod:`repro.meanfield.ode`.  This module computes the fixed points
exactly and classifies stability through the Jacobian; the paper's
large-``k`` expansion ``1/2 − 1/(4k)`` is
:func:`repro.theory.undecided_plateau` at ``n = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError

__all__ = [
    "undecided_fixed_point_fraction",
    "symmetric_interior_fixed_point",
    "consensus_fixed_point",
    "jacobian",
    "FixedPointClassification",
    "classify_fixed_point",
]


def undecided_fixed_point_fraction(k: int) -> float:
    """Exact symmetric fixed point of the undecided fraction: ``(k−1)/(2k−1)``.

    Derived by balancing recruitment against cancellation with all
    opinions equal: ``v (1 − v) = (1 − v)² (k − 1)/k``.
    """
    if k < 1:
        raise SimulationError(f"k must be >= 1, got {k}")
    return (k - 1.0) / (2.0 * k - 1.0)


def symmetric_interior_fixed_point(k: int) -> np.ndarray:
    """The packed state ``[v*, a*..a*]`` with all opinions equal.

    ``v* = (k−1)/(2k−1)`` and ``a* = (1 − v*)/k = 1/(2k−1)``.
    """
    v_star = undecided_fixed_point_fraction(k)
    a_star = (1.0 - v_star) / k
    out = np.full(k + 1, a_star)
    out[0] = v_star
    return out


def consensus_fixed_point(k: int) -> np.ndarray:
    """The packed state with opinion 1 holding everything."""
    if k < 1:
        raise SimulationError(f"k must be >= 1, got {k}")
    out = np.zeros(k + 1)
    out[1] = 1.0
    return out


def jacobian(y: np.ndarray) -> np.ndarray:
    """Jacobian of the mean-field RHS at packed state ``y = [v, a_1..a_k]``.

    Rows/columns are ordered ``[v, a_1..a_k]``:

    * ``∂v̇/∂v = -2 + 4v - 4(1 - v)``
    * ``∂v̇/∂a_i = -4 a_i``
    * ``∂ȧ_i/∂v = 4 a_i``
    * ``∂ȧ_i/∂a_i = 2 (2v - 1) + 4 a_i``
    """
    y = np.asarray(y, dtype=float)
    k = y.size - 1
    v = y[0]
    a = y[1:]
    jac = np.zeros((k + 1, k + 1))
    jac[0, 0] = -2.0 + 4.0 * v - 4.0 * (1.0 - v)
    jac[0, 1:] = -4.0 * a
    jac[1:, 0] = 4.0 * a
    for i in range(k):
        jac[1 + i, 1 + i] = 2.0 * (2.0 * v - 1.0) + 4.0 * a[i]
    return jac


@dataclass(frozen=True)
class FixedPointClassification:
    """Stability summary of a fixed point.

    Attributes
    ----------
    eigenvalues:
        Jacobian eigenvalues on the physical (mass-conserving) subspace.
    stable:
        All real parts strictly negative.
    unstable_directions:
        Count of eigenvalues with positive real part.
    """

    eigenvalues: np.ndarray
    stable: bool
    unstable_directions: int


def _simplex_tangent_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane ``Σ components = 0``.

    The dynamics conserve total mass, so stability must be judged on
    this tangent space: the raw Jacobian has an unphysical direction
    (adding agents) that would mis-classify consensus as unstable.
    """
    ones = np.ones((dim, 1)) / np.sqrt(dim)
    # QR of [1 | I] yields an orthonormal frame whose first column is 1/√d;
    # the remaining columns span the tangent space.
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(dim)]))
    return q[:, 1:dim]


def classify_fixed_point(y: np.ndarray) -> FixedPointClassification:
    """Classify a fixed point of the USD fluid limit by linearization.

    The Jacobian is projected onto the mass-conserving subspace before
    taking eigenvalues; a real part within ``1e-9`` of zero counts as
    neither stable nor unstable.
    """
    tol = 1e-9
    full = jacobian(y)
    basis = _simplex_tangent_basis(full.shape[0])
    projected = basis.T @ full @ basis
    eigenvalues = np.linalg.eigvals(projected)
    real = eigenvalues.real
    return FixedPointClassification(
        eigenvalues=eigenvalues,
        stable=bool(np.all(real < -tol)),
        unstable_directions=int(np.sum(real > tol)),
    )
