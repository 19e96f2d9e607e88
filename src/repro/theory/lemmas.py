"""Quantitative content of Lemmas 3.1, 3.3 and 3.4.

Each lemma's thresholds, constants and walk parameters are exposed as
plain functions/dataclasses so the validation experiments
(``lem31-ceiling``, ``lem33-growth``, ``lem34-gap``) can compare
measured trajectories against exactly what the paper proves — not a
paraphrase of it — and the Theorem 3.5 certificate can chain them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import RegimeError
from .bounds import EPOCH_CONSTANT

__all__ = [
    "undecided_plateau",
    "u_tilde",
    "lemma31_slack",
    "lemma31_ceiling",
    "lemma31_drift_margin",
    "WalkParameters",
    "lemma33_thresholds",
    "lemma33_walk_parameters",
    "lemma33_min_interactions",
    "lemma34_walk_parameters",
    "lemma34_min_interactions",
    "lemma34_alpha_valid",
]

#: The Oliveto–Witt constant appearing in Theorem A.1 (exp(εℓ/(132 r²))).
OLIVETO_WITT_CONSTANT = 132

#: Lemma 3.1's slack multiplier ``20·132 + 1`` in front of √(n log n).
LEMMA31_SLACK_MULTIPLIER = 20 * OLIVETO_WITT_CONSTANT + 1


def _require(n: float, k: float) -> None:
    if n < 4:
        raise RegimeError(f"population size must be at least 4, got {n}")
    if k < 2:
        raise RegimeError(f"the lemmas need at least 2 opinions, got {k}")


def undecided_plateau(n: float, k: float) -> float:
    """Where ``u(t)`` settles: ``n/2 − n/(4k)`` (paper §2, Figure 1).

    The large-``k`` expansion of the mean-field fixed point
    ``n (k−1)/(2k−1)`` (:func:`repro.meanfield.undecided_fixed_point_fraction`).
    """
    return n / 2.0 - n / (4.0 * k)


def u_tilde(n: float, k: float) -> float:
    """Lemma 3.1's centre ``ũ = n/2 − n/(4k) + 10n/(k−1)²``."""
    _require(n, k)
    return undecided_plateau(n, k) + 10.0 * n / (k - 1.0) ** 2


def lemma31_slack(n: float) -> float:
    """Lemma 3.1's additive slack ``(20·132 + 1)·√(n log n)``."""
    if n < 2:
        raise RegimeError(f"population size must be at least 2, got {n}")
    return LEMMA31_SLACK_MULTIPLIER * math.sqrt(n * math.log(n))


def lemma31_ceiling(n: float, k: float) -> float:
    """The w.h.p. ceiling on ``u(t)`` for ``t ≤ n⁴``: ``ũ + slack``."""
    return u_tilde(n, k) + lemma31_slack(n)


def lemma31_drift_margin(n: float) -> float:
    """The proven negative drift ``√(log n / n)`` of ``u`` above the ceiling.

    Once ``u ≥ ũ + c√(n log n)`` (``c ≥ 1``), each interaction decreases
    ``u`` by at least this much in expectation — the input to the
    Oliveto–Witt hitting-time bound.
    """
    if n < 2:
        raise RegimeError(f"population size must be at least 2, got {n}")
    return math.sqrt(math.log(n) / n)


@dataclass(frozen=True)
class WalkParameters:
    """Instantiation of the Lemma 3.2 lazy walk for a lemma's proof.

    Attributes
    ----------
    p:
        Upper bound on the per-step move probability ``p(t)``.
    q:
        Upper bound on the signed drift ``q(t) = P(+1) − P(−1)``.
    target:
        The distance ``T`` the walk must cover.
    min_steps:
        The resulting w.h.p. survival time ``T / (2q)``.
    """

    p: float
    q: float
    target: float

    @property
    def min_steps(self) -> float:
        """Steps the walk w.h.p. needs to reach ``target``: ``T/(2q)``."""
        return self.target / (2.0 * self.q)

    def condition_threshold(self, n: float) -> float:
        """Lemma 3.2's requirement: ``32·((p − q²)/(2q) + 2/3)·log n``.

        The lemma applies when ``target >= condition_threshold(n)``.
        """
        if n < 2:
            raise RegimeError(f"population size must be at least 2, got {n}")
        return 32.0 * ((self.p - self.q**2) / (2.0 * self.q) + 2.0 / 3.0) * math.log(n)

    def condition_holds(self, n: float) -> bool:
        """Whether the lemma's applicability condition is met at size ``n``."""
        return self.target >= self.condition_threshold(n)


def lemma33_thresholds(n: float, k: float) -> tuple[float, float]:
    """Lemma 3.3's support window: start ``≤ 3n/(2k)``, target ``2n/k``."""
    _require(n, k)
    return 1.5 * n / k, 2.0 * n / k


def lemma33_walk_parameters(n: float, k: float) -> WalkParameters:
    """The proof's instantiation: ``p = 5/k``, ``q = 6.25/k²``, ``T = n/(2k)``.

    ``p`` bounds the probability that an interaction touches opinion
    ``i`` at all while ``x_i ≤ 2n/k``; ``q`` bounds the signed drift
    given the Lemma 3.1 ceiling on ``u``.
    """
    _require(n, k)
    return WalkParameters(p=5.0 / k, q=6.25 / k**2, target=n / (2.0 * k))


def lemma33_min_interactions(n: float, k: float) -> float:
    """Lemma 3.3's conclusion: growth needs ``≥ k·n/25`` interactions w.h.p."""
    _require(n, k)
    return k * n / EPOCH_CONSTANT


def lemma34_alpha_valid(n: float, k: float, alpha: float) -> bool:
    """Whether a gap scale α satisfies Lemma 3.4's window.

    The lemma needs ``α/2 = ω(√(n log n))`` and ``α = o(n/k)``; for
    concrete numbers we check ``α/2 > √(n log n)`` and ``α < n/k``.
    """
    _require(n, k)
    return alpha / 2.0 > math.sqrt(n * math.log(n)) and alpha < n / k


def lemma34_walk_parameters(n: float, k: float, alpha: float) -> WalkParameters:
    """The proof's instantiation: ``p = 9/k``, ``q = 6α/(nk)``, ``T = α/2``.

    The walk is ``Δ_ij − α/2``: starting at a gap of ``α/2``, reaching
    ``T`` means the gap doubled to ``α``.
    """
    _require(n, k)
    if alpha <= 0:
        raise RegimeError(f"alpha must be positive, got {alpha}")
    return WalkParameters(p=9.0 / k, q=6.0 * alpha / (n * k), target=alpha / 2.0)


def lemma34_min_interactions(n: float, k: float) -> float:
    """Lemma 3.4's conclusion: gap doubling needs ``≥ k·n/24`` interactions.

    ``T/(2q) = (α/2) / (2·6α/(nk)) = n·k/24`` — independent of α.
    """
    _require(n, k)
    return k * n / 24.0
