"""Exact one-step transition probabilities of the USD — the proofs' raw material.

For a configuration ``x = (x_1..x_k, u)`` these functions give the
*exact* step probabilities (denominators ``n(n−1)``, no ``O(1/n)``
truncation) that the paper's Lemmas 3.1, 3.3 and 3.4 estimate:

* ``E[Δu]`` and its ``(P(+2), P(−1))`` pair — the drift of the
  undecided count (Lemma 3.1, the ``lem31-ceiling`` drift claim);
* the ``(P(+1), P(−1))`` pair for ``x_i`` (Lemma 3.3's walk, the
  ``lem33-growth`` premise claim);
* the ``(P(+1), P(−1))`` pair for the gap ``Δ_ij = x_i − x_j``
  (Lemma 3.4's walk, the ``lem34-gap`` premise claim).

``tests/test_drift.py`` cross-validates the formulas against single
interactions of the exact counts engine.
"""

from __future__ import annotations

from typing import Tuple

from ..core.configuration import Configuration
from ..errors import ConfigurationError

__all__ = [
    "undecided_step_probabilities",
    "expected_undecided_change",
    "opinion_step_probabilities",
    "gap_step_probabilities",
]


def _pair_denominator(n: int) -> float:
    return float(n) * float(n - 1)


def undecided_step_probabilities(config: Configuration) -> Tuple[float, float]:
    """``(P(u increases by 2), P(u decreases by 1))`` for the next interaction.

    ``u`` gains 2 on a cancellation (two distinct opinions meet) and
    loses 1 on a recruitment (a decided agent meets an undecided one).
    """
    n = config.n
    u = config.undecided
    decided = config.decided
    cancellation_weight = decided * decided - config.sum_of_squares()
    recruitment_weight = 2 * u * decided
    denominator = _pair_denominator(n)
    return cancellation_weight / denominator, recruitment_weight / denominator


def expected_undecided_change(config: Configuration) -> float:
    """Exact ``E[u(t+1) − u(t) | x(t)]`` (the Lemma 3.1 drift)."""
    p_up, p_down = undecided_step_probabilities(config)
    return 2.0 * p_up - p_down


def opinion_step_probabilities(
    config: Configuration, opinion: int
) -> Tuple[float, float]:
    """``(P(+1), P(−1))`` for ``x_i`` — Lemma 3.3's walk probabilities.

    ``x_i`` gains 1 when an ``i``-agent meets an undecided agent
    (either order), and loses 1 when it meets a differently-decided
    agent.  The drift ``P(+1) − P(−1) = 2 x_i (2u − n + x_i)/(n(n−1))``
    is positive iff ``u`` exceeds the threshold ``(n − x_i)/2`` of §2.
    """
    n = config.n
    x_i = config.x(opinion)
    u = config.undecided
    denominator = _pair_denominator(n)
    p_up = 2.0 * x_i * u / denominator
    p_down = 2.0 * x_i * (n - u - x_i) / denominator
    return p_up, p_down


def gap_step_probabilities(
    config: Configuration, i: int, j: int
) -> Tuple[float, float]:
    """``(P(+1), P(−1))`` for ``Δ_ij = x_i − x_j`` — Lemma 3.4's walk.

    ``Δ_ij`` rises when ``x_i`` recruits an undecided agent or ``x_j``
    cancels against an opinion other than ``i``; an ``(i, j)`` meeting
    decreases both counts and leaves the gap unchanged, so changes of
    ±2 do not occur.  The drift ``P(+1) − P(−1)`` factorises as
    ``2 (x_i − x_j)(2u − n + x_i + x_j) / (n(n−1))``: it is proportional
    to the gap itself, the heart of Lemma 3.4.
    """
    if i == j:
        raise ConfigurationError("gap probabilities need two distinct opinions")
    n = config.n
    u = config.undecided
    x_i = config.x(i)
    x_j = config.x(j)
    others = n - u - x_i - x_j
    denominator = _pair_denominator(n)
    p_up = (2.0 * x_i * u + 2.0 * x_j * others) / denominator
    p_down = (2.0 * x_j * u + 2.0 * x_i * others) / denominator
    return p_up, p_down
