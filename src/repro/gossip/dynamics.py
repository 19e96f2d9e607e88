"""Concrete Gossip-model opinion dynamics.

Three classic dynamics from the plurality-consensus literature the
paper discusses:

* :class:`GossipUSD` — the Undecided State Dynamics run synchronously
  (Becchetti et al., SODA'15): an undecided node adopts its sample's
  opinion; a decided node goes undecided when it samples a *different*
  opinion.
* :class:`GossipThreeMajority` — each node samples three nodes and
  adopts the majority among them (first sample on a three-way tie).
* :class:`GossipVoter` — each node simply adopts its sample's state.

All three updates are simulated *exactly* at counts level: each agent's
new state depends only on (own state, independent uniform samples), so
the round factorises into binomial/multinomial draws.  Sampling is
uniform over all ``n`` nodes, self included — the standard analytical
convention, differing from sampling a strictly-other node by O(1/n).

The state layout is the population protocols' own
:class:`~repro.core.protocol.OpinionAlphabet`: ``[⊥, opinion 1..k]``
for :class:`GossipUSD` and ``[opinion 1..k]`` for the others.  It
names the states, encodes and decodes configurations and names the
winner, so the same recorders and analysis code apply; each class here
defines only ``num_states`` and its ``round_update``, and
:meth:`GossipDynamics.is_absorbing` is their one absorption rule.
"""

from __future__ import annotations

import numpy as np

from ..core.protocol import OpinionAlphabet
from .engine import GossipDynamics

__all__ = [
    "GossipUSD",
    "GossipThreeMajority",
    "GossipVoter",
    "three_majority_distribution",
]


class GossipUSD(OpinionAlphabet, GossipDynamics):
    """Undecided State Dynamics under synchronous gossip."""

    name = "gossip-usd"

    @property
    def num_states(self) -> int:
        return self._k + 1

    def round_update(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = int(counts.sum())
        u = int(counts[0])
        opinions = counts[1:]
        probabilities = counts / n

        # Undecided nodes adopt their sample's state (⊥ keeps them undecided).
        adopted = rng.multinomial(u, probabilities)
        # Decided nodes go undecided iff they sample a *different* opinion.
        decided_total = n - u
        losses = np.zeros(self._k, dtype=np.int64)
        for i in range(self._k):
            x_i = int(opinions[i])
            if x_i == 0:
                continue
            p_clash = float(decided_total - x_i) / n
            losses[i] = rng.binomial(x_i, p_clash)

        new = np.empty_like(counts)
        new[1:] = opinions - losses + adopted[1:]
        new[0] = u - int(adopted[1:].sum()) + int(losses.sum())
        return new


def three_majority_distribution(fractions: np.ndarray) -> np.ndarray:
    """New-opinion distribution of one 3-majority draw.

    With opinion fractions ``p``, a node adopts opinion ``i`` when at
    least two of its three independent samples are ``i``, or when all
    three samples are pairwise distinct and the *first* one is ``i``
    (the exchangeable tie-break).  Closed form::

        q_i = p_i³ + 3 p_i² (1 − p_i) + p_i ((1 − p_i)² − Σ_{j≠i} p_j²)

    The three terms are: unanimity, exactly-two majorities, and
    first-sample tie-breaks.
    """
    p = np.asarray(fractions, dtype=float)
    sum_sq = float(np.dot(p, p))
    others_sq = sum_sq - p * p
    q = p**3 + 3 * p**2 * (1 - p) + p * ((1 - p) ** 2 - others_sq)
    return q


class GossipThreeMajority(OpinionAlphabet, GossipDynamics):
    """3-majority dynamics: adopt the majority of three uniform samples."""

    name = "gossip-3-majority"

    @property
    def num_states(self) -> int:
        return self._k

    def round_update(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = int(counts.sum())
        q = three_majority_distribution(counts / n)
        # Guard against floating-point drift before the multinomial draw.
        q = np.clip(q, 0.0, None)
        q /= q.sum()
        return rng.multinomial(n, q)


class GossipVoter(OpinionAlphabet, GossipDynamics):
    """Pull voter model: every node adopts its sample's opinion."""

    name = "gossip-voter"

    @property
    def num_states(self) -> int:
        return self._k

    def round_update(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = int(counts.sum())
        return rng.multinomial(n, counts / n)
