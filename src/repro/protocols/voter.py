"""The (k-opinion) voter model — a stateless consensus baseline.

On every interaction the responder adopts the initiator's opinion.
There is no undecided state and no bias amplification: consensus is
reached in Θ(n²) interactions on the clique irrespective of the initial
bias, and the winner is essentially a martingale draw proportional to
initial support.  It serves as the "no mechanism" baseline against
which USD's bias amplification is compared.
"""

from __future__ import annotations

from ..core.protocol import OpinionProtocol
from ..types import StatePair

__all__ = ["VoterModel"]


class VoterModel(OpinionProtocol):
    """k-opinion voter model: ``f(a, b) = (a, a)``."""

    name = "voter-model"

    @property
    def num_states(self) -> int:
        """Exactly the ``k`` opinions — no bookkeeping states."""
        return self._k

    def transition(self, initiator: int, responder: int) -> StatePair:
        return (initiator, initiator)
