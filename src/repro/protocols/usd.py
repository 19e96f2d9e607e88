"""The Undecided State Dynamics (USD) — the paper's protocol.

Alphabet: ``k + 1`` states — ``⊥`` (index 0) plus the ``k`` opinions
(indices ``1..k``).  Transition function (paper §1.1):

* two agents with *different* opinions both become undecided
  (``f(s₁, s₂) = (⊥, ⊥)`` for ``s₁ ≠ s₂ ∈ [k]``) — a *cancellation*;
* a decided agent converts an undecided one
  (``f(s, ⊥) = (s, s)``) — a *recruitment*;
* everything else is the identity.

The output map γ is the identity; convergence and stabilization
coincide for USD (paper footnote 2).  Absorbing configurations are
consensus (one opinion holds all ``n`` agents) and all-undecided.

The layout is :class:`~repro.core.protocol.OpinionAlphabet`'s ⊥-first
one, which also names the states and encodes and decodes
configurations; this module defines only the transition rule.
"""

from __future__ import annotations

from ..core.protocol import OpinionProtocol
from ..types import StatePair

__all__ = ["UndecidedStateDynamics", "UNDECIDED_STATE"]

#: Alphabet index of the undecided state ⊥.
UNDECIDED_STATE = 0


class UndecidedStateDynamics(OpinionProtocol):
    """The unconditional k-opinion Undecided State Dynamics.

    Parameters
    ----------
    k:
        Number of opinions (``k >= 1``; the paper's regime of interest
        is ``ω(1) <= k <= o(√n / log n)``, but the protocol itself is
        well-defined for any ``k``).
    """

    name = "undecided-state-dynamics"

    @property
    def num_states(self) -> int:
        """``k + 1``: the k opinions plus ⊥."""
        return self._k + 1

    def transition(self, initiator: int, responder: int) -> StatePair:
        if initiator == UNDECIDED_STATE and responder != UNDECIDED_STATE:
            return (responder, responder)
        if responder == UNDECIDED_STATE and initiator != UNDECIDED_STATE:
            return (initiator, initiator)
        if initiator != responder:
            return (UNDECIDED_STATE, UNDECIDED_STATE)
        return (initiator, responder)
