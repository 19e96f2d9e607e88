"""The four-state exact-majority protocol (binary opinions).

The classic constant-state protocol studied by Draief & Vojnović
(INFOCOM'10) and Mertzios et al. (ICALP'14), in the
cancellation/conversion formulation used by the population-protocol
surveys (§1.2 of the paper):

* alphabet ``{A, B, a, b}`` — *strong* A/B carry the balance of the
  vote, *weak* a/b only remember a tentative output;
* ``A + B → a + b`` — opposing strong agents cancel (the strong-count
  difference ``#A − #B`` is invariant);
* ``A + b → A + a`` and ``B + a → B + b`` — a strong agent converts an
  opposing weak one;
* all other meetings change nothing.

When the input has a strict majority (``#A ≠ #B``) the protocol always
stabilizes to the correct output: minority strongs are eliminated by
cancellation, and the surviving strongs convert every weak agent.  Its
stabilization time is polynomial in general but fast under large bias —
the behaviour the paper's related-work section describes.  On exact
ties all strong agents annihilate and the population is left absorbed
in a mixed weak state: the four-state protocol famously cannot break
ties.

Output map: ``A, a ↦ 1`` and ``B, b ↦ 2``.
"""

from __future__ import annotations

import numpy as np

from ..core.configuration import Configuration
from ..core.protocol import PopulationProtocol
from ..errors import ProtocolError
from ..types import StatePair

__all__ = [
    "FourStateExactMajority",
    "STATE_A",
    "STATE_B",
    "STATE_WEAK_A",
    "STATE_WEAK_B",
]

STATE_A = 0
STATE_B = 1
STATE_WEAK_A = 2
STATE_WEAK_B = 3

_OPPOSING_WEAK = {STATE_A: STATE_WEAK_B, STATE_B: STATE_WEAK_A}
_OWN_WEAK = {STATE_A: STATE_WEAK_A, STATE_B: STATE_WEAK_B}


class FourStateExactMajority(PopulationProtocol):
    """Four-state exact majority for two opinions."""

    name = "four-state-exact-majority"

    @property
    def num_states(self) -> int:
        return 4

    def state_names(self):
        return ("A", "B", "a", "b")

    def output(self, state: int) -> int:
        """1 for the A-side, 2 for the B-side."""
        return 1 if state in (STATE_A, STATE_WEAK_A) else 2

    def transition(self, initiator: int, responder: int) -> StatePair:
        pair = (initiator, responder)
        if pair == (STATE_A, STATE_B) or pair == (STATE_B, STATE_A):
            return (
                _OWN_WEAK[initiator],
                _OWN_WEAK[responder],
            )
        if initiator in _OPPOSING_WEAK and responder == _OPPOSING_WEAK[initiator]:
            return (initiator, _OWN_WEAK[initiator])
        if responder in _OPPOSING_WEAK and initiator == _OPPOSING_WEAK[responder]:
            return (_OWN_WEAK[responder], responder)
        return pair

    def encode_configuration(self, config: Configuration) -> np.ndarray:
        """Map a binary opinion configuration to all-strong initial counts."""
        if config.k != 2:
            raise ProtocolError("the four-state protocol is defined for k = 2")
        if config.undecided != 0:
            raise ProtocolError("the four-state protocol has no undecided state")
        return np.array([config.x(1), config.x(2), 0, 0], dtype=np.int64)

    def decode_counts(self, counts: np.ndarray) -> Configuration:
        """Opinion-level view: side totals (strong + weak), no undecided."""
        counts = np.asarray(counts)
        return Configuration(
            [int(counts[STATE_A] + counts[STATE_WEAK_A]),
             int(counts[STATE_B] + counts[STATE_WEAK_B])],
            undecided=0,
        )
