"""Stopping conditions for simulation runs.

A stopping condition is any callable taking an engine (anything
satisfying :class:`repro.types.SupportsCounts`) and returning ``True``
to halt.  This module provides the targets the experiments need: the
opinion-growth and gap-doubling events of Lemmas 3.3 and 3.4.
Absorption needs no predicate (every run loop stops at it), and
conditions combine with a plain ``lambda engine: p(engine) or q(engine)``.
"""

from __future__ import annotations

import numpy as np

from ..types import StopPredicate, SupportsCounts
from .protocol import OpinionProtocol

__all__ = ["opinion_reached", "gap_reached"]


def opinion_reached(
    protocol: OpinionProtocol, opinion: int, threshold: int
) -> StopPredicate:
    """Opinion ``opinion`` (1-based) has support ``>= threshold``.

    This is the Lemma 3.3 event: stop when ``x_i`` reaches ``2n/k``.
    """
    state = protocol.opinion_state(opinion)

    def predicate(engine: SupportsCounts) -> bool:
        return int(engine.counts[state]) >= threshold

    return predicate


def gap_reached(protocol: OpinionProtocol, threshold: int) -> StopPredicate:
    """``max_{i,j} (x_i - x_j) >= threshold`` — the Lemma 3.4 event."""
    start = protocol.num_bookkeeping_states

    def predicate(engine: SupportsCounts) -> bool:
        opinions = np.asarray(engine.counts)[start:]
        return int(opinions.max() - opinions.min()) >= threshold

    return predicate
