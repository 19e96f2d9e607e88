"""The abstract population protocol interface.

A population protocol (Angluin et al.) is a deterministic pairwise
transition function ``f : Σ² → Σ²`` over a finite alphabet ``Σ`` plus an
output map ``γ : Σ → Γ``.  Engines never call :meth:`transition`
directly in their hot loops — they compile the protocol into a dense
:class:`repro.core.transitions.TransitionTable` once — so subclasses
only need to provide a clear, readable transition rule.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError
from ..types import StatePair
from .configuration import Configuration

__all__ = [
    "OpinionAlphabet",
    "OpinionProtocol",
    "PopulationProtocol",
    "default_undecided_index",
]


class PopulationProtocol(abc.ABC):
    """Deterministic two-agent interaction rule over a finite alphabet.

    Subclasses must implement :attr:`num_states` and :meth:`transition`.
    The ordered convention is ``transition(initiator, responder)``; for
    symmetric (undirected) protocols the order is irrelevant and
    :meth:`is_symmetric` reports ``True``.
    """

    #: Human-readable protocol name, overridden by subclasses.
    name: str = "population-protocol"

    @property
    @abc.abstractmethod
    def num_states(self) -> int:
        """Size of the alphabet Σ."""

    @abc.abstractmethod
    def transition(self, initiator: int, responder: int) -> StatePair:
        """Return the post-interaction ordered state pair."""

    # ------------------------------------------------------------------
    # Optional structure
    # ------------------------------------------------------------------

    def state_names(self) -> Tuple[str, ...]:
        """Human-readable names for each state (default ``s0..s{S-1}``)."""
        return tuple(f"s{i}" for i in range(self.num_states))

    def output(self, state: int) -> int:
        """Output map γ; identity unless a subclass overrides it."""
        return state

    def encode_configuration(self, config: Configuration) -> np.ndarray:
        """Translate an opinion-level :class:`Configuration` into state counts.

        Protocols whose alphabet is not opinion-structured must override
        this; the default raises so mismatches fail loudly instead of
        silently simulating the wrong initial condition.
        """
        raise ProtocolError(
            f"{self.name} does not define an encoding from opinion configurations; "
            "pass explicit state counts instead"
        )

    def decode_counts(self, counts: np.ndarray) -> Configuration:
        """Translate raw state counts back into an opinion-level view."""
        raise ProtocolError(
            f"{self.name} does not define a decoding to opinion configurations"
        )

    # ------------------------------------------------------------------
    # Derived helpers (shared by all protocols)
    # ------------------------------------------------------------------

    @functools.cached_property
    def table(self):
        """The compiled dense transition table (cached)."""
        from .transitions import TransitionTable

        return TransitionTable.from_protocol(self)

    def is_symmetric(self) -> bool:
        """True iff ``f(a, b) = (c, d)`` implies ``f(b, a) = (d, c)``."""
        return self.table.is_symmetric

    def is_absorbing(self, counts: np.ndarray) -> bool:
        """True iff no realisable interaction can change these counts.

        An ordered pair ``(a, b)`` is realisable when an ``a``-agent and
        a *distinct* ``b``-agent exist; the configuration is absorbing
        when every realisable pair is null.
        """
        counts = np.asarray(counts)
        if counts.shape != (self.num_states,):
            raise ProtocolError(
                f"counts must have shape ({self.num_states},), got {counts.shape}"
            )
        positive = counts > 0
        feasible = np.outer(positive, positive)
        np.fill_diagonal(feasible, counts > 1)
        return not bool(np.any(feasible & ~self.table.null_mask))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(states={self.num_states})"


class OpinionAlphabet:
    """Mixin for an opinion-structured alphabet of ``num_states`` states.

    The alphabet layout is ``[⊥?, opinion 1, ..., opinion k]`` — i.e.
    the *last* ``k`` states are the opinions, optionally preceded by
    bookkeeping states (USD has a single ⊥ in front; the voter model has
    none).  This matches :meth:`Configuration.to_state_counts` when the
    bookkeeping prefix is exactly one undecided state.  Population
    protocols (:class:`OpinionProtocol`) and the gossip dynamics share
    it, so one winner rule and one undecided-index rule serve both
    models.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ProtocolError(f"number of opinions must be >= 1, got {k}")
        self._k = int(k)

    @property
    def k(self) -> int:
        """Number of opinions."""
        return self._k

    @property
    def num_bookkeeping_states(self) -> int:
        """States preceding the opinion block (0 unless overridden)."""
        return self.num_states - self._k

    def opinion_state(self, opinion: int) -> int:
        """Alphabet index of 1-based ``opinion``."""
        if not 1 <= opinion <= self._k:
            raise ProtocolError(f"opinion must be in 1..{self._k}, got {opinion}")
        return self.num_bookkeeping_states + opinion - 1

    def opinion_counts_of(self, counts: Sequence[int] | np.ndarray) -> np.ndarray:
        """Slice per-opinion counts out of a raw state-count vector."""
        arr = np.asarray(counts)
        return arr[self.num_bookkeeping_states :]


class OpinionProtocol(OpinionAlphabet, PopulationProtocol):
    """Base class for population protocols whose alphabet is
    opinion-structured (see :class:`OpinionAlphabet`)."""


def default_undecided_index(protocol: Any) -> Optional[int]:
    """Index of the undecided state in ``protocol``'s count vector.

    ``0`` for opinion protocols and gossip dynamics with the standard
    ``[⊥, opinions...]`` layout (one bookkeeping state), ``None``
    otherwise — the rule :func:`repro.core.run.simulate` applies when
    stamping traces, shared here so streamed-trace manifests agree
    with it.
    """
    if isinstance(protocol, OpinionAlphabet) and protocol.num_bookkeeping_states == 1:
        return 0
    return None
