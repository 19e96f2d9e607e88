"""Dense compiled form of a protocol's transition function.

Engines use the compiled table rather than calling the protocol's
``transition`` method per interaction:

* :attr:`TransitionTable.out_initiator` / :attr:`out_responder` — the
  post-interaction states as ``S×S`` integer arrays (the agent engine's
  inner loop is two table lookups);
* :attr:`TransitionTable.null_mask` — which ordered pairs change
  nothing (drives geometric null-skipping in the counts engine);
* :attr:`TransitionTable.delta_matrix` — the net count change of each
  ordered pair as an ``S²×S`` matrix (one integer mat-vec applies a
  whole τ-leaping batch in the batch engine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .protocol import PopulationProtocol

__all__ = ["TransitionTable"]


class TransitionTable:
    """Immutable dense representation of ``f : Σ² → Σ²``.

    Build via :meth:`from_protocol`; all arrays are read-only.
    """

    __slots__ = (
        "num_states",
        "out_initiator",
        "out_responder",
        "null_mask",
        "delta_matrix",
        "effective_pairs",
        "is_symmetric",
    )

    def __init__(
        self,
        num_states: int,
        out_initiator: np.ndarray,
        out_responder: np.ndarray,
    ):
        if out_initiator.shape != (num_states, num_states) or out_responder.shape != (
            num_states,
            num_states,
        ):
            raise ProtocolError("transition output arrays must be S×S")
        if num_states < 1:
            raise ProtocolError("a protocol needs at least one state")
        for arr, label in ((out_initiator, "initiator"), (out_responder, "responder")):
            if arr.min() < 0 or arr.max() >= num_states:
                raise ProtocolError(
                    f"{label} outputs leave the alphabet 0..{num_states - 1}"
                )

        self.num_states = int(num_states)
        self.out_initiator = out_initiator.astype(np.int64)
        self.out_responder = out_responder.astype(np.int64)
        self.out_initiator.setflags(write=False)
        self.out_responder.setflags(write=False)

        states = np.arange(num_states)
        a_grid, b_grid = np.meshgrid(states, states, indexing="ij")
        self.null_mask = (self.out_initiator == a_grid) & (self.out_responder == b_grid)
        self.null_mask.setflags(write=False)

        self.delta_matrix = self._build_delta_matrix(a_grid, b_grid)
        self.delta_matrix.setflags(write=False)

        self.effective_pairs = self._list_effective_pairs()
        self.is_symmetric = self._check_symmetry()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_protocol(cls, protocol: "PopulationProtocol") -> "TransitionTable":
        """Compile ``protocol`` by enumerating all ordered state pairs."""
        size = protocol.num_states
        out_a = np.empty((size, size), dtype=np.int64)
        out_b = np.empty((size, size), dtype=np.int64)
        for a in range(size):
            for b in range(size):
                result = protocol.transition(a, b)
                if (
                    not isinstance(result, tuple)
                    or len(result) != 2
                    or not all(isinstance(v, (int, np.integer)) for v in result)
                ):
                    raise ProtocolError(
                        f"transition({a}, {b}) must return a pair of ints, got {result!r}"
                    )
                out_a[a, b], out_b[a, b] = result
        return cls(size, out_a, out_b)

    def _build_delta_matrix(self, a_grid: np.ndarray, b_grid: np.ndarray) -> np.ndarray:
        """Net count change per ordered pair, as an ``S²×S`` matrix.

        Row ``a * S + b`` holds the vector added to the state counts when
        an ``(a, b)`` interaction fires: −1 at ``a`` and ``b``, +1 at the
        two output states (with accumulation when states coincide).
        """
        size = self.num_states
        delta = np.zeros((size * size, size), dtype=np.int64)
        rows = np.arange(size * size)
        flat_a = a_grid.ravel()
        flat_b = b_grid.ravel()
        np.add.at(delta, (rows, flat_a), -1)
        np.add.at(delta, (rows, flat_b), -1)
        np.add.at(delta, (rows, self.out_initiator.ravel()), 1)
        np.add.at(delta, (rows, self.out_responder.ravel()), 1)
        return delta

    def _list_effective_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose interaction changes the counts."""
        pairs = np.argwhere(~self.null_mask)
        return [(int(a), int(b)) for a, b in pairs]

    def _check_symmetry(self) -> bool:
        return bool(
            np.array_equal(self.out_initiator, self.out_responder.T)
            and np.array_equal(self.out_responder, self.out_initiator.T)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def delta_of(self, initiator: int, responder: int) -> np.ndarray:
        """Net count change of one ``(initiator, responder)`` interaction."""
        return self.delta_matrix[initiator * self.num_states + responder]

    def __repr__(self) -> str:
        return (
            f"TransitionTable(states={self.num_states}, "
            f"effective_pairs={len(self.effective_pairs)}, "
            f"symmetric={self.is_symmetric})"
        )
