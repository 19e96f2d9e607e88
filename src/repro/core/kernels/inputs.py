"""The frozen per-engine kernel input structs.

A :class:`KernelInputs` is everything a compute kernel needs to know
about a protocol/population pair that does *not* change during a run:
the effective ordered pairs (as flat ``int64`` arrays), the dense
per-pair delta matrix, the ``n (n - 1)`` pair denominator, and the
effective pairs regrouped by initiator for the exact counts kernel.
Engines build it once in their constructor and hand it to every kernel
call, so kernels stay stateless and work on plain arrays instead of
protocol objects.  :class:`EpochInputs` adds what the
collision-free epoch kernel needs on top: the post-states and the
effectiveness of every ordered pair by flat index, and the law of the
epoch length at this ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

__all__ = ["EpochInputs", "KernelInputs"]

#: The epoch-length table stops at ``EPOCH_TABLE_ROOTS · √n`` disjoint
#: interactions, where P(ℓ ≥ m) ≈ exp(−2m²/n) is below 1e-55.  Where it
#: stops matters for speed only: an epoch that reaches the end of the
#: table plays no collision, and the next epoch starts afresh, which the
#: Markov property makes exact.
EPOCH_TABLE_ROOTS = 8


@dataclass(frozen=True)
class KernelInputs:
    """Immutable inputs shared by every kernel call of one engine.

    Attributes
    ----------
    eff_a, eff_b:
        Initiator/responder states of the effective ordered pairs,
        shape ``(E,)`` ``int64``.
    eff_same:
        ``1`` where ``eff_a == eff_b`` else ``0`` (the ``[a = b]``
        correction in the pair weight ``c_a (c_b - [a = b])``).
    eff_delta:
        Dense net count change of each effective pair, shape ``(E, S)``
        ``int64``.
    pair_denominator:
        ``n (n - 1)`` as a float — the ordered-pair count.
    num_states:
        Alphabet size ``S``.
    n:
        Population size.

    ``batch_step`` reads :attr:`eff_delta_float`, a cached ``float64``
    copy of ``eff_delta``.  :meth:`effective_weight` and ``counts_step``
    read the pairs grouped by initiator: the cached properties
    :attr:`responder_matrix`, :attr:`block_self`, :attr:`block_pairs`,
    :attr:`pair_count_change` and :attr:`pair_partner_change`, each
    built at its first use.
    Block ``a`` holds the effective pairs whose initiator is ``a``; with
    ``B(a)`` its responders, ``R = responder_matrix @ counts`` gives
    ``R_a = Σ_{b ∈ B(a)} c_b``, and ``partners_a = R_a - block_self_a``
    counts the agents an ``a``-agent meets in one of the block's pairs,
    so the block weighs ``W_a = c_a · partners_a``, the sum of its
    pairs' weights.
    """

    eff_a: np.ndarray
    eff_b: np.ndarray
    eff_same: np.ndarray
    eff_delta: np.ndarray
    pair_denominator: float
    num_states: int
    n: int

    def __post_init__(self) -> None:
        for name in ("eff_a", "eff_b", "eff_same", "eff_delta"):
            # always copy before freezing: ascontiguousarray would alias
            # an already-contiguous input and setflags would then make
            # the *caller's* array read-only behind their back
            array = np.array(getattr(self, name), dtype=np.int64, order="C")
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def effective_weight(self, counts: np.ndarray) -> int:
        """``Σ c_a (c_b - [a = b])`` over the effective pairs.

        The number of ordered pairs of distinct agents whose interaction
        is effective; over :attr:`pair_denominator` it is the probability
        that the next interaction changes the configuration.  Summed by
        initiator block, it is ``c · (M c - block_self)``.
        """
        return int(counts @ (self.responder_matrix @ counts - self.block_self))

    @cached_property
    def eff_delta_float(self) -> np.ndarray:
        """``eff_delta`` as ``float64``, shape ``(E, S)``: ``batch_step``
        multiplies the multinomial's pair counts by it through BLAS."""
        matrix = self.eff_delta.astype(np.float64)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def responder_matrix(self) -> np.ndarray:
        """``M[a, b]``, the number of effective pairs ``(a, b)`` (0 or 1
        for a compiled table), shape ``(S, S)`` ``int64``."""
        matrix = np.zeros((self.num_states, self.num_states), dtype=np.int64)
        np.add.at(matrix, (self.eff_a, self.eff_b), 1)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def block_self(self) -> np.ndarray:
        """The number of effective pairs ``(a, a)`` in block ``a``, shape
        ``(S,)`` ``int64``."""
        self_pairs = np.zeros(self.num_states, dtype=np.int64)
        np.add.at(self_pairs, self.eff_a, self.eff_same)
        self_pairs.setflags(write=False)
        return self_pairs

    @cached_property
    def block_pairs(self) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
        """For each initiator ``a``, its pairs in pair order as
        ``(b, [a = b], pair_index)`` tuples of Python ints."""
        blocks = [[] for _ in range(self.num_states)]
        for pair, (a, b, same) in enumerate(
            zip(self.eff_a.tolist(), self.eff_b.tolist(), self.eff_same.tolist())
        ):
            blocks[a].append((b, same, pair))
        return tuple(map(tuple, blocks))

    @cached_property
    def pair_count_change(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """For each pair, its nonzero entries of ``eff_delta`` as
        ``(state, change)`` tuples."""
        return _nonzero_rows(self.eff_delta)

    @cached_property
    def pair_partner_change(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """For each pair, the nonzero entries of ``M @ eff_delta[pair]``,
        the change it makes to ``R`` and so to ``partners``, as
        ``(initiator, change)`` tuples."""
        return _nonzero_rows(self.eff_delta @ self.responder_matrix.T)

    @classmethod
    def from_table(cls, table, n: int) -> "KernelInputs":
        """Build the struct from a compiled transition table and ``n``."""
        pairs = table.effective_pairs
        eff_a = np.array([a for a, _ in pairs], dtype=np.int64)
        eff_b = np.array([b for _, b in pairs], dtype=np.int64)
        eff_same = (eff_a == eff_b).astype(np.int64)
        rows = eff_a * table.num_states + eff_b
        eff_delta = table.delta_matrix[rows]
        return cls(
            eff_a=eff_a,
            eff_b=eff_b,
            eff_same=eff_same,
            eff_delta=eff_delta,
            pair_denominator=float(n) * float(n - 1),
            num_states=int(table.num_states),
            n=int(n),
        )


def _nonzero_rows(matrix: np.ndarray) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Each row's nonzero entries as ``(column, value)`` Python-int tuples."""
    rows, columns = np.nonzero(matrix)
    grouped = [[] for _ in range(matrix.shape[0])]
    for row, column, value in zip(
        rows.tolist(), columns.tolist(), matrix[rows, columns].tolist()
    ):
        grouped[row].append((column, value))
    return tuple(map(tuple, grouped))


@dataclass(frozen=True)
class EpochInputs:
    """Immutable inputs of the collision-free epoch kernel.

    Attributes
    ----------
    pairs:
        The :class:`KernelInputs` of the same protocol and ``n``: the
        epoch kernel weighs the effective pairs with it, and the engine
        hands it to ``counts_step`` near absorption.
    post_states:
        Post-interaction states of the ordered pair ``(a, b)`` at flat
        index ``a * S + b``: the initiator's in row 0, the responder's
        in row 1, shape ``(2, S²)`` ``int64``.
    effective:
        ``True`` at the flat index of every non-null ordered pair.
    delta:
        Net count change of the ordered pair at each flat index, shape
        ``(S², S)`` ``int64`` (the colliding interaction applies one row).
    epoch_table:
        ``epoch_table[m] = −log P(ℓ ≥ m)`` for ``m = 0 .. M``, as a tuple
        of floats, where ℓ is the number of pairwise-disjoint
        interactions before the first one that touches an agent already
        touched (see :data:`EPOCH_TABLE_ROOTS` for ``M``).
        Non-decreasing, with ``epoch_table[0] = epoch_table[1] = 0``.
    expected_epoch:
        ``E[min(ℓ, M)]``, about ``0.63 · √n`` interactions.
    """

    pairs: KernelInputs
    post_states: np.ndarray
    effective: np.ndarray
    delta: np.ndarray
    epoch_table: Tuple[float, ...]
    expected_epoch: float

    def __post_init__(self) -> None:
        for name, dtype in (
            ("post_states", np.int64),
            ("effective", np.bool_),
            ("delta", np.int64),
        ):
            array = np.array(getattr(self, name), dtype=dtype, order="C")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        # the kernel bisects it once per epoch, faster on a tuple of
        # Python floats than ``searchsorted`` on an array
        epoch_table = np.asarray(self.epoch_table, dtype=np.float64)
        object.__setattr__(self, "epoch_table", tuple(epoch_table.tolist()))

    @classmethod
    def from_table(cls, table, n: int) -> "EpochInputs":
        """Build the struct from a compiled transition table and ``n``."""
        longest = min(n // 2, EPOCH_TABLE_ROOTS * (math.isqrt(n) + 1))
        # P(interaction i + 1 is disjoint from the first i) is
        # (n − 2i)(n − 2i − 1) / (n (n − 1)) for 0-based i
        i = np.arange(longest, dtype=np.float64)
        log_disjoint = np.log1p(-2.0 * i / n) + np.log1p(-2.0 * i / (n - 1))
        epoch_table = np.concatenate(([0.0], -np.cumsum(log_disjoint)))
        return cls(
            pairs=KernelInputs.from_table(table, n),
            post_states=np.stack(
                (table.out_initiator.ravel(), table.out_responder.ravel())
            ),
            effective=~table.null_mask.ravel(),
            delta=table.delta_matrix,
            epoch_table=epoch_table,
            expected_epoch=float(np.exp(-epoch_table[1:]).sum()),
        )
