"""Trajectory recording.

A :class:`TrajectoryRecorder` is handed to an engine's ``run`` loop and
snapshots ``(interaction index, state counts)`` at the loop's cadence;
:meth:`TrajectoryRecorder.build` freezes the result into an immutable
:class:`Trace` used by all analysis and plotting code.

Traces store *state* counts (the engine's native representation).  For
opinion-structured protocols — anything deriving from
:class:`repro.core.protocol.OpinionProtocol` with the standard
``[⊥, opinion 1..k]`` layout, like USD — the convenience accessors
:meth:`Trace.undecided_series` and :meth:`Trace.opinion_series` slice
out the paper's quantities directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..types import SupportsCounts

__all__ = ["Trace", "TrajectoryRecorder"]


@dataclass(frozen=True)
class Trace:
    """An immutable recorded trajectory.

    Attributes
    ----------
    times:
        Interaction indices of the snapshots, shape ``(T,)``.
    counts:
        State counts per snapshot, shape ``(T, S)``.
    n:
        Population size.
    state_names:
        Names of the ``S`` states, in count-vector order.
    protocol_name:
        Name of the protocol that generated the trace.
    undecided_index:
        Index of the undecided state within the count vector, or
        ``None`` when the protocol has no undecided state.
    metadata:
        Free-form provenance (seed, engine, workload parameters, ...).
    """

    times: np.ndarray
    counts: np.ndarray
    n: int
    state_names: Tuple[str, ...]
    protocol_name: str
    undecided_index: Optional[int] = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.counts.ndim != 2:
            raise SimulationError("trace arrays have wrong dimensionality")
        if self.times.shape[0] != self.counts.shape[0]:
            raise SimulationError("trace times and counts disagree in length")
        if np.any(np.diff(self.times) < 0):
            raise SimulationError("trace times must be non-decreasing")
        self.times.setflags(write=False)
        self.counts.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def num_states(self) -> int:
        """Number of states per snapshot."""
        return int(self.counts.shape[1])

    @property
    def parallel_times(self) -> np.ndarray:
        """Snapshot times divided by ``n`` — the paper's x-axis."""
        return self.times / self.n

    def undecided_series(self) -> np.ndarray:
        """The paper's ``u(t)`` over the snapshots."""
        if self.undecided_index is None:
            raise SimulationError(
                f"trace of {self.protocol_name!r} has no undecided state"
            )
        return self.counts[:, self.undecided_index]

    def opinion_series(self, opinion: int) -> np.ndarray:
        """The paper's ``x_i(t)`` for 1-based opinion ``i``.

        Assumes the standard opinion layout: opinions occupy the count
        vector after the undecided state (or from index 0 when there is
        no undecided state).
        """
        offset = 0 if self.undecided_index is None else self.undecided_index + 1
        k = self.num_states - offset
        if not 1 <= opinion <= k:
            raise SimulationError(f"opinion must be in 1..{k}, got {opinion}")
        return self.counts[:, offset + opinion - 1]

    def opinion_matrix(self) -> np.ndarray:
        """All opinion series as a ``(T, k)`` matrix."""
        offset = 0 if self.undecided_index is None else self.undecided_index + 1
        return self.counts[:, offset:]

    def final_counts(self) -> np.ndarray:
        """State counts at the last snapshot (a copy)."""
        return self.counts[-1].copy()

    def slice(self, start_time: float, end_time: float) -> "Trace":
        """Sub-trace with interaction times in ``[start_time, end_time]``."""
        mask = (self.times >= start_time) & (self.times <= end_time)
        return Trace(
            times=self.times[mask].copy(),
            counts=self.counts[mask].copy(),
            n=self.n,
            state_names=self.state_names,
            protocol_name=self.protocol_name,
            undecided_index=self.undecided_index,
            metadata=dict(self.metadata),
        )


class TrajectoryRecorder:
    """Accumulates engine snapshots; freeze with :meth:`build`.

    Snapshots taken at the same interaction index as the previous one
    are dropped, so re-recording an absorbed engine does not bloat the
    trace.  The comparison is against the last *recorded* index, not
    the buffer tail, so it still holds in subclasses that empty the
    buffer mid-run (the spill-to-disk recorder).
    """

    def __init__(self) -> None:
        self._times: List[int] = []
        self._counts: List[np.ndarray] = []
        self._last_time: Optional[int] = None

    def __len__(self) -> int:
        return len(self._times)

    def record(self, engine: SupportsCounts) -> bool:
        """Snapshot the engine's current interaction index and counts.

        Returns whether the snapshot was kept (``False`` for a
        duplicate of the last recorded interaction index).
        """
        t = engine.interactions
        if t == self._last_time:
            return False
        self._last_time = t
        self._times.append(t)
        self._counts.append(np.array(engine.counts, dtype=np.int64))
        return True

    def build(
        self,
        *,
        n: int,
        state_names: Tuple[str, ...],
        protocol_name: str,
        undecided_index: Optional[int] = 0,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Trace:
        """Freeze the accumulated snapshots into a :class:`Trace`."""
        if not self._times:
            raise SimulationError("cannot build a trace from zero snapshots")
        return Trace(
            times=np.asarray(self._times, dtype=np.int64),
            counts=np.stack(self._counts).astype(np.int64),
            n=n,
            state_names=tuple(state_names),
            protocol_name=protocol_name,
            undecided_index=undecided_index,
            metadata=dict(metadata or {}),
        )
