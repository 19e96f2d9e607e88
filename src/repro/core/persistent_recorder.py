"""Spill-to-disk trajectory recording.

:class:`PersistentTrajectoryRecorder` is a
:class:`~repro.core.recorder.TrajectoryRecorder` that *spills* every
:attr:`chunk_snapshots` recorded snapshots to an ``.npz`` chunk file
under a run directory, clearing them from memory.  The spill happens
inside :meth:`record`, on the simulation thread, so memory stays
bounded at the chunk buffer plus a small tail window
(:attr:`window_snapshots`) retained so :meth:`build` can still hand the
caller an in-memory :class:`~repro.core.recorder.Trace` of the run's
end.

The on-disk layout (``manifest.json`` + ``chunk-*.npz``) is defined in
:mod:`repro.io.streaming`; read it back with
:class:`~repro.io.streaming.StreamedTrace`, whose ``materialize()`` is
bit-identical to the trace the in-memory recorder would have produced
for the same run.

Crash safety: the manifest is written with ``complete: false`` before
the first snapshot and flipped to true only in a clean :meth:`close`;
chunks and manifests are written atomically.  A run killed mid-flight
leaves an incomplete manifest and only whole chunks — the contract the
CI ``persistence`` leg kills a live process to enforce.  Snapshots
still in the in-memory buffer at kill time are lost; everything spilled
is not.
"""

from __future__ import annotations

import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..io.streaming import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    write_chunk,
    write_manifest,
)
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime
from ..types import SupportsCounts
from .recorder import Trace, TrajectoryRecorder

__all__ = [
    "DEFAULT_CHUNK_SNAPSHOTS",
    "DEFAULT_WINDOW_SNAPSHOTS",
    "PersistentTrajectoryRecorder",
]

#: Snapshots per chunk file (and the spill threshold) unless overridden.
DEFAULT_CHUNK_SNAPSHOTS = 4096

#: Tail snapshots kept in memory for :meth:`build` unless overridden.
DEFAULT_WINDOW_SNAPSHOTS = 256


class PersistentTrajectoryRecorder(TrajectoryRecorder):
    """A :class:`TrajectoryRecorder` that streams snapshots to disk.

    Parameters
    ----------
    directory:
        Run directory to stream into.  Created if missing; stale
        streamed-trace files from a previous run in the same directory
        are removed so the stream always describes one run.
    chunk_snapshots:
        Snapshots per chunk file; also the in-memory spill threshold.
    window_snapshots:
        Tail window retained in memory for :meth:`build` (the full
        trajectory lives on disk).
    run_info:
        Provenance stored in the manifest at open (protocol, n, seed,
        backend, snapshot cadence, ...).  Must be JSON-encodable.

    Use it as a context manager (or call :meth:`close`); the recorder
    stays readable (:meth:`build`) after closing but rejects further
    snapshots.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        chunk_snapshots: int = DEFAULT_CHUNK_SNAPSHOTS,
        window_snapshots: int = DEFAULT_WINDOW_SNAPSHOTS,
        run_info: Optional[Dict[str, Any]] = None,
    ) -> None:
        if chunk_snapshots < 1:
            raise SimulationError(
                f"chunk_snapshots must be >= 1, got {chunk_snapshots}"
            )
        if window_snapshots < 1:
            raise SimulationError(
                f"window_snapshots must be >= 1, got {window_snapshots}"
            )
        super().__init__()
        self._directory = Path(directory)
        self._chunk_snapshots = int(chunk_snapshots)
        self._window_snapshots = int(window_snapshots)
        self._run_info = dict(run_info or {})
        self._chunk_records: List[Dict[str, int]] = []
        self._window: Deque[Tuple[int, np.ndarray]] = deque(
            maxlen=self._window_snapshots
        )
        # serializes record() against close(): a snapshot racing close is
        # either spilled before the finalize or rejected, and concurrent
        # close() calls finalize exactly once
        self._lock = threading.Lock()
        self._closed = False
        self._abandoned = False
        self._prepare_directory()

    def _prepare_directory(self) -> None:
        self._directory.mkdir(parents=True, exist_ok=True)
        # remove stale stream files so chunk indices stay contiguous and
        # a reader can never mix two runs' snapshots
        for stale in self._directory.iterdir():
            if (
                stale.name == MANIFEST_NAME
                or stale.suffix == ".tmp"
                or (stale.name.startswith("chunk-") and stale.suffix == ".npz")
            ):
                stale.unlink()
        # the recorder owns all manifest state, so the manifest dict
        # lives in memory and every update is a single atomic write —
        # no read-modify-write against the disk on the spill hot path
        self._manifest: Dict[str, Any] = {
            "format_version": FORMAT_VERSION,
            "complete": False,
            "chunk_snapshots": self._chunk_snapshots,
            "window_snapshots": self._window_snapshots,
            "chunks": [],
            "num_snapshots": 0,
            "run_info": self._run_info,
        }
        write_manifest(self._directory, self._manifest)

    def _update_manifest(self, **fields: Any) -> None:
        """Sync chunk bookkeeping plus ``fields`` into the manifest file."""
        self._manifest["chunks"] = list(self._chunk_records)
        self._manifest["num_snapshots"] = self.spilled_snapshots
        self._manifest.update(fields)
        write_manifest(self._directory, self._manifest)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def directory(self) -> Path:
        """The run directory being streamed into."""
        return self._directory

    @property
    def chunk_snapshots(self) -> int:
        """Snapshots per chunk file (the in-memory spill threshold)."""
        return self._chunk_snapshots

    @property
    def window_snapshots(self) -> int:
        """Tail snapshots retained in memory for :meth:`build`."""
        return self._window_snapshots

    @property
    def spilled_snapshots(self) -> int:
        """Snapshots already written to chunk files."""
        return sum(record["snapshots"] for record in self._chunk_records)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, engine: SupportsCounts) -> bool:
        """Record a snapshot, spilling a chunk once the buffer is full."""
        with self._lock:
            if self._closed:
                raise SimulationError("cannot record on a closed recorder")
            if not super().record(engine):
                return False
            self._window.append((self._times[-1], self._counts[-1]))
            if len(self._times) >= self._chunk_snapshots:
                self._spill()
            return True

    def _spill(self) -> None:
        """Write the buffered snapshots as the next chunk and drop them."""
        if not self._times:
            return
        times = np.asarray(self._times, dtype=np.int64)
        # the int64 snapshots laid out column-major in one allocation,
        # the order the chunk is stored in
        counts = np.stack(self._counts, axis=1).T
        record = {
            "index": len(self._chunk_records),
            "snapshots": int(times.shape[0]),
            "first_time": int(times[0]),
            "last_time": int(times[-1]),
        }
        write_chunk(self._directory, record["index"], times, counts)
        self._chunk_records.append(record)
        self._times.clear()
        self._counts.clear()
        # keep the manifest's chunk index current so a killed run's
        # manifest still names every spilled chunk
        self._update_manifest()
        obs_metrics.REGISTRY.inc("spill_chunks_total")
        obs_runtime.emit(
            "recorder.spill",
            chunk=record["index"],
            snapshots=record["snapshots"],
            last_time=record["last_time"],
        )

    # ------------------------------------------------------------------
    # Close / finalize
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Spill the tail; mark the manifest complete unless abandoned.

        ``complete: true`` certifies that the stream describes a run
        that finished — an :meth:`abandon`-ed (aborted) run keeps its
        snapshots but stays incomplete, exactly like a killed one.
        Idempotent and thread-safe: the first call finalizes, later
        (or concurrent) calls return once it is done.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._spill()
            if not self._abandoned:
                self._update_manifest(complete=True)

    def abandon(self) -> None:
        """Close without certifying the stream (the run did not finish).

        Every recorded snapshot is still spilled — the data survives —
        but the manifest keeps ``complete: false``, so readers and
        resume guards treat the directory like a crashed run.  Used by
        :func:`repro.core.run.simulate` when the engine raises mid-run
        (including ``KeyboardInterrupt``).
        """
        self._abandoned = True
        self.close()

    def record_summary(self, summary: Dict[str, Any]) -> None:
        """Attach a post-run summary (winner, stabilization) to the manifest.

        Callable after :meth:`close`; :func:`repro.core.run.simulate`
        uses it so a resumed experiment can rebuild run outcomes from
        the manifest alone, without touching the chunks.
        """
        with self._lock:
            self._update_manifest(summary=dict(summary))

    def __enter__(self) -> "PersistentTrajectoryRecorder":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        # under the lock, a spill can never be seen half done (its
        # snapshots counted both spilled and buffered)
        with self._lock:
            return self.spilled_snapshots + len(self._times)

    def build(self, **kwargs: Any) -> Trace:
        """Freeze the *retained tail window* into a :class:`Trace`.

        The full trajectory lives on disk — read it back with
        :class:`~repro.io.streaming.StreamedTrace`.  The returned trace
        covers at most :attr:`window_snapshots` trailing snapshots
        (always including the final one), which is what summary
        statistics like the final configuration need.
        """
        with self._lock:
            window = list(self._window)
        if not window:
            raise SimulationError("cannot build a trace from zero snapshots")
        times = np.asarray([time for time, _ in window], dtype=np.int64)
        counts = np.stack([counts for _, counts in window]).astype(np.int64)
        metadata = dict(kwargs.pop("metadata", None) or {})
        metadata.setdefault("persist_dir", str(self._directory))
        metadata.setdefault("trace_window", "tail")
        return Trace(times=times, counts=counts, metadata=metadata, **kwargs)

    def __repr__(self) -> str:
        return (
            f"PersistentTrajectoryRecorder({str(self._directory)!r}, "
            f"chunk_snapshots={self._chunk_snapshots}, "
            f"window_snapshots={self._window_snapshots})"
        )
