"""Streamed (spill-to-disk) trajectory persistence.

A *streamed trace* is a run directory written incrementally by
:class:`repro.core.persistent_recorder.PersistentTrajectoryRecorder`:

* ``manifest.json`` — run provenance (protocol, n, seed, backend,
  snapshot cadence, chunk size), the chunk index, and a ``complete``
  flag that only flips to true on a clean close;
* ``chunk-00000.npz``, ``chunk-00001.npz``, ... — consecutive snapshot
  chunks, each holding ``times`` (T,) and ``counts`` (T, S) ``int64``
  arrays.  :func:`write_npz` stores ``counts`` column-major (one state's
  slowly moving count after another, which deflates as long runs);
  :func:`load_chunk` returns C-ordered arrays whatever order a chunk
  was stored in, so the row-major chunks of older versions read the
  same.  Every npz reader opens its file through :func:`read_npz`,
  which closes it even when the archive is torn.

Both files are written atomically (temp file + ``os.replace``), so any
chunk present on disk is complete even after a hard kill — the
crash-safety contract the CI ``persistence`` leg enforces: a killed run
leaves ``complete: false`` in the manifest and every chunk loadable.

:class:`StreamedTrace` is the lazy reader: it iterates chunks on
demand, supports ``[start:stop:step]`` snapshot slicing (``step`` is
downsampling) and interaction-time windows, and
:meth:`StreamedTrace.materialize` rebuilds an ordinary
:class:`~repro.core.recorder.Trace` that is bit-identical to what the
in-memory recorder would have produced for the same run.
"""

from __future__ import annotations

import json
import re
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.recorder import Trace
from ..errors import SerializationError
from .atomic import atomic_write

__all__ = [
    "MANIFEST_NAME",
    "StreamedTrace",
    "chunk_filename",
    "find_persisted_by_hash",
    "iter_persisted_manifests",
    "load_chunk",
    "load_chunk_times",
    "load_manifest",
    "read_npz",
    "write_chunk",
    "write_manifest",
    "write_npz",
]

PathLike = Union[str, Path]

#: Name of the manifest file inside a run directory.
MANIFEST_NAME = "manifest.json"

#: Streamed-trace format version, bumped on incompatible layout changes.
FORMAT_VERSION = 1

#: zlib level of every npz member this package writes.  On 17 snapshot
#: chunks of four USD run shapes (k = 3 to 27, up to 4096 x 28 int64;
#: numpy 2.4, zlib 1.2.13, one Xeon core), numpy's fixed level 6 took
#: 324 ms for 1223 KB and level 1 took 86 ms for 1444 KB, row-major both.
NPZ_DEFLATE_LEVEL = 1

#: Memory order every 2-D npz member is stored in.  A state's count
#: moves little from one snapshot to the next, so a column deflates as
#: long runs; a row interleaves the states' small ints and their zero
#: high bytes.  At level 1 on the same chunks, column-major took 77 ms
#: for 1067 KB: a quarter of level 6's CPU, and 13 % fewer bytes.
NPZ_MATRIX_ORDER = "F"

_CHUNK_PATTERN = re.compile(r"^chunk-(\d{5,})\.npz$")


def write_npz(file: Union[PathLike, IO[bytes]], arrays: Mapping[str, Any]) -> None:
    """Write ``arrays`` as an npz archive that ``np.load`` reads.

    One deflated ``<name>.npy`` member per array, laid out as numpy's
    own compressed npz writer lays them out, but at
    :data:`NPZ_DEFLATE_LEVEL` and with every 2-D array stored in
    :data:`NPZ_MATRIX_ORDER`.  0-d and 1-d arrays are written as
    given.  ``file`` is a path (written as named: no ``.npz`` is
    appended) or an open binary handle.
    """
    with zipfile.ZipFile(
        file, "w", zipfile.ZIP_DEFLATED, compresslevel=NPZ_DEFLATE_LEVEL
    ) as archive:
        for name, value in arrays.items():
            value = np.asanyarray(value)
            if value.ndim == 2:
                value = np.asarray(value, order=NPZ_MATRIX_ORDER)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.save(member, value, allow_pickle=False)


@contextmanager
def read_npz(path: PathLike) -> Iterator[Any]:
    """Open the npz archive at ``path`` for reading, pickles refused.

    The file is opened here and its handle handed to ``np.load``, so it
    closes even when the archive is torn: given a path, ``np.load``
    leaks the file it opened if the archive cannot be read.
    """
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
        yield archive


def chunk_filename(index: int) -> str:
    """File name of chunk ``index`` (zero-padded for lexicographic order)."""
    if index < 0:
        raise SerializationError(f"chunk index must be non-negative, got {index}")
    return f"chunk-{index:05d}.npz"


def write_chunk(
    directory: PathLike, index: int, times: np.ndarray, counts: np.ndarray
) -> Path:
    """Atomically write one snapshot chunk; returns the chunk path."""
    directory = Path(directory)
    times = np.asarray(times, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if times.ndim != 1 or counts.ndim != 2 or times.shape[0] != counts.shape[0]:
        raise SerializationError("chunk arrays have inconsistent shapes")
    if times.shape[0] == 0:
        raise SerializationError("refusing to write an empty chunk")
    path = directory / chunk_filename(index)
    try:
        atomic_write(
            path, lambda handle: write_npz(handle, {"times": times, "counts": counts})
        )
    except OSError as exc:
        raise SerializationError(f"could not write chunk to {path}: {exc}") from exc
    return path


def load_chunk(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read one chunk back as C-ordered ``(times, counts)`` ``int64`` arrays."""
    path = Path(path)
    try:
        with read_npz(path) as archive:
            times = np.ascontiguousarray(archive["times"], dtype=np.int64)
            counts = np.ascontiguousarray(archive["counts"], dtype=np.int64)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise SerializationError(f"could not read chunk {path}: {exc}") from exc
    if times.ndim != 1 or counts.ndim != 2 or times.shape[0] != counts.shape[0]:
        raise SerializationError(f"chunk {path} has inconsistent shapes")
    return times, counts


def load_chunk_times(path: PathLike) -> np.ndarray:
    """Read only a chunk's ``times`` member (cheap: one int64 per snapshot)."""
    path = Path(path)
    try:
        with read_npz(path) as archive:
            return np.ascontiguousarray(archive["times"], dtype=np.int64)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise SerializationError(f"could not read chunk {path}: {exc}") from exc


def write_manifest(directory: PathLike, manifest: Dict[str, Any]) -> Path:
    """Atomically write the run manifest; returns its path."""
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    try:
        atomic_write(path, payload)
    except OSError as exc:
        raise SerializationError(f"could not write manifest to {path}: {exc}") from exc
    return path


def load_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read a run directory's manifest."""
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"could not read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or "format_version" not in manifest:
        raise SerializationError(f"{path} is not a streamed-trace manifest")
    version = manifest["format_version"]
    if not isinstance(version, int):
        raise SerializationError(
            f"manifest {path} has a non-integer format version {version!r}"
        )
    if version > FORMAT_VERSION:
        raise SerializationError(
            f"manifest {path} uses format version {version}; "
            f"this library reads up to {FORMAT_VERSION}"
        )
    return manifest


def _record_scan_skip(directory: Path, reason: str, on_skip) -> None:
    """Record (never raise) one unreadable manifest during a scan."""
    from ..obs import metrics as obs_metrics
    from ..obs.runtime import emit as obs_emit

    obs_metrics.REGISTRY.inc("persist_scan_skipped_total")
    obs_emit("persist.scan_skip", path=str(directory), reason=reason)
    if on_skip is not None:
        on_skip(directory, reason)


def iter_persisted_manifests(
    root: PathLike, *, on_skip=None
) -> Iterator[Tuple[Path, Dict[str, Any]]]:
    """Yield ``(run_dir, manifest)`` for every streamed run under ``root``.

    Walks ``root`` (which may itself be a run directory) breadth-first
    with sorted children, so the scan order — and therefore which of
    several equally matching runs a caller picks — is deterministic.

    A directory whose manifest is corrupt, torn mid-write, or foreign
    is *skipped with a recorded reason* instead of aborting the scan:
    the ``persist_scan_skipped_total`` counter increments, a
    ``persist.scan_skip`` journal event carries the path and reason,
    and ``on_skip(directory, reason)`` is invoked when given.  A result
    store rebuilding over thousands of run directories must report what
    it could not read, not die on the first bad file.
    """
    root = Path(root)
    if not root.is_dir():
        return
    pending: List[Path] = [root]
    while pending:
        directory = pending.pop(0)
        try:
            pending.extend(
                sorted(child for child in directory.iterdir() if child.is_dir())
            )
        except OSError as exc:
            _record_scan_skip(directory, f"unreadable directory: {exc}", on_skip)
            continue
        if not (directory / MANIFEST_NAME).is_file():
            continue
        try:
            manifest = load_manifest(directory)
        except SerializationError as exc:
            _record_scan_skip(directory, str(exc), on_skip)
            continue
        if not isinstance(manifest.get("run_info", {}), dict):
            _record_scan_skip(
                directory, "manifest run_info is not an object", on_skip
            )
            continue
        yield directory, manifest


def find_persisted_by_hash(root: PathLike, spec_hash: str) -> Optional[Path]:
    """First *complete* streamed run under ``root`` recording ``spec_hash``.

    The spec runner's persistence resume asks it whether this exact run
    has already been computed.  Only manifests marked complete and
    carrying a post-run summary qualify — a crashed or in-flight stream
    never answers for a finished run.  A manifest without a recorded
    ``spec_hash`` (a keyword run that could not normalise, a pre-hash
    run directory) never answers either; it still loads through
    :class:`StreamedTrace`.  Returns the run directory, or ``None``;
    unreadable manifests are skipped with a recorded reason (see
    :func:`iter_persisted_manifests`).
    """
    for directory, manifest in iter_persisted_manifests(root):
        if not manifest.get("complete") or manifest.get("summary") is None:
            continue
        if manifest.get("run_info", {}).get("spec_hash") == spec_hash:
            return directory
    return None


def _discover_chunks(directory: Path) -> List[Path]:
    """Chunk files on disk, validated to be contiguous from index 0.

    Trusting the directory listing (not the manifest's chunk count)
    means a run killed between a chunk write and its manifest update
    still exposes every complete chunk.
    """
    indexed = []
    for path in directory.iterdir():
        match = _CHUNK_PATTERN.match(path.name)
        if match:
            indexed.append((int(match.group(1)), path))
    indexed.sort()
    for position, (index, path) in enumerate(indexed):
        if index != position:
            raise SerializationError(
                f"streamed trace {directory} has non-contiguous chunks: "
                f"expected index {position}, found {path.name}"
            )
    return [path for _, path in indexed]


class StreamedTrace:
    """Lazy reader over a spill-to-disk run directory.

    Chunks are loaded on demand (one at a time), so arbitrarily long
    runs can be sliced and summarised without ever holding the full
    trajectory in memory.  Snapshot *times* (one ``int64`` per
    snapshot) are loaded eagerly — they are the index that makes
    time-windowing cheap — while the (T, S) counts stay on disk.
    """

    def __init__(self, directory: PathLike):
        self._directory = Path(directory)
        if not self._directory.is_dir():
            raise SerializationError(
                f"streamed trace directory {self._directory} does not exist"
            )
        self._manifest = load_manifest(self._directory)
        self._chunks = _discover_chunks(self._directory)
        self._lengths: List[int] = []
        self._times_parts: List[np.ndarray] = []
        for path in self._chunks:
            times = load_chunk_times(path)
            self._lengths.append(int(times.shape[0]))
            self._times_parts.append(times)
        self._offsets = np.concatenate([[0], np.cumsum(self._lengths)]).astype(int)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def directory(self) -> Path:
        """The run directory this trace reads from."""
        return self._directory

    @property
    def manifest(self) -> Dict[str, Any]:
        """The parsed manifest (a copy; mutate freely)."""
        return dict(self._manifest)

    @property
    def complete(self) -> bool:
        """Whether the writing run closed cleanly."""
        return bool(self._manifest.get("complete", False))

    @property
    def run_info(self) -> Dict[str, Any]:
        """Provenance recorded at run start (protocol, n, seed, ...)."""
        return dict(self._manifest.get("run_info", {}))

    @property
    def summary(self) -> Optional[Dict[str, Any]]:
        """Post-run summary (winner, stabilization), if one was recorded."""
        summary = self._manifest.get("summary")
        return dict(summary) if summary is not None else None

    @property
    def n(self) -> Optional[int]:
        """Population size, when the writer recorded it."""
        n = self.run_info.get("n")
        return None if n is None else int(n)

    @property
    def protocol_name(self) -> str:
        """Name of the protocol that generated the stream."""
        return str(self.run_info.get("protocol", "unknown"))

    @property
    def state_names(self) -> Optional[Tuple[str, ...]]:
        """Names of the states, when the writer recorded them."""
        names = self.run_info.get("state_names")
        return None if names is None else tuple(names)

    @property
    def undecided_index(self) -> Optional[int]:
        """Index of the undecided state, or ``None``."""
        index = self.run_info.get("undecided_index")
        return None if index is None else int(index)

    @property
    def num_chunks(self) -> int:
        """Number of complete chunks on disk."""
        return len(self._chunks)

    def __len__(self) -> int:
        """Total snapshots across all complete chunks."""
        return int(self._offsets[-1])

    @property
    def times(self) -> np.ndarray:
        """All snapshot interaction indices (small: one int64 each)."""
        if not self._times_parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._times_parts)

    # ------------------------------------------------------------------
    # Lazy access
    # ------------------------------------------------------------------

    def iter_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(times, counts)`` per chunk, loading one at a time."""
        for path in self._chunks:
            yield load_chunk(path)

    def _trace_metadata(self) -> Dict[str, Any]:
        info = self.run_info
        return dict(info.get("metadata", {}))

    def _build(self, times: np.ndarray, counts: np.ndarray) -> Trace:
        # streams written without run_info (bare recorder use) still
        # materialize: fall back to what the arrays themselves say
        n = self.n
        if n is None:
            n = int(counts[-1].sum()) or 1
        state_names = self.state_names
        if state_names is None:
            state_names = tuple(f"s{i}" for i in range(counts.shape[1]))
        return Trace(
            times=times,
            counts=counts,
            n=n,
            state_names=state_names,
            protocol_name=self.protocol_name,
            undecided_index=self.undecided_index,
            metadata=self._trace_metadata(),
        )

    def __getitem__(self, item: slice) -> Trace:
        """Materialize a snapshot-index slice (``step`` = downsampling).

        Only the chunks overlapping the slice are loaded, one at a
        time, so ``stream[-1000:]`` of a billion-snapshot run touches a
        handful of files.
        """
        if not isinstance(item, slice):
            raise SerializationError(
                "StreamedTrace supports slice indexing only; use "
                "materialize() for the full trace"
            )
        if item.step is not None and item.step <= 0:
            raise SerializationError("slice step must be positive")
        total = len(self)
        start, stop, step = item.indices(total)
        wanted = np.arange(start, stop, step)
        times_parts: List[np.ndarray] = []
        counts_parts: List[np.ndarray] = []
        for chunk_index in range(self.num_chunks):
            lo, hi = self._offsets[chunk_index], self._offsets[chunk_index + 1]
            # wanted is sorted, so the chunk's share is a contiguous
            # run — binary search keeps full materialization linear in
            # the selected snapshots instead of O(snapshots × chunks)
            first = int(np.searchsorted(wanted, lo, side="left"))
            last = int(np.searchsorted(wanted, hi, side="left"))
            if first == last:
                continue
            local = wanted[first:last] - lo
            times, counts = load_chunk(self._chunks[chunk_index])
            times_parts.append(times[local])
            counts_parts.append(counts[local])
        if not times_parts:
            raise SerializationError("slice selects zero snapshots")
        return self._build(np.concatenate(times_parts), np.vstack(counts_parts))

    def time_slice(
        self, start_time: float, end_time: float, *, every: int = 1
    ) -> Trace:
        """Materialize snapshots with interaction time in the window.

        The window is inclusive on both ends, matching
        :meth:`~repro.core.recorder.Trace.slice`; ``every`` keeps every
        ``every``-th snapshot of the window (downsampling).
        """
        if every < 1:
            raise SerializationError(f"every must be >= 1, got {every}")
        times = self.times
        indices = np.flatnonzero((times >= start_time) & (times <= end_time))
        if indices.size == 0:
            raise SerializationError(
                f"no snapshots in time window [{start_time}, {end_time}]"
            )
        return self[int(indices[0]) : int(indices[-1]) + 1 : every]

    def materialize(self) -> Trace:
        """Rebuild the full in-memory :class:`Trace`.

        Bit-identical to the trace the in-memory recorder would have
        produced for the same run (same snapshot times and counts, same
        dtypes) — the property the round-trip test suite pins down.
        """
        return self[:]

    def __repr__(self) -> str:
        status = "complete" if self.complete else "INCOMPLETE"
        return (
            f"StreamedTrace({str(self._directory)!r}, snapshots={len(self)}, "
            f"chunks={self.num_chunks}, {status})"
        )
