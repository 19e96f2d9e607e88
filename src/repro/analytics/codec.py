"""The columnar trace codec: one streamed run as record batches.

A *columnar trace* renders a run's snapshot chunks into an
append-friendly columnar file — one record batch (arrow) / row group
(parquet) per source chunk, so writers stream chunk-at-a-time exactly
like the npz spill path and readers can scan without materializing the
run.  Row layout::

    time       int64    snapshot interaction index
    undecided  int64    count of the undecided state (nullable when the
                        protocol has none)
    counts     list<int64>  the full state-count vector

plus the run's identity — ``run_key``, ``spec_hash``, ``protocol``,
``n``, ``seed``, ``engine``, ``backend`` — carried *both* as constant
columns (so a multi-file dataset scan can filter/group without touching
sidecars) and as schema metadata (``repro_run`` JSON, the round-trip
carrier).

Three formats share the contract:

* ``arrow`` / ``parquet`` — the fleet-scale formats, gated on
  ``pyarrow`` (see :mod:`repro.analytics.gate`);
* ``npz`` — the always-available NumPy reference codec the columnar
  formats must round-trip identically to (and the dataset layer's
  fallback fragment format).

Round-trip contract: :func:`read_columnar` returns ``times``/``counts``
``int64`` arrays bit-identical to what
:meth:`~repro.io.streaming.StreamedTrace.materialize` produces for the
same run — the property the test suite and the CI ``analytics`` leg
pin down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from ..errors import SerializationError, SpecError
from .gate import require_pyarrow

__all__ = [
    "COLUMNAR_FORMATS",
    "FRAGMENT_FORMATS",
    "IDENTITY_FIELDS",
    "TRACE_EXPORT_FORMATS",
    "check_format",
    "format_suffix",
    "read_columnar",
    "run_identity",
    "write_columnar",
]

PathLike = Union[str, Path]

#: Formats ``repro trace export --format`` accepts (npz = the PR-4
#: single-file Trace export, unchanged).
TRACE_EXPORT_FORMATS = ("npz", "arrow", "parquet")

#: Formats a dataset's fragments may use.
FRAGMENT_FORMATS = ("parquet", "arrow", "npz")

#: The pyarrow-gated subset.
COLUMNAR_FORMATS = ("arrow", "parquet")

#: Run-identity fields carried as constant columns and metadata.
IDENTITY_FIELDS = (
    "run_key",
    "spec_hash",
    "protocol",
    "n",
    "seed",
    "engine",
    "backend",
)

_SUFFIXES = {"npz": ".npz", "arrow": ".arrow", "parquet": ".parquet"}

#: Schema-metadata key holding the run-identity + provenance JSON.
_META_KEY = b"repro_run"


def check_format(
    fmt: Any,
    allowed: Tuple[str, ...] = TRACE_EXPORT_FORMATS,
    *,
    what: str = "trace export format",
) -> str:
    """Validate a format name; unknown names raise a listing error.

    The error is a :class:`~repro.errors.SpecError` naming every
    supported format — never an opaque stack trace from whatever layer
    first chokes on the bad name.
    """
    if fmt in allowed:
        return str(fmt)
    raise SpecError(
        f"unknown {what} {fmt!r}; supported formats: "
        + ", ".join(repr(name) for name in allowed)
    )


def format_suffix(fmt: str) -> str:
    """Canonical file suffix of a fragment format."""
    return _SUFFIXES[check_format(fmt, FRAGMENT_FORMATS, what="fragment format")]


def run_identity(run_info: Dict[str, Any], *, run_key: str) -> Dict[str, Any]:
    """The identity record a columnar file carries for one run."""
    n = run_info.get("n")
    seed = run_info.get("seed")
    return {
        "run_key": str(run_key),
        "spec_hash": run_info.get("spec_hash"),
        "protocol": str(run_info.get("protocol", "unknown")),
        "n": None if n is None else int(n),
        "seed": int(seed) if isinstance(seed, int) else None,
        "engine": run_info.get("engine"),
        "backend": run_info.get("backend"),
    }


def _meta_payload(
    identity: Dict[str, Any],
    run_info: Dict[str, Any],
    undecided_index: Optional[int],
) -> Dict[str, Any]:
    return {
        "format_version": 1,
        "identity": identity,
        "undecided_index": undecided_index,
        "state_names": run_info.get("state_names"),
        "summary": run_info.get("summary"),
    }


def _check_chunk(times: np.ndarray, counts: np.ndarray) -> None:
    if times.ndim != 1 or counts.ndim != 2 or times.shape[0] != counts.shape[0]:
        raise SerializationError("columnar chunk arrays have inconsistent shapes")


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def write_columnar(
    dest: PathLike,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    *,
    identity: Dict[str, Any],
    run_info: Optional[Dict[str, Any]] = None,
    undecided_index: Optional[int] = None,
    format: str = "parquet",
) -> int:
    """Stream snapshot chunks into one columnar file; returns rows written.

    ``chunks`` yields ``(times, counts)`` int64 arrays (the shape the
    npz spill chunks already have); each becomes one record batch /
    row group, so the writer never holds more than a chunk.  ``npz``
    concatenates instead (it is the single-array reference format).
    """
    fmt = check_format(format, FRAGMENT_FORMATS, what="columnar format")
    run_info = run_info or {}
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    meta = _meta_payload(identity, run_info, undecided_index)
    if fmt == "npz":
        return _write_npz(dest, chunks, meta, undecided_index)
    pa = require_pyarrow(f"writing {fmt!r} columnar traces")
    schema = _schema(pa, meta)
    rows = 0
    if fmt == "arrow":
        with pa.OSFile(str(dest), "wb") as sink:
            with pa.ipc.new_file(sink, schema) as writer:
                for times, counts in chunks:
                    batch = _batch(pa, schema, times, counts, identity, undecided_index)
                    writer.write_batch(batch)
                    rows += batch.num_rows
        return rows
    from pyarrow import parquet as pq

    with pq.ParquetWriter(str(dest), schema) as writer:
        for times, counts in chunks:
            batch = _batch(pa, schema, times, counts, identity, undecided_index)
            writer.write_table(pa.Table.from_batches([batch], schema=schema))
            rows += batch.num_rows
    return rows


def _write_npz(
    dest: Path,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    meta: Dict[str, Any],
    undecided_index: Optional[int],
) -> int:
    times_parts, counts_parts = [], []
    for times, counts in chunks:
        times = np.asarray(times, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        _check_chunk(times, counts)
        times_parts.append(times)
        counts_parts.append(counts)
    if times_parts:
        all_times = np.concatenate(times_parts)
        all_counts = np.vstack(counts_parts)
    else:
        all_times = np.empty(0, dtype=np.int64)
        all_counts = np.empty((0, 0), dtype=np.int64)
    arrays = {"times": all_times, "counts": all_counts}
    if undecided_index is not None and all_counts.shape[1] > undecided_index:
        arrays["undecided"] = all_counts[:, undecided_index]
    arrays["meta"] = np.asarray(json.dumps(meta, sort_keys=True))
    with open(dest, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return int(all_times.shape[0])


def _schema(pa: Any, meta: Dict[str, Any]) -> Any:
    return pa.schema(
        [
            pa.field("time", pa.int64()),
            pa.field("undecided", pa.int64()),
            pa.field("counts", pa.list_(pa.int64())),
            pa.field("run_key", pa.string()),
            pa.field("spec_hash", pa.string()),
            pa.field("protocol", pa.string()),
            pa.field("n", pa.int64()),
            pa.field("seed", pa.int64()),
            pa.field("engine", pa.string()),
            pa.field("backend", pa.string()),
        ],
        metadata={_META_KEY: json.dumps(meta, sort_keys=True).encode("utf-8")},
    )


def _batch(
    pa: Any,
    schema: Any,
    times: np.ndarray,
    counts: np.ndarray,
    identity: Dict[str, Any],
    undecided_index: Optional[int],
) -> Any:
    times = np.asarray(times, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    _check_chunk(times, counts)
    rows = times.shape[0]
    if undecided_index is not None and counts.shape[1] > undecided_index:
        undecided = pa.array(counts[:, undecided_index])
    else:
        undecided = pa.nulls(rows, pa.int64())
    counts_column = pa.FixedSizeListArray.from_arrays(
        pa.array(counts.reshape(-1)), counts.shape[1]
    ).cast(pa.list_(pa.int64()))

    def constant(name: str, arrow_type: Any) -> Any:
        value = identity.get(name)
        if value is None:
            return pa.nulls(rows, arrow_type)
        return pa.array([value] * rows, type=arrow_type)

    return pa.RecordBatch.from_arrays(
        [
            pa.array(times),
            undecided,
            counts_column,
            constant("run_key", pa.string()),
            constant("spec_hash", pa.string()),
            constant("protocol", pa.string()),
            constant("n", pa.int64()),
            constant("seed", pa.int64()),
            constant("engine", pa.string()),
            constant("backend", pa.string()),
        ],
        schema=schema,
    )


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def infer_format(path: PathLike) -> str:
    """Fragment format from a file suffix (the codec's own naming)."""
    suffix = Path(path).suffix
    for fmt, known in _SUFFIXES.items():
        if suffix == known:
            return fmt
    raise SpecError(
        f"cannot infer a columnar format from {str(path)!r}; supported "
        "suffixes: " + ", ".join(sorted(_SUFFIXES.values()))
    )


def read_columnar(
    path: PathLike,
    *,
    format: Optional[str] = None,
    columns: Optional[Tuple[str, ...]] = None,
) -> Dict[str, Any]:
    """Read one columnar trace file back into NumPy arrays.

    Returns ``{"times", "counts", "undecided", "meta"}`` — ``times``
    and ``counts`` are ``int64`` arrays bit-identical to the source
    run's materialized trace; ``counts`` is ``None`` when ``columns``
    pruned it away.  ``columns`` limits what is decoded (``("time",
    "undecided")`` is the envelope scan's projection; npz always
    decodes what it stored).
    """
    fmt = check_format(
        format if format is not None else infer_format(path),
        FRAGMENT_FORMATS,
        what="columnar format",
    )
    path = Path(path)
    try:
        if fmt == "npz":
            return _read_npz(path)
        return _read_arrow_like(path, fmt, columns)
    except (SerializationError, SpecError):
        raise
    except Exception as exc:  # noqa: BLE001 — torn files become one error type
        raise SerializationError(
            f"could not read columnar trace {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _read_npz(path: Path) -> Dict[str, Any]:
    with np.load(path, allow_pickle=False) as archive:
        times = archive["times"].astype(np.int64)
        counts = archive["counts"].astype(np.int64)
        undecided = (
            archive["undecided"].astype(np.int64)
            if "undecided" in archive.files
            else None
        )
        meta = json.loads(str(archive["meta"]))
    _check_chunk(times, counts)
    return {"times": times, "counts": counts, "undecided": undecided, "meta": meta}


def _read_arrow_like(
    path: Path, fmt: str, columns: Optional[Tuple[str, ...]]
) -> Dict[str, Any]:
    pa = require_pyarrow(f"reading {fmt!r} columnar traces")
    if fmt == "arrow":
        with pa.memory_map(str(path), "r") as source:
            table = pa.ipc.open_file(source).read_all()
        if columns is not None:
            table = table.select([c for c in columns if c in table.column_names])
    else:
        from pyarrow import parquet as pq

        table = pq.read_table(str(path), columns=list(columns) if columns else None)
    meta_bytes = (table.schema.metadata or {}).get(_META_KEY)
    meta = json.loads(meta_bytes.decode("utf-8")) if meta_bytes else {}
    times = (
        table.column("time").to_numpy().astype(np.int64)
        if "time" in table.column_names
        else None
    )
    counts = None
    if "counts" in table.column_names:
        combined = table.column("counts").combine_chunks()
        flat = combined.flatten().to_numpy().astype(np.int64)
        if len(combined) == 0:
            counts = np.empty((0, 0), dtype=np.int64)
        else:
            offsets = np.asarray(combined.offsets)
            widths = np.diff(offsets)
            if widths.size and not np.all(widths == widths[0]):
                raise SerializationError(
                    f"columnar trace {path} has ragged count vectors"
                )
            counts = flat.reshape(len(combined), int(widths[0]) if widths.size else 0)
    undecided = None
    if "undecided" in table.column_names:
        column = table.column("undecided")
        if column.null_count == 0:
            undecided = column.to_numpy().astype(np.int64)
    return {"times": times, "counts": counts, "undecided": undecided, "meta": meta}
