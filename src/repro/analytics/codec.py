"""The npz trace codec: one streamed run as one columnar file.

A *columnar trace* renders a run's snapshot chunks into one npz
archive of named arrays, written by :func:`repro.io.streaming.write_npz`::

    times      int64 (T,)     snapshot interaction indices
    counts     int64 (T, S)   the full state-count vectors
    undecided  int64 (T,)     the undecided state's column (absent when
                              the protocol has none)
    meta       str            JSON: format version, the run identity
                              (``run_key``, ``spec_hash``, ``protocol``,
                              ``n``, ``seed``, ``engine``, ``backend``),
                              ``undecided_index``, state names, summary

npz is the only format.  Files an older version wrote as ``.arrow`` or
``.parquet`` raise an :class:`~repro.errors.AnalyticsError` naming the
npz re-export; they are never read as something else.

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

from ..errors import AnalyticsError, SerializationError
from ..io.streaming import read_npz, write_npz

__all__ = ["read_columnar", "run_identity", "write_columnar"]

PathLike = Union[str, Path]

#: Suffixes of the formats older versions wrote with pyarrow.
_RETIRED_SUFFIXES = (".arrow", ".parquet")


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


def _check_chunk(times: np.ndarray, counts: np.ndarray) -> None:
    if times.ndim != 1 or counts.ndim != 2 or times.shape[0] != counts.shape[0]:
        raise SerializationError("columnar chunk arrays have inconsistent shapes")


def write_columnar(
    dest: PathLike,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    *,
    identity: Dict[str, Any],
    run_info: Optional[Dict[str, Any]] = None,
    undecided_index: Optional[int] = None,
) -> int:
    """Write snapshot chunks into one npz file at ``dest``; returns rows.

    ``chunks`` yields ``(times, counts)`` int64 arrays (the shape the
    npz spill chunks already have); they are concatenated in order.
    """
    run_info = run_info or {}
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
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
    meta = {
        "format_version": 1,
        "identity": identity,
        "undecided_index": undecided_index,
        "state_names": run_info.get("state_names"),
        "summary": run_info.get("summary"),
    }
    arrays["meta"] = np.asarray(json.dumps(meta, sort_keys=True))
    write_npz(dest, arrays)
    return int(all_times.shape[0])


def read_columnar(path: PathLike) -> Dict[str, Any]:
    """Read one npz trace file back into NumPy arrays.

    Returns ``{"times", "counts", "undecided", "meta"}`` — ``times``
    and ``counts`` are ``int64`` arrays bit-identical to the source
    run's materialized trace; ``undecided`` is ``None`` when the
    protocol has no undecided state.  A ``.arrow`` or ``.parquet`` file
    raises an :class:`AnalyticsError` naming the npz re-export; a torn
    or foreign file raises a :class:`SerializationError`.
    """
    path = Path(path)
    if path.suffix in _RETIRED_SUFFIXES:
        raise AnalyticsError(
            f"{path} is a {path.suffix[1:]} trace; the arrow and parquet "
            "formats were retired and npz is the only trace format. "
            "Re-export the run: repro trace export RUN_DIR --to FILE.npz, "
            "and read that file with repro.io.load_trace"
        )
    try:
        with read_npz(path) as archive:
            times = np.ascontiguousarray(archive["times"], dtype=np.int64)
            counts = np.ascontiguousarray(archive["counts"], dtype=np.int64)
            undecided = (
                np.ascontiguousarray(archive["undecided"], dtype=np.int64)
                if "undecided" in archive.files
                else None
            )
            meta = json.loads(str(archive["meta"]))
    except Exception as exc:  # noqa: BLE001 — torn files become one error type
        raise SerializationError(
            f"could not read columnar trace {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    _check_chunk(times, counts)
    return {"times": times, "counts": counts, "undecided": undecided, "meta": meta}
