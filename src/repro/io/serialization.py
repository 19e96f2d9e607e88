"""Trace and result persistence.

Traces are stored as ``.npz`` (arrays) with a JSON-encoded metadata
side-channel inside the archive; experiment results (rows of scalars)
as plain JSON.  Both formats round-trip exactly and need nothing beyond
NumPy and the standard library.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from ..core.recorder import Trace
from ..errors import SerializationError
from .streaming import read_npz, write_npz

__all__ = ["save_trace", "load_trace", "save_result_rows", "load_result_rows"]

PathLike = Union[str, Path]


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write a :class:`Trace` as an npz archive to exactly ``path``."""
    path = Path(path)
    header = {
        "n": trace.n,
        "state_names": list(trace.state_names),
        "protocol_name": trace.protocol_name,
        "undecided_index": trace.undecided_index,
        "metadata": _jsonable(trace.metadata),
    }
    try:
        write_npz(
            path,
            {
                "times": trace.times,
                "counts": trace.counts,
                "header": np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
            },
        )
    except OSError as exc:
        raise SerializationError(f"could not write trace to {path}: {exc}") from exc


def load_trace(path: PathLike) -> Trace:
    """Read a :class:`Trace` previously written by :func:`save_trace`."""
    path = Path(path)
    try:
        with read_npz(path) as archive:
            times = archive["times"]
            counts = archive["counts"]
            header_bytes = archive["header"].tobytes()
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise SerializationError(f"could not read trace from {path}: {exc}") from exc
    header = json.loads(header_bytes.decode("utf-8"))
    return Trace(
        times=np.ascontiguousarray(times, dtype=np.int64),
        counts=np.ascontiguousarray(counts, dtype=np.int64),
        n=int(header["n"]),
        state_names=tuple(header["state_names"]),
        protocol_name=str(header["protocol_name"]),
        undecided_index=header["undecided_index"],
        metadata=dict(header.get("metadata", {})),
    )


def save_result_rows(
    rows: List[Dict[str, Any]], path: PathLike, *, extra: Dict[str, Any] | None = None
) -> None:
    """Write experiment rows (plus free-form ``extra``) as JSON."""
    path = Path(path)
    payload = {"rows": _jsonable(rows), "extra": _jsonable(extra or {})}
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    except OSError as exc:
        raise SerializationError(f"could not write results to {path}: {exc}") from exc


def load_result_rows(path: PathLike) -> tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Read rows written by :func:`save_result_rows`; returns (rows, extra)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"could not read results from {path}: {exc}") from exc
    if not isinstance(payload, dict) or "rows" not in payload:
        raise SerializationError(f"{path} is not a result-rows file")
    return payload["rows"], payload.get("extra", {})


def _jsonable(value: Any) -> Any:
    """Recursively convert NumPy scalars/arrays into JSON-encodable values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
