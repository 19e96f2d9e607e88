"""Fleet datasets: many persisted runs as one partitioned columnar set.

A *dataset* directory holds one npz fragment per exported run,
partitioned hive-style by run identity::

    <dest>/
      dataset.json                                   # the manifest
      fragments/protocol=usd/n=2000/spec_hash=<h>/<run_key>.npz
      ...

plus ``dataset.json``, the incremental manifest: per-run records (the
identity, the post-run summary, the fragment path, and a *source
signature*) keyed by ``run_key``.  Re-exporting an unchanged fleet is a
no-op — a run whose source manifest stat still matches its recorded
signature is skipped without touching its partition, so fleets can be
re-synced cheaply as new runs land.

Sources are discovered through the same scan helpers the rest of the
tree uses: :func:`repro.io.streaming.iter_persisted_manifests` walks
``runs_roots`` (sweep shards, ensemble member dirs, bare ``--persist``
output — anything with a streamed-trace manifest), and a serve
:class:`~repro.serve.store.ResultStore` (or its directory) contributes
*summary-only* records for results whose trajectories were never
persisted.  Corrupt or partial inputs — incomplete manifests
(``complete: false``), runs missing summaries, truncated fragments —
are skipped with recorded reasons (the ``analytics_scan_skipped_total``
/ ``analytics_fragment_skipped_total`` counters, journal events, and
the manifest's ``skipped`` list), never fatal to an export or a query.

The manifest is also the documented escape hatch: each fragment is a
plain ``np.load``-able archive (see :mod:`repro.analytics.codec`), and
the partition keys in its path plus the identity in its ``meta`` make
the dataset self-describing without this library in the loop.

A manifest that records another fragment format (``arrow`` or
``parquet``, which older versions wrote with pyarrow, or no format at
all, which those versions read as ``parquet``) raises an
:class:`~repro.errors.AnalyticsError` naming the npz re-export, both on
opening and on exporting into it.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import AnalyticsError, SerializationError
from ..io import atomic_write
from ..obs import metrics as obs_metrics
from ..obs.runtime import active_journal, emit as obs_emit
from . import codec

__all__ = [
    "DATASET_MANIFEST_NAME",
    "Dataset",
    "ExportReport",
    "dataset",
    "export_dataset",
]

PathLike = Union[str, Path]

DATASET_MANIFEST_NAME = "dataset.json"
DATASET_FORMAT_VERSION = 1
_FRAGMENTS = "fragments"
#: The one fragment format, still recorded in every manifest: readers
#: before it was the only one take a missing key to mean ``parquet``.
_FRAGMENT_FORMAT = "npz"

#: Summary fields copied into a run record (obs_metrics stays behind —
#: only its kernel-time total travels, as ``kernel_seconds``).
_SUMMARY_FIELDS = (
    "interactions",
    "parallel_time",
    "stabilized",
    "stabilization_interactions",
    "winner",
    "final_counts",
    "wall_seconds",
)

_SAFE_PART = re.compile(r"[^A-Za-z0-9._-]+")


@contextmanager
def _journal_span(span: str, **fields: Any) -> Iterator[None]:
    """A journal span when a journal is open; free otherwise."""
    journal = active_journal()
    if journal is None:
        yield
        return
    span_id = journal.span_begin(span, **fields)
    try:
        yield
    finally:
        journal.span_end(span, span_id)


@dataclass
class ExportReport:
    """What one :func:`export_dataset` call did."""

    dest: Path
    fragment_format: str = _FRAGMENT_FORMAT
    exported: int = 0
    unchanged: int = 0
    summary_only: int = 0
    rows: int = 0
    skipped: List[Tuple[str, str]] = field(default_factory=list)


def _record_skip(report: ExportReport, path: Any, reason: str, on_skip) -> None:
    obs_metrics.REGISTRY.inc("analytics_scan_skipped_total")
    obs_emit("analytics.scan_skip", path=str(path), reason=reason)
    report.skipped.append((str(path), reason))
    if on_skip is not None:
        on_skip(Path(str(path)), reason)


def _run_key(run_dir: Path, manifest: Dict[str, Any]) -> str:
    """Stable dedup key: the spec hash when recorded, else a path digest."""
    spec_hash = (manifest.get("run_info") or {}).get("spec_hash")
    if isinstance(spec_hash, str) and spec_hash:
        return spec_hash
    digest = hashlib.sha256(str(run_dir.resolve()).encode("utf-8")).hexdigest()
    return f"dir-{digest[:16]}"


def _source_signature(run_dir: Path) -> Optional[Dict[str, int]]:
    """Cheap change detector: the streamed manifest's stat.

    Every chunk spill rewrites the manifest atomically, so a run that
    grew (or was re-run) always changes its manifest mtime/size.
    """
    try:
        stat = (run_dir / "manifest.json").stat()
    except OSError:
        return None
    return {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size}


def _partition_value(value: Any) -> str:
    text = "unknown" if value in (None, "") else str(value)
    return _SAFE_PART.sub("_", text) or "unknown"


def _fragment_relpath(identity: Dict[str, Any]) -> str:
    return "/".join(
        (
            _FRAGMENTS,
            f"protocol={_partition_value(identity.get('protocol'))}",
            f"n={_partition_value(identity.get('n'))}",
            f"spec_hash={_partition_value(identity.get('spec_hash'))}",
            f"{_partition_value(identity.get('run_key'))}.npz",
        )
    )


def _kernel_seconds(summary: Dict[str, Any]) -> Optional[float]:
    hist = (
        (summary.get("obs_metrics") or {})
        .get("histograms", {})
        .get("kernel_step_seconds")
    )
    if not hist:
        return None
    try:
        return float(hist["sum"])
    except (KeyError, TypeError, ValueError):
        return None


def _summary_record(summary: Dict[str, Any]) -> Dict[str, Any]:
    record = {key: summary.get(key) for key in _SUMMARY_FIELDS}
    kernel_seconds = _kernel_seconds(summary)
    if kernel_seconds is not None:
        record["kernel_seconds"] = kernel_seconds
    return record


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def export_dataset(
    dest: PathLike,
    *,
    runs_roots: Iterable[PathLike] = (),
    store: Any = None,
    on_skip=None,
) -> ExportReport:
    """Export (or incrementally refresh) a fleet dataset under ``dest``.

    ``runs_roots`` are scanned for streamed run directories;
    ``store`` (a :class:`~repro.serve.store.ResultStore` or its root
    path) contributes summary-only records.  Fragments are npz files;
    exporting into a dataset of a retired format raises an
    :class:`AnalyticsError`.  Returns an :class:`ExportReport`;
    unreadable sources are skipped with recorded reasons, never raised.
    """
    from ..io.streaming import iter_persisted_manifests

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    runs: Dict[str, Dict[str, Any]] = (
        dict(_load_manifest(dest).get("runs", {}))
        if (dest / DATASET_MANIFEST_NAME).is_file()
        else {}
    )
    report = ExportReport(dest=dest)
    with _journal_span("analytics.export", dest=str(dest)):
        for root in runs_roots:
            for run_dir, manifest in iter_persisted_manifests(
                root, on_skip=lambda p, r: _record_skip(report, p, r, on_skip)
            ):
                _export_run(report, runs, run_dir, manifest, on_skip)
        if store is not None:
            _ingest_store(report, runs, store, on_skip)
        manifest_payload = {
            "format_version": DATASET_FORMAT_VERSION,
            "kind": "analytics-dataset",
            "fragment_format": _FRAGMENT_FORMAT,
            "runs": runs,
            "skipped": [list(item) for item in report.skipped],
        }
        atomic_write(
            dest / DATASET_MANIFEST_NAME,
            (json.dumps(manifest_payload, indent=1, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
    return report


def _export_run(
    report: ExportReport,
    runs: Dict[str, Dict[str, Any]],
    run_dir: Path,
    manifest: Dict[str, Any],
    on_skip,
) -> None:
    from ..io.streaming import StreamedTrace

    if not manifest.get("complete"):
        _record_skip(report, run_dir, "incomplete stream (complete: false)", on_skip)
        return
    summary = manifest.get("summary")
    if not isinstance(summary, dict) or not summary:
        _record_skip(report, run_dir, "missing post-run summary", on_skip)
        return
    run_key = _run_key(run_dir, manifest)
    signature = _source_signature(run_dir)
    known = runs.get(run_key)
    if (
        known is not None
        and signature is not None
        and known.get("signature") == signature
        and known.get("fragment") is not None
    ):
        report.unchanged += 1
        return
    run_info = dict(manifest.get("run_info") or {})
    identity = codec.run_identity(run_info, run_key=run_key)
    relpath = _fragment_relpath(identity)
    undecided_index = run_info.get("undecided_index")
    try:
        stream = StreamedTrace(run_dir)
        rows = codec.write_columnar(
            report.dest / relpath,
            stream.iter_chunks(),
            identity=identity,
            run_info={**run_info, "summary": _summary_record(summary)},
            undecided_index=(None if undecided_index is None else int(undecided_index)),
        )
    except (SerializationError, OSError) as exc:
        _record_skip(report, run_dir, f"unreadable chunks: {exc}", on_skip)
        return
    runs[run_key] = {
        **identity,
        "undecided_index": (None if undecided_index is None else int(undecided_index)),
        "fragment": relpath,
        "rows": rows,
        "summary": _summary_record(summary),
        "source": str(run_dir),
        "signature": signature,
    }
    report.exported += 1
    report.rows += rows
    obs_metrics.REGISTRY.inc("analytics_runs_exported_total")
    obs_metrics.REGISTRY.inc("analytics_rows_exported_total", rows)
    obs_emit("analytics.export_run", run_key=run_key, rows=rows, source=str(run_dir))


def _ingest_store(
    report: ExportReport,
    runs: Dict[str, Dict[str, Any]],
    store: Any,
    on_skip,
) -> None:
    """Summary-only records from a serve result store.

    Accepts a :class:`~repro.serve.store.ResultStore` or a store root
    directory (its ``documents/`` are read directly).  Only single-run documents (``result_kind`` ``run`` /
    ``surrogate``) have a per-run summary to contribute; other kinds
    are skipped with a recorded reason.  A run already exported from
    its run directory wins over its store document — the directory
    carries the trajectory.
    """
    documents: List[Tuple[str, Dict[str, Any]]] = []
    if hasattr(store, "hashes") and hasattr(store, "get"):
        for spec_hash in store.hashes():
            document = store.get(spec_hash)
            if document is not None:
                documents.append((spec_hash, document))
    else:
        documents_dir = Path(store) / "documents"
        if not documents_dir.is_dir():
            _record_skip(
                report, store, "no documents/ directory under store root", on_skip
            )
            return
        for path in sorted(documents_dir.glob("*.json")):
            try:
                documents.append(
                    (path.stem, json.loads(path.read_text(encoding="utf-8")))
                )
            except (OSError, ValueError) as exc:
                _record_skip(report, path, f"unreadable document: {exc}", on_skip)
    for spec_hash, document in documents:
        record = _record_from_document(spec_hash, document)
        if isinstance(record, str):
            _record_skip(report, f"store:{spec_hash}", record, on_skip)
            continue
        if spec_hash in runs:
            report.unchanged += 1
            continue
        runs[spec_hash] = record
        report.summary_only += 1
        obs_emit("analytics.ingest_document", run_key=spec_hash)


def _record_from_document(spec_hash: str, document: Any) -> Union[Dict[str, Any], str]:
    """A summary-only run record from a result document, or a skip reason."""
    if not isinstance(document, dict):
        return "store document is not an object"
    result_kind = document.get("result_kind")
    if result_kind not in ("run", "surrogate"):
        return (
            f"result kind {result_kind!r} carries no single-run summary "
            "(only 'run' and 'surrogate' documents are ingested)"
        )
    outcome = document.get("outcome") or {}
    spec = document.get("spec") or {}
    # the kernels that ran, as a run directory's manifest records them;
    # the spec's ``backend`` is only what was requested (usually null)
    metadata = document.get("metadata") or {}
    protocol = (spec.get("protocol") or {}).get("name")
    initial = spec.get("initial") or {}
    n = initial.get("n")
    summary = {
        "interactions": outcome.get("interactions"),
        "parallel_time": outcome.get("parallel_time"),
        "stabilized": outcome.get("stabilized"),
        "stabilization_interactions": outcome.get("stabilization_interactions"),
        "winner": outcome.get("winner"),
        "final_counts": outcome.get("final_counts"),
        "wall_seconds": document.get("wall_seconds"),
    }
    obs = document.get("obs_metrics")
    if obs:
        kernel_seconds = _kernel_seconds({"obs_metrics": obs})
        if kernel_seconds is not None:
            summary["kernel_seconds"] = kernel_seconds
    return {
        "run_key": spec_hash,
        "spec_hash": spec_hash,
        "protocol": "unknown" if protocol is None else str(protocol),
        "n": None if n is None else int(n),
        "seed": spec.get("seed"),
        "engine": outcome.get("engine"),
        "backend": metadata.get("backend"),
        "undecided_index": None,
        "fragment": None,
        "rows": 0,
        "summary": summary,
        "source": f"store:{spec_hash}",
        "signature": None,
    }


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def _load_manifest(root: Path) -> Dict[str, Any]:
    path = root / DATASET_MANIFEST_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise AnalyticsError(
            f"{root} is not an analytics dataset (no {DATASET_MANIFEST_NAME}); "
            "build one with 'repro trace dataset' or "
            "repro.analytics.export_dataset"
        ) from None
    except (OSError, ValueError) as exc:
        raise AnalyticsError(f"could not read dataset manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "analytics-dataset":
        raise AnalyticsError(f"{path} is not an analytics dataset manifest")
    version = payload.get("format_version")
    if not isinstance(version, int) or version > DATASET_FORMAT_VERSION:
        raise AnalyticsError(
            f"dataset manifest {path} uses format version {version!r}; "
            f"this library reads up to {DATASET_FORMAT_VERSION}"
        )
    recorded = payload.get("fragment_format", "parquet")
    if recorded != _FRAGMENT_FORMAT:
        raise AnalyticsError(
            f"dataset {root} records fragment format {recorded!r}; the arrow "
            "and parquet formats were retired and npz is the only fragment "
            "format. Re-export its runs into a new dataset: "
            "repro trace dataset NEW --runs ROOT"
        )
    return payload


class Dataset:
    """Reader over an exported fleet dataset.

    ``runs`` are the manifest's records (sorted by ``run_key`` for
    deterministic scan order).  :meth:`iter_series` streams fragment
    columns one run at a time — a fragment that cannot be read (torn
    file, vanished partition) is *skipped with a recorded reason* (the
    ``analytics_fragment_skipped_total`` counter, a journal event, and
    :attr:`skipped`), so a query over thousands of runs reports what it
    could not scan instead of dying on the first bad file.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self._manifest = _load_manifest(self.root)
        self.skipped: List[Tuple[str, str]] = []

    @property
    def fragment_format(self) -> str:
        return _FRAGMENT_FORMAT

    @property
    def runs(self) -> List[Dict[str, Any]]:
        records = self._manifest.get("runs", {})
        return [records[key] for key in sorted(records)]

    def __len__(self) -> int:
        return len(self._manifest.get("runs", {}))

    def _skip(self, record: Dict[str, Any], reason: str) -> None:
        path = str(record.get("fragment") or record.get("run_key"))
        obs_metrics.REGISTRY.inc("analytics_fragment_skipped_total")
        obs_emit("analytics.fragment_skip", fragment=path, reason=reason)
        self.skipped.append((path, reason))

    def iter_series(
        self, *, records: Optional[Iterable[Dict[str, Any]]] = None
    ) -> Iterator[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Yield ``(record, arrays)`` per trajectory-bearing run.

        ``arrays`` is the codec's ``{"times", "counts", "undecided",
        "meta"}`` dict.  Summary-only records (no fragment) are not
        yielded; unreadable fragments are skipped with a recorded
        reason.
        """
        for record in self.runs if records is None else records:
            relpath = record.get("fragment")
            if relpath is None:
                continue
            try:
                arrays = codec.read_columnar(self.root / relpath)
            except (SerializationError, AnalyticsError, OSError) as exc:
                self._skip(record, str(exc))
                continue
            yield record, arrays

    def query(self, **filters: Any):
        """A :class:`~repro.analytics.query.FleetQuery` over this dataset."""
        from .query import FleetQuery

        return FleetQuery(self, **filters)

    def __repr__(self) -> str:
        return (
            f"Dataset({str(self.root)!r}, runs={len(self)}, "
            f"format={self.fragment_format!r})"
        )


def dataset(root: PathLike) -> Dataset:
    """Open an exported dataset (``repro.analytics.dataset(path)``)."""
    return Dataset(root)
