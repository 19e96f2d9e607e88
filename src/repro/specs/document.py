"""The unified result document: one wire shape for every result kind.

A *result document* is the versioned JSON form of a finished execution
— the same shape whether the result came from an in-process
``run_spec(spec)`` call, was rebuilt from a persisted run directory, or
crossed the ``repro serve`` wire.  :func:`to_document` flattens any
result the spec runner can produce; :func:`result_from_document`
rebuilds a result object from the document; :func:`document_bytes` is
the canonical byte serialization the service stores and serves
verbatim, so "cache hit" can mean *byte-identical*.

Gossip runs render as ``"run"`` documents (engine ``"gossip"``,
interactions = rounds × n, a summary row in rounds).  ``"gossip"``
documents, the shape gossip runs had before they ran on the shared
engine loop, still load — as the equivalent ``RunResult``.

Shape (``kind`` is always ``'result'``)::

    {
      "schema_version": 1,
      "kind": "result",
      "result_kind": "run" | "surrogate"
                   | "ensemble" | "sweep" | "experiment",
      "spec_hash":  <hex digest or null>,
      "spec":       <the spec document or null>,
      "outcome":    <result_kind-specific payload>,
      "summary":    <scalar summary row>,
      "obs_metrics": <metrics snapshot or null>,
      "persist_dir": <run directory or null>,
      "wall_seconds": <float or null>,
      "metadata":   <result metadata, obs_metrics hoisted out>
    }

An experiment's ``outcome`` carries its ``rows``, ``notes``,
``params``, series names and, when it states any, ``claims``: one
``{"name", "value", "bound", "holds"}`` record per paper claim, the
verdict computed by the experiment itself.  Documents without the key
(a partial sweep shard, or one written before experiments stated
claims) load with no claims and re-render to the same bytes.

``obs_metrics`` is hoisted to the top level (out of ``metadata``) so a
document rebuilt from a persisted manifest — where the metrics live in
the summary, not the recorded metadata — is byte-identical to the one
the live run produced.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from ..errors import SpecError
from .hashing import canonical_json, canonicalize
from .model import SCHEMA_VERSION

__all__ = [
    "DOCUMENT_KINDS",
    "document_bytes",
    "document_from_persisted_run",
    "result_from_document",
    "to_document",
]

#: Every ``result_kind`` a document may carry.
DOCUMENT_KINDS = (
    "run",
    "gossip",
    "surrogate",
    "ensemble",
    "sweep",
    "experiment",
)


def _base_document(
    result_kind: str,
    *,
    spec_hash: Optional[str],
    spec: Optional[Mapping[str, Any]],
    outcome: Dict[str, Any],
    summary: Dict[str, Any],
    obs_metrics: Optional[Mapping[str, Any]] = None,
    persist_dir: Optional[Union[str, Path]] = None,
    wall_seconds: Optional[float] = None,
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "result",
        "result_kind": result_kind,
        "spec_hash": spec_hash,
        "spec": None if spec is None else dict(spec),
        "outcome": outcome,
        "summary": summary,
        "obs_metrics": None if obs_metrics is None else dict(obs_metrics),
        "persist_dir": None if persist_dir is None else str(persist_dir),
        "wall_seconds": None if wall_seconds is None else float(wall_seconds),
        "metadata": {} if metadata is None else dict(metadata),
    }
    # canonicalize so the live and the rebuilt document compare equal
    # regardless of NumPy scalar types or tuple/list carriers — and so
    # anything non-JSON-able fails here, loudly, not at send time
    return canonicalize(payload)


def _split_metadata(
    metadata: Mapping[str, Any],
) -> tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Hoist ``obs_metrics`` out of result metadata (see module doc)."""
    meta = dict(metadata)
    obs = meta.pop("obs_metrics", None)
    return meta, obs


def _check_spec(spec: Any, result_spec_hash: Optional[str]) -> None:
    if spec is None:
        return
    if result_spec_hash is not None and spec.spec_hash() != result_spec_hash:
        raise SpecError(
            f"the spec passed to to_document hashes to "
            f"{spec.spec_hash()[:12]}… but the result was produced by "
            f"{result_spec_hash[:12]}…; they describe different work"
        )


def to_document(result: Any, spec: Any = None) -> Dict[str, Any]:
    """Flatten any spec-runner result into the unified document shape.

    ``spec`` (optional) embeds the producing spec's document; for
    single-run results its hash is checked against the hash recorded in
    the result metadata, so a mismatched pairing fails instead of
    producing a lying document.
    """
    from .runner import (
        EnsembleRun,
        ExperimentSpecRun,
        SweepSpecRun,
        summary_row,
    )

    if isinstance(result, EnsembleRun):
        _check_spec(spec, result.spec_hash)
        rows = [dict(row) for row in result.rows]
        return _base_document(
            "ensemble",
            spec_hash=result.spec_hash,
            spec=None if spec is None else spec.to_dict(),
            outcome={"seeds": list(result.seeds), "rows": rows},
            summary={
                "members": len(rows),
                "stabilized": sum(1 for row in rows if row.get("stabilized")),
            },
        )
    if isinstance(result, SweepSpecRun):
        _check_spec(spec, result.spec_hash)
        rows = [dict(row) for row in result.rows]
        return _base_document(
            "sweep",
            spec_hash=result.spec_hash,
            spec=None if spec is None else spec.to_dict(),
            outcome={
                "sweep_id": result.sweep_id,
                "rows": rows,
                "partial": bool(result.partial),
                "escalated": list(result.escalated),
                "artifacts": [str(path) for path in result.artifacts],
            },
            summary={
                "points": len(rows),
                "partial": bool(result.partial),
                "escalated": len(result.escalated),
            },
        )
    if isinstance(result, ExperimentSpecRun):
        _check_spec(spec, result.spec_hash)
        rows = [dict(row) for row in result.rows]
        outcome = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": rows,
            "notes": list(result.notes),
            "params": dict(result.params),
            "series": list(result.series),
        }
        if result.claims:
            # absent, not empty, when there are none: documents written
            # before experiments stated claims keep their exact bytes
            outcome["claims"] = [dict(claim) for claim in result.claims]
        return _base_document(
            "experiment",
            spec_hash=result.spec_hash,
            spec=None if spec is None else spec.to_dict(),
            outcome=outcome,
            summary={"rows": len(rows), "notes": len(result.notes)},
            wall_seconds=result.wall_seconds,
        )
    # the run-shaped results: RunResult (population or gossip) and its
    # surrogate duck-type
    if not hasattr(result, "interactions") or not hasattr(result, "trace"):
        raise SpecError(
            f"to_document does not understand {type(result).__name__} results"
        )
    meta, obs = _split_metadata(result.metadata)
    spec_hash = meta.get("spec_hash")
    _check_spec(spec, spec_hash)
    outcome = {
        "stabilized": bool(result.stabilized),
        "winner": result.winner,
        "interactions": int(result.interactions),
        "parallel_time": float(result.parallel_time),
        "stabilization_interactions": result.stabilization_interactions,
        "stabilization_parallel_time": result.stabilization_parallel_time,
        "final_counts": [int(c) for c in result.final_counts],
        "engine": result.engine_name,
    }
    result_kind = "run"
    validity = getattr(result, "validity", None)
    if validity is not None:
        result_kind = "surrogate"
        timescales = result.timescales
        outcome["rounds"] = result.rounds
        outcome["stabilization_rounds"] = result.stabilization_rounds
        outcome["validity"] = validity.as_dict()
        outcome["timescales"] = (
            None
            if timescales is None
            else {
                "plateau_entry": timescales.plateau_entry,
                "majority_doubling": timescales.majority_doubling,
                "consensus": timescales.consensus,
                "horizon": timescales.horizon,
            }
        )
    return _base_document(
        result_kind,
        spec_hash=spec_hash,
        spec=None if spec is None else spec.to_dict(),
        outcome=outcome,
        summary=summary_row(result),
        obs_metrics=obs,
        persist_dir=getattr(result, "persist_dir", None),
        wall_seconds=result.wall_seconds,
        metadata=meta,
    )


def document_bytes(document: Mapping[str, Any]) -> bytes:
    """The canonical byte serialization of a result document.

    This is what the serve store persists and serves verbatim: two
    equal documents always serialize to the same bytes (sorted keys, no
    insignificant whitespace, trailing newline).
    """
    return (canonical_json(document) + "\n").encode("utf-8")


def _check_document(document: Any) -> Dict[str, Any]:
    if not isinstance(document, Mapping):
        raise SpecError(
            f"a result document must be an object, got "
            f"{type(document).__name__}"
        )
    version = document.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise SpecError(
            f"result document schema_version must be an integer, got "
            f"{version!r}"
        )
    if version > SCHEMA_VERSION:
        raise SpecError(
            f"result document uses schema_version {version}; this library "
            f"reads up to {SCHEMA_VERSION}"
        )
    if document.get("kind") != "result":
        raise SpecError(
            f"expected a 'result' document, got kind {document.get('kind')!r}"
        )
    result_kind = document.get("result_kind")
    if result_kind not in DOCUMENT_KINDS:
        raise SpecError(
            f"unknown result_kind {result_kind!r}; expected one of "
            f"{list(DOCUMENT_KINDS)}"
        )
    return dict(document)


def _minimal_trace(
    document: Mapping[str, Any], final_counts: np.ndarray, time: float
):
    """A one-snapshot trace standing in for the unrecorded trajectory.

    Result documents carry headline numbers, not trajectories; the
    rebuilt result still needs a structurally valid :class:`Trace` (its
    ``n`` drives ``stabilization_parallel_time``), so the final counts
    become the single snapshot.  State names come from the embedded
    spec's protocol when one is present.
    """
    from ..core.protocol import default_undecided_index
    from ..core.recorder import Trace

    counts = np.asarray([final_counts], dtype=np.int64)
    n = int(np.sum(final_counts))
    state_names = tuple(f"s{i}" for i in range(counts.shape[1]))
    protocol_name = "unknown"
    undecided_index: Optional[int] = None
    spec = document.get("spec")
    if isinstance(spec, Mapping) and spec.get("kind") == "run":
        try:
            from .model import RunSpec

            run = RunSpec.from_dict(spec)
            protocol = run.build_protocol()
            state_names = tuple(protocol.state_names())
            protocol_name = protocol.name
            undecided_index = default_undecided_index(protocol)
        except SpecError:
            pass  # an undecodable spec degrades the trace labels only
    return Trace(
        times=np.asarray([time], dtype=np.float64),
        counts=counts,
        n=n,
        state_names=state_names,
        protocol_name=protocol_name,
        undecided_index=undecided_index,
        metadata={"rebuilt_from": "result-document"},
    )


def result_from_document(document: Mapping[str, Any]) -> Any:
    """Rebuild a result object from its document.

    The inverse of :func:`to_document` up to the unrecorded parts:
    single-run results come back with a one-snapshot trace (documents
    do not carry trajectories), ensembles without member result
    objects, experiments without their series arrays.  Everything the
    document does carry round-trips exactly: re-flattening the rebuilt
    result with the original spec —
    ``to_document(result_from_document(doc), spec)`` — reproduces
    ``doc`` bit for bit (and ``doc`` with ``spec: null`` when no spec
    is passed back; results do not retain their producing spec).
    """
    document = _check_document(document)
    result_kind = document["result_kind"]
    outcome = document.get("outcome") or {}
    metadata = dict(document.get("metadata") or {})
    obs = document.get("obs_metrics")
    if obs is not None:
        metadata["obs_metrics"] = dict(obs)
    persist_dir = document.get("persist_dir")
    wall_seconds = document.get("wall_seconds")

    from .runner import EnsembleRun, ExperimentSpecRun, SweepSpecRun

    if result_kind == "ensemble":
        return EnsembleRun(
            spec_hash=document.get("spec_hash"),
            seeds=tuple(outcome.get("seeds") or ()),
            results=(),
            rows=tuple(dict(row) for row in outcome.get("rows") or ()),
        )
    if result_kind == "sweep":
        return SweepSpecRun(
            spec_hash=document.get("spec_hash"),
            sweep_id=str(outcome.get("sweep_id")),
            rows=tuple(dict(row) for row in outcome.get("rows") or ()),
            partial=bool(outcome.get("partial")),
            artifacts=tuple(
                Path(path) for path in outcome.get("artifacts") or ()
            ),
            escalated=tuple(outcome.get("escalated") or ()),
        )
    if result_kind == "experiment":
        return ExperimentSpecRun(
            spec_hash=document.get("spec_hash"),
            experiment_id=str(outcome.get("experiment_id")),
            title=str(outcome.get("title")),
            rows=tuple(dict(row) for row in outcome.get("rows") or ()),
            notes=tuple(outcome.get("notes") or ()),
            params=dict(outcome.get("params") or {}),
            wall_seconds=float(wall_seconds or 0.0),
            series=tuple(outcome.get("series") or ()),
            result=None,
            claims=tuple(dict(claim) for claim in outcome.get("claims") or ()),
        )

    try:
        final_counts = np.asarray(outcome["final_counts"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(
            f"result document outcome is missing usable final_counts: {exc}"
        ) from exc

    if result_kind == "gossip":
        # written before gossip ran on the shared engine loop: the same
        # run counted in rounds, one round being n interactions
        n = int(final_counts.sum())
        rounds = int(outcome["rounds"])
        stabilization = outcome.get("stabilization_rounds")
        outcome = {
            **outcome,
            "interactions": rounds * n,
            "parallel_time": float(rounds),
            "stabilization_interactions": (
                None if stabilization is None else int(stabilization) * n
            ),
            "engine": "gossip",
        }
        result_kind = "run"

    interactions = int(outcome["interactions"])
    trace = _minimal_trace(document, final_counts, float(interactions))
    common = dict(
        trace=trace,
        final_counts=final_counts,
        interactions=interactions,
        parallel_time=float(outcome["parallel_time"]),
        stabilized=bool(outcome.get("stabilized")),
        stabilization_interactions=outcome.get("stabilization_interactions"),
        winner=outcome.get("winner"),
        engine_name=str(outcome.get("engine", "unknown")),
        wall_seconds=float(wall_seconds or 0.0),
        metadata=metadata,
        persist_dir=None if persist_dir is None else Path(persist_dir),
    )
    if result_kind == "run":
        from ..core.run import RunResult

        return RunResult(**common)

    # surrogate: rebuild the validity report and the predicted timescales
    from ..meanfield.surrogate import SurrogateResult, ValidityReport
    from ..meanfield.timescales import MeanFieldTimescales

    validity_doc = dict(outcome.get("validity") or {})
    coverage = validity_doc.get("horizon_coverage")
    validity = ValidityReport(
        verdict=str(validity_doc.get("verdict", "ESCALATE")),
        fluctuation_fraction=float(
            validity_doc.get("fluctuation_fraction", 0.0)
        ),
        bias_fraction=float(validity_doc.get("bias_fraction", 0.0)),
        bias_margin=float(validity_doc.get("bias_margin", 0.0)),
        horizon_coverage=math.inf if coverage is None else float(coverage),
        reasons=tuple(validity_doc.get("reasons") or ()),
    )
    timescales_doc = outcome.get("timescales")
    timescales = (
        None
        if timescales_doc is None
        else MeanFieldTimescales(
            plateau_entry=timescales_doc.get("plateau_entry"),
            majority_doubling=timescales_doc.get("majority_doubling"),
            consensus=timescales_doc.get("consensus"),
            horizon=float(timescales_doc.get("horizon", 0.0)),
        )
    )
    return SurrogateResult(
        validity=validity,
        timescales=timescales,
        rounds=outcome.get("rounds"),
        stabilization_rounds=outcome.get("stabilization_rounds"),
        **common,
    )


def document_from_persisted_run(
    run_dir: Union[str, Path],
) -> Optional[Dict[str, Any]]:
    """The result document of a complete persisted run directory.

    Byte-identical to the document the live run produced: the manifest
    records the same spec, metadata and summary numbers.  Returns
    ``None`` when the directory cannot back a document — an incomplete
    stream, a pre-spec-era manifest without a ``spec_hash``, or a
    summary missing the headline fields.
    """
    from ..errors import SerializationError
    from ..io.streaming import load_manifest

    run_dir = Path(run_dir)
    try:
        manifest = load_manifest(run_dir)
    except SerializationError:
        return None
    run_info = manifest.get("run_info") or {}
    summary = manifest.get("summary") or {}
    spec_hash = run_info.get("spec_hash")
    if not manifest.get("complete") or not summary or spec_hash is None:
        return None
    metadata = dict(run_info.get("metadata") or {})
    metadata.pop("obs_metrics", None)
    try:
        n = int(run_info["n"])
        stabilization = summary["stabilization_interactions"]
        outcome = {
            "stabilized": bool(summary["stabilized"]),
            "winner": summary["winner"],
            "interactions": int(summary["interactions"]),
            "parallel_time": float(summary["parallel_time"]),
            "stabilization_interactions": stabilization,
            "stabilization_parallel_time": (
                None if stabilization is None else stabilization / n
            ),
            "final_counts": [int(c) for c in summary["final_counts"]],
            "engine": str(run_info.get("engine", "unknown")),
        }
    except (KeyError, TypeError, ValueError):
        return None
    document = _base_document(
        "run",
        spec_hash=spec_hash,
        spec=run_info.get("spec"),
        outcome=outcome,
        summary={},
        obs_metrics=summary.get("obs_metrics"),
        persist_dir=run_dir,
        wall_seconds=summary.get("wall_seconds"),
        metadata=metadata,
    )
    # the live run's summary row, in rounds for a gossip run
    from .runner import summary_row

    document["summary"] = canonicalize(summary_row(result_from_document(document)))
    return document
