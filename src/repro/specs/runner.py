"""Executing specs: ``run_spec`` and the scenario-file loaders.

:func:`run_spec` is the declarative twin of the keyword
:func:`repro.core.run.simulate`: it accepts a
:class:`~repro.specs.model.RunSpec` (one run), an
:class:`~repro.specs.ensemble.EnsembleSpec` (seed fan-out) or a
:class:`~repro.specs.sweep.SweepSpec` (parameter grid on the sharded
sweep executor) and runs it.  :func:`load_spec` /
:func:`load_spec_file` turn a JSON document into the right spec class
by its ``kind`` field — scenario files under ``examples/scenarios/``
are exactly such documents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ReproError, SpecError
from .ensemble import EnsembleSpec
from .experiment import ExperimentSpec
from .model import RunSpec
from .sweep import _SLUG_UNSAFE, SweepSpec

__all__ = [
    "EnsembleRun",
    "ExperimentSpecRun",
    "SweepSpecRun",
    "load_spec",
    "load_spec_file",
    "normalize_run",
    "run_spec",
    "summary_row",
]

AnySpec = Union[RunSpec, EnsembleSpec, SweepSpec, ExperimentSpec]

_KINDS = {
    "run": RunSpec,
    "ensemble": EnsembleSpec,
    "sweep": SweepSpec,
    "experiment": ExperimentSpec,
}


def load_spec(payload: Mapping[str, Any]) -> AnySpec:
    """Build the spec a JSON-style document describes (by its ``kind``)."""
    if not isinstance(payload, Mapping):
        raise SpecError(
            f"a spec document must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise SpecError(
            f"spec document has kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    return cls.from_dict(payload)


def load_spec_file(path: Union[str, Path]) -> AnySpec:
    """Read and validate a scenario file (JSON)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"could not read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return load_spec(payload)


# ----------------------------------------------------------------------
# Keyword-form normalisation
# ----------------------------------------------------------------------


def normalize_run(
    protocol: Any,
    initial: Any,
    *,
    engine: str = "auto",
    seed: Any = None,
    max_interactions: Optional[int] = None,
    max_parallel_time: Optional[float] = None,
    snapshot_every: Optional[int] = None,
    stop: Any = None,
    persist_to: Any = None,
    persist_chunk_snapshots: Optional[int] = None,
    persist_window: Optional[int] = None,
    metadata: Optional[Mapping[str, Any]] = None,
    obs: Any = None,
) -> Optional[RunSpec]:
    """Normalise keyword ``simulate`` arguments into a :class:`RunSpec`.

    Returns ``None`` when the call is not declaratively representable:
    an unregistered protocol class, a non-integer seed or a callable
    stop predicate.  The keyword form still runs those — it just cannot
    hash them.
    """
    from ..core.configuration import Configuration
    from ..obs.config import ObsConfig
    from .model import InitialSpec, ProtocolSpec, RecordingSpec

    if stop is not None:
        return None
    if seed is not None:
        # NumPy integer scalars are integers too (seed=np.int64(7) is
        # a common pattern when seeding from arrays); Generators and
        # other SeedLike values are not declaratively representable
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            return None
        seed = int(seed)
    protocol_spec = ProtocolSpec.from_protocol(protocol)
    if protocol_spec is None:
        return None
    try:
        if isinstance(initial, Configuration):
            initial_spec = InitialSpec.from_configuration(initial)
        else:
            try:
                counts = [int(c) for c in initial]
            except (TypeError, ValueError):
                return None
            initial_spec = InitialSpec(
                kind="state-counts", n=sum(counts), params={"counts": counts}
            )
        jsonable_metadata = (
            {} if metadata is None else dict(metadata)
        )
        spec = RunSpec(
            protocol=protocol_spec,
            initial=initial_spec,
            engine=engine,
            seed=seed,
            max_interactions=max_interactions,
            max_parallel_time=max_parallel_time,
            recording=RecordingSpec(
                snapshot_every=snapshot_every,
                persist_to=None if persist_to is None else str(persist_to),
                persist_chunk_snapshots=persist_chunk_snapshots,
                persist_window=persist_window,
            ),
            metadata=jsonable_metadata,
            obs=obs if obs is not None else ObsConfig(),
        )
        spec.spec_hash()  # canonicalisation must succeed up front
        return spec
    except ReproError:
        # non-JSON-able metadata, mismatched counts, invalid horizons,
        # ...: the keyword form remains runnable (its own validation
        # reports the error), it just is not declaratively hashable
        return None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleRun:
    """Everything one :class:`EnsembleSpec` execution produced."""

    spec_hash: str
    seeds: Tuple[int, ...]
    results: Tuple[Any, ...]
    rows: Tuple[Dict[str, Any], ...]


@dataclass(frozen=True)
class SweepSpecRun:
    """Everything one :class:`SweepSpec` execution produced.

    ``artifacts`` lists the ``merged.json`` / ``provenance.json`` paths
    written when a full (unsharded) run checkpointed to an ``out``
    directory — the provenance embeds the root spec document.
    ``escalated`` labels the grid points a ``fidelity='auto'`` sweep
    escalated to the exact tier (empty for exact/surrogate sweeps).
    """

    spec_hash: str
    sweep_id: str
    rows: Tuple[Dict[str, Any], ...]
    partial: bool
    artifacts: Tuple[Path, ...] = ()
    escalated: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentSpecRun:
    """Everything one :class:`ExperimentSpec` execution produced.

    ``series`` carries the *names* of the plotted series (the arrays
    themselves live on ``result``, which is ``None`` when the run was
    rebuilt from a wire document — arrays are not part of the portable
    result-document schema, rows, notes and claims are).  ``claims``
    holds each paper claim's :meth:`~repro.experiments.Claim.as_dict`;
    a partial sweep shard has none.
    """

    spec_hash: str
    experiment_id: str
    title: str
    rows: Tuple[Dict[str, Any], ...]
    notes: Tuple[str, ...]
    params: Dict[str, Any]
    wall_seconds: float
    series: Tuple[str, ...] = ()
    result: Any = None
    claims: Tuple[Dict[str, Any], ...] = ()


def run_spec(
    spec: AnySpec,
    *,
    workers: Optional[int] = 0,
    shard: Any = None,
    out: Union[None, str, Path] = None,
    resume: bool = False,
):
    """Execute any spec.

    * :class:`RunSpec` → a :class:`~repro.core.run.RunResult`, for
      population protocols and gossip dynamics alike (a surrogate-tier
      answer is its :class:`~repro.meanfield.surrogate.SurrogateResult`
      duck type); ``workers``/``shard``/``out``/``resume`` do not
      apply.
    * :class:`EnsembleSpec` → an :class:`EnsembleRun`; ``workers`` fans
      members over the process pool (bit-identical for every count).
    * :class:`SweepSpec` → a :class:`SweepSpecRun`; the grid runs on
      the sharded sweep executor with per-point checkpoints under
      ``out``, honouring ``shard``/``resume``/``workers``.
    * :class:`ExperimentSpec` → an :class:`ExperimentSpecRun`; the
      named registry experiment runs with the spec's params, and the
      call-site knobs thread through as its placement parameters (they
      never affect the spec hash): ``workers`` always, and
      ``shard``/``out``/``resume`` for grid-sweep experiments, which
      checkpoint under ``out``.  Other experiments have no checkpoints
      (``out`` is unused) and reject ``shard``/``resume``.
    """
    if isinstance(spec, RunSpec):
        if shard is not None or out is not None or resume:
            raise SpecError(
                "shard/out/resume apply to sweep specs, not single runs"
            )
        if workers not in (0, None):
            # nothing fans out in a single run: accepting the argument
            # would let the caller believe parallelism is in effect
            raise SpecError(
                "workers applies to ensemble/sweep specs; a single run "
                "has nothing to fan out"
            )
        return _run_single(spec)
    if isinstance(spec, EnsembleSpec):
        if shard is not None or out is not None or resume:
            raise SpecError(
                "shard/out/resume apply to sweep specs, not ensembles"
            )
        return _run_ensemble(spec, workers=workers)
    if isinstance(spec, SweepSpec):
        return _run_sweep(
            spec, workers=workers, shard=shard, out=out, resume=resume
        )
    if isinstance(spec, ExperimentSpec):
        return _run_experiment(
            spec, workers=workers, shard=shard, out=out, resume=resume
        )
    raise SpecError(
        f"run_spec expects a RunSpec/EnsembleSpec/SweepSpec/"
        f"ExperimentSpec, got {type(spec).__name__}"
    )


def _run_experiment(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = 0,
    shard: Any = None,
    out: Union[None, str, Path] = None,
    resume: bool = False,
) -> ExperimentSpecRun:
    from ..experiments import SweepExperiment, get_experiment, get_sweep_experiment
    from ..obs.runtime import emit as obs_emit

    if shard is not None or resume:
        # only grid sweeps shard or resume; others fail naming the sweeps
        cls = get_sweep_experiment(spec.name)
    else:
        cls = get_experiment(spec.name)
    overrides: Dict[str, Any] = dict(spec.params)
    # call-site knobs win over spec params: they place the work on this
    # machine (pool size, shard, checkpoint dir), they are not part of
    # what the experiment computes
    if workers not in (0, None):
        overrides["workers"] = workers
    if issubclass(cls, SweepExperiment):
        if shard is not None:
            overrides["shard"] = shard
        if out is not None:
            overrides["out"] = str(out)
        if resume:
            overrides["resume"] = True
    obs_emit(
        "experiment.start", spec_hash=spec.spec_hash(), experiment=spec.name
    )
    result = cls(**overrides).run()
    obs_emit(
        "experiment.done", spec_hash=spec.spec_hash(), experiment=spec.name
    )
    return ExperimentSpecRun(
        spec_hash=spec.spec_hash(),
        experiment_id=result.experiment_id,
        title=result.title,
        rows=tuple(dict(row) for row in result.rows),
        notes=tuple(result.notes),
        params=dict(result.params),
        wall_seconds=float(result.wall_seconds),
        series=tuple(sorted(result.series)),
        result=result,
        claims=tuple(claim.as_dict() for claim in result.claims),
    )


def _resume_persisted(spec: RunSpec):
    """Answer a persisting run from its completed on-disk stream, if any.

    A spec whose recording names a ``persist_to`` directory that already
    holds a *complete* stream with the same ``spec_hash`` is answered
    from the stream without re-simulating — the stream was written by
    the identical run.  The result is the one its persisted document
    describes (:func:`~repro.specs.document.document_from_persisted_run`,
    recorded metrics included) with the stream's tail window as its
    trace; only execution provenance (``wall_seconds``) is the recorded
    run's.  Returns ``None`` when there is nothing resumable (then the
    caller simulates and overwrites).
    """
    persist_root = spec.recording.persist_to
    if persist_root is None:
        return None
    if spec.seed is None:
        # an unseeded run draws fresh OS entropy every time: two
        # executions are logically independent random runs, so a cached
        # stream must never answer for a new one
        return None
    from ..errors import SerializationError
    from ..io.streaming import StreamedTrace, find_persisted_by_hash
    from .document import document_from_persisted_run, result_from_document

    # the persist target itself answers when it holds the matching
    # stream; otherwise any complete run *under* it does (an ensemble
    # root full of member directories, a service's shared runs dir) —
    # the scan skips unreadable manifests with a recorded reason
    run_dir = find_persisted_by_hash(persist_root, spec.spec_hash())
    if run_dir is None:
        return None
    document = document_from_persisted_run(run_dir)
    if document is None:
        return None
    try:
        stream = StreamedTrace(run_dir)
        window = int(stream.manifest.get("window_snapshots") or 1)
        tail = stream[max(0, len(stream) - window) :]
    except (SerializationError, TypeError, ValueError):
        # a half-believable directory is "not resumable", never a crash:
        # the caller re-simulates and overwrites it
        return None
    return replace(result_from_document(document), trace=tail)


# ----------------------------------------------------------------------
# The fidelity resolver table
# ----------------------------------------------------------------------
#
# Every single-run spec resolves through exactly one entry of this
# table, keyed by ``spec.fidelity`` — the run-dispatch path is data,
# not an if-ladder.  ``exact`` is today's engine path unchanged (bit
# for bit); ``surrogate`` answers from the mean-field fluid limit and
# fails loudly when the protocol has no surrogate; ``auto`` answers
# from the surrogate only when its validity verdict is TRUSTED and
# otherwise escalates to the exact resolver, stamping the escalation
# verdict into the result metadata.


def _resolve_exact(spec: RunSpec):
    """The exact tier: one ``simulate`` call, population or gossip.

    The ``backend`` key is checked here, once per run, a resumed one
    included: a removed name warns, an unknown one raises, and every
    accepted name runs the engines' numpy kernels.
    """
    from ..core.kernels import get_backend

    get_backend(spec.backend)
    resumed = _resume_persisted(spec)
    if resumed is not None:
        return resumed
    from ..core.run import simulate

    recording = spec.recording
    return simulate(
        spec.build_protocol(),
        spec.build_initial(),
        engine=spec.engine,
        seed=spec.seed,
        max_interactions=spec.max_interactions,
        max_parallel_time=spec.max_parallel_time,
        snapshot_every=recording.snapshot_every,
        persist_to=recording.persist_to,
        persist_chunk_snapshots=recording.persist_chunk_snapshots,
        persist_window=recording.persist_window,
        metadata=dict(spec.metadata) or None,
        _spec=spec,
    )


def _resolve_surrogate(spec: RunSpec):
    """The surrogate tier: mean-field resolution, loud on unsupported."""
    from ..meanfield.surrogate import resolve_surrogate

    return resolve_surrogate(spec, requested="surrogate")


def _escalated(spec: RunSpec, escalation: Dict[str, Any]):
    """Run the exact tier and stamp why ``auto`` escalated.

    The exact result is bit-identical to a ``fidelity='exact'`` run of
    the same spec — arrays, scalars and trace all come from the same
    code path; only the result-level metadata gains a ``'fidelity'``
    key recording the escalation.
    """
    result = _resolve_exact(spec)
    return replace(
        result,
        metadata={
            **result.metadata,
            "fidelity": {
                "requested": "auto",
                "resolved": "exact",
                **escalation,
            },
        },
    )


def _resolve_auto(spec: RunSpec):
    """The adaptive tier: surrogate when TRUSTED, exact otherwise."""
    from ..meanfield.surrogate import (
        TRUSTED,
        resolve_surrogate,
        surrogate_unsupported_reason,
        untrusted_by_margin,
    )

    from ..obs import metrics as obs_metrics
    from ..obs.runtime import emit as obs_emit

    reason = surrogate_unsupported_reason(spec)
    if reason is not None:
        obs_metrics.REGISTRY.inc("surrogate_verdicts_total", verdict="UNSUPPORTED")
        obs_emit(
            "fidelity.escalate",
            protocol=spec.protocol.name,
            verdict="UNSUPPORTED",
            reason=reason,
        )
        return _escalated(spec, {"verdict": "UNSUPPORTED", "reasons": [reason]})
    validity = untrusted_by_margin(spec)
    if validity is not None:
        # the margin already rules out TRUSTED: skip the solve
        obs_metrics.REGISTRY.inc("surrogate_verdicts_total", verdict=validity.verdict)
    else:
        surrogate = resolve_surrogate(spec, requested="auto")
        if surrogate.validity.verdict == TRUSTED:
            return surrogate
        validity = surrogate.validity
    obs_emit(
        "fidelity.escalate",
        protocol=spec.protocol.name,
        verdict=validity.verdict,
        reasons=list(validity.reasons),
    )
    return _escalated(
        spec,
        {
            "verdict": validity.verdict,
            "reasons": list(validity.reasons),
            "report": validity.as_dict(),
        },
    )


_FIDELITY_RESOLVERS: Dict[str, Any] = {
    "exact": _resolve_exact,
    "surrogate": _resolve_surrogate,
    "auto": _resolve_auto,
}


def _run_single(spec: RunSpec):
    """One run: resolve through the fidelity table."""
    try:
        resolver = _FIDELITY_RESOLVERS[spec.fidelity]
    except KeyError:  # pragma: no cover — RunSpec validates the name
        raise SpecError(
            f"no resolver registered for fidelity {spec.fidelity!r}; "
            f"registered: {sorted(_FIDELITY_RESOLVERS)}"
        ) from None
    return resolver(spec)


def summary_row(result: Any) -> Dict[str, Any]:
    """The scalar summary of a run result, model-agnostic.

    Population results report interactions and parallel time; gossip
    results report rounds (their parallel-time analogue).  Comparison
    sweeps across both model families rely on the shared vocabulary.
    """
    # wall_seconds is deliberately absent: summary rows feed sweep
    # checkpoints, whose merged artifact must be bit-identical across
    # re-executions — wall time is execution provenance, not a result
    row: Dict[str, Any] = {
        "stabilized": bool(result.stabilized),
        "winner": result.winner,
    }
    # gossip results (and gossip surrogates) count rounds; population
    # surrogates carry rounds=None and report like population runs
    if getattr(result, "rounds", None) is not None:
        row["rounds"] = int(result.rounds)
        row["parallel_time"] = float(result.rounds)
        row["stabilization_parallel_time"] = (
            None
            if result.stabilization_rounds is None
            else float(result.stabilization_rounds)
        )
    else:
        row["interactions"] = int(result.interactions)
        row["parallel_time"] = float(result.parallel_time)
        row["stabilization_parallel_time"] = result.stabilization_parallel_time
    return row


def _fidelity_row(spec: RunSpec, result: Any) -> Dict[str, Any]:
    """Fidelity columns for ensemble/sweep rows.

    Empty for the exact tier: pre-fidelity rows (and therefore merged
    sweep artifacts) must stay byte-identical when nothing asked for a
    surrogate.  Non-exact tiers record which tier was requested, which
    one actually answered, and the validity verdict.
    """
    if spec.fidelity == "exact":
        return {}
    info = dict(getattr(result, "metadata", {}).get("fidelity") or {})
    return {
        "fidelity": spec.fidelity,
        "resolved_fidelity": str(info.get("resolved", "exact")),
        "verdict": info.get("verdict"),
    }


class _MemberTask:
    """Picklable adapter running one ensemble member by index."""

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec

    def __call__(self, index: int):
        return run_spec(self.spec.member_spec(index))


def _run_ensemble(spec: EnsembleSpec, *, workers: Optional[int] = 0) -> EnsembleRun:
    from ..obs.runtime import emit as obs_emit
    from ..parallel import parallel_map

    obs_emit(
        "ensemble.start",
        spec_hash=spec.spec_hash(),
        members=spec.num_runs,
        workers=workers,
    )
    results = parallel_map(
        _MemberTask(spec), list(range(spec.num_runs)), workers=workers
    )
    obs_emit("ensemble.done", spec_hash=spec.spec_hash(), members=spec.num_runs)
    rows = []
    for index, result in enumerate(results):
        rows.append(
            {
                "member": index,
                "seed": spec.member_seed(index),
                **summary_row(result),
                **_fidelity_row(spec.run, result),
            }
        )
    return EnsembleRun(
        spec_hash=spec.spec_hash(),
        seeds=tuple(spec.member_seed(i) for i in range(spec.num_runs)),
        results=tuple(results),
        rows=tuple(rows),
    )


def _point_run_spec(point: Any, point_seed: int) -> RunSpec:
    """The seeded, persistence-disambiguated spec of one sweep point."""
    spec = point.run_spec
    if spec is None:
        raise SpecError(
            f"sweep point {point.canonical_label!r} carries no RunSpec; "
            "only plans built by SweepSpec.plan() run through run_spec"
        )
    spec = spec.with_seed(point_seed)
    recording = spec.recording
    if recording.persist_to is not None:
        # the slug is for humans; the label-hash suffix guarantees two
        # points whose labels differ only in slug-unsafe characters can
        # never stream into the same directory (the checkpoint layer
        # gets the same guarantee from its grid-index prefix)
        slug = _SLUG_UNSAFE.sub("-", point.canonical_label)
        unique = hashlib.sha256(
            point.canonical_label.encode("utf-8")
        ).hexdigest()[:8]
        spec = spec.with_recording(
            replace(
                recording,
                persist_to=(
                    f"{recording.persist_to.rstrip('/')}/{slug}-{unique}"
                ),
            )
        )
    return spec


def _sweep_point_task(point: Any, point_seed: int) -> Dict[str, Any]:
    """Module-level (picklable) task computing one spec-sweep point."""
    spec = _point_run_spec(point, point_seed)
    result = run_spec(spec)
    return {
        **{str(axis): value for axis, value in sorted(point.extras.items())},
        "n": spec.n,
        "k": spec.protocol.k,
        "protocol": spec.protocol.name,
        "seed": point_seed,
        "spec_hash": spec.spec_hash(),
        **summary_row(result),
        **_fidelity_row(spec, result),
    }


def _run_sweep(
    spec: SweepSpec,
    *,
    workers: Optional[int] = 0,
    shard: Any = None,
    out: Union[None, str, Path] = None,
    resume: bool = False,
) -> SweepSpecRun:
    from ..sweep import run_sweep

    # a full run with ``out`` is the merge; its provenance.json embeds
    # the root spec document and hash via the plan meta
    run = run_sweep(
        spec.plan(),
        _sweep_point_task,
        shard=shard,
        workers=workers,
        out_dir=out,
        resume=resume,
    )
    return SweepSpecRun(
        spec_hash=spec.spec_hash(),
        sweep_id=spec.sweep_id,
        rows=tuple(run.rows),
        partial=not run.shard.is_full,
        artifacts=run.artifacts,
        escalated=_escalated_labels(spec, run.rows),
    )


def _escalated_labels(spec: SweepSpec, rows) -> Tuple[str, ...]:
    """Axis labels of the ``auto`` points the exact tier answered."""
    labels = []
    for row in rows:
        if (
            row.get("fidelity") == "auto"
            and row.get("resolved_fidelity") == "exact"
        ):
            labels.append(
                ",".join(
                    f"{axis}={row[axis]}"
                    for axis in sorted(spec.axes)
                    if axis in row
                )
            )
    return tuple(labels)
