"""Shard execution with per-point checkpoints, resume and the merge.

:func:`run_sweep` executes the points a shard owns by fanning them over
the :mod:`repro.parallel` pool (one grid point per task — the inner
ensembles run serially inside the worker, so worker parallelism moves
*up* one level from PR 1's intra-ensemble pool to the grid itself).

Each finished point is checkpointed immediately to
``<out>/<sweep_id>/point-<index>-<label>.json`` — written atomically, in
completion order, by :func:`repro.parallel.parallel_map`'s ``on_result``
callback — so an interrupted sweep loses at most the points that were
mid-flight.
Re-running with ``resume=True`` loads finished checkpoints (after
verifying they belong to this exact plan: same root seed, same grid
point, same per-point seed) and executes only the remainder.

A run over the whole plan with an ``out_dir`` is also the merge: from
its own outcomes it writes ``merged.json`` (rows, root seed, per-point
seeds and point labels — byte-identical for every sharding and worker
count) and ``provenance.json`` (the shard that computed each point, the
repo state and the plan's ``meta`` — the execution record).

Rows are normalised through a JSON round-trip before they are returned
*or* checkpointed, so a resumed sweep is byte-identical to an
uninterrupted one — there is no "fresh row vs loaded row" divergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import SweepError
from ..io import atomic_write
from ..io.serialization import _jsonable, save_result_rows
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime
from ..parallel import parallel_map
from ..workloads.sweeps import SweepPoint
from .plan import ShardSpec, SweepPlan
from .provenance import repo_state

__all__ = [
    "PointOutcome",
    "ShardRun",
    "SweepStatus",
    "run_sweep",
    "sweep_status",
    "load_checkpoint",
]

#: Callable computing one grid point: ``task_fn(point, point_seed) -> row``.
PointTask = Callable[[SweepPoint, int], Dict[str, Any]]


@dataclass(frozen=True)
class PointOutcome:
    """One computed (or checkpoint-restored) grid point.

    ``shard`` names the shard that computed the point: the running one,
    or for a restored point the one its checkpoint records.
    """

    index: int
    point: SweepPoint
    seed: int
    row: Dict[str, Any]
    reused: bool
    shard: str


@dataclass(frozen=True)
class ShardRun:
    """Everything one :func:`run_sweep` call produced, in grid order.

    ``artifacts`` holds the ``merged.json`` and ``provenance.json``
    paths a full run with an ``out_dir`` wrote; it is empty otherwise.
    """

    sweep_id: str
    shard: ShardSpec
    outcomes: Tuple[PointOutcome, ...]
    artifacts: Tuple[Path, ...] = ()

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The rows of this shard's points, ordered by grid index."""
        return [outcome.row for outcome in self.outcomes]

    @property
    def reused(self) -> int:
        """Points restored from checkpoints instead of re-executed."""
        return sum(1 for outcome in self.outcomes if outcome.reused)


@dataclass(frozen=True)
class SweepStatus:
    """Checkpoint inventory of a sweep directory against a plan."""

    sweep_id: str
    total: int
    done: Tuple[int, ...]
    missing: Tuple[int, ...]
    shards_seen: Tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


class _PointTask:
    """Picklable adapter running ``task_fn`` on ``(index, point, seed)``."""

    def __init__(self, task_fn: PointTask):
        self.task_fn = task_fn

    def __call__(self, item: Tuple[int, SweepPoint, int]) -> Dict[str, Any]:
        _, point, seed = item
        return _canonical_row(self.task_fn(point, seed))


def _canonical_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise a row through the exact JSON round-trip checkpoints use."""
    if not isinstance(row, dict):
        raise SweepError(
            f"sweep point tasks must return a dict row, got {type(row).__name__}"
        )
    return json.loads(json.dumps(_jsonable(row), sort_keys=True))


def _canonical_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    """Plan meta in checkpoint-comparable form (tuples become lists)."""
    return json.loads(json.dumps(_jsonable(meta), sort_keys=True))


def sweep_directory(plan: SweepPlan, out_dir: Union[str, Path]) -> Path:
    """The checkpoint directory of ``plan`` under ``out_dir``."""
    return Path(out_dir) / plan.sweep_id


def _checkpoint_payload(
    plan: SweepPlan, index: int, seed: int, shard: ShardSpec, row: Dict[str, Any]
) -> Dict[str, Any]:
    point = plan.points[index]
    return {
        "sweep_id": plan.sweep_id,
        "point_index": index,
        "canonical_label": point.canonical_label,
        "point": {
            "n": point.n,
            "k": point.k,
            "bias": point.bias,
            "label": point.label,
            "extras": _jsonable(point.extras),
        },
        "seed": seed,
        "root_seed": plan.root_seed,
        "meta": _canonical_meta(plan.meta),
        "shard": str(shard),
        "row": row,
    }


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one checkpoint file, validating its structure."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SweepError(f"could not read sweep checkpoint {path}: {exc}") from exc
    required = {
        "sweep_id",
        "point_index",
        "canonical_label",
        "seed",
        "root_seed",
        "row",
    }
    if not isinstance(payload, dict) or not required <= set(payload):
        raise SweepError(f"{path} is not a sweep checkpoint file")
    return payload


def _read_checkpoints(
    plan: SweepPlan, directory: Path, indices: Iterable[int]
) -> Dict[int, Dict[str, Any]]:
    """The checkpoints of ``indices`` present in ``directory``, verified.

    A checkpoint may only be reused for the exact plan that wrote it;
    one written under any other plan fails the whole read.
    """
    found: Dict[int, Dict[str, Any]] = {}
    meta = _canonical_meta(plan.meta)
    for index in indices:
        path = directory / plan.checkpoint_name(index)
        if not path.exists():
            continue
        payload = load_checkpoint(path)
        expected = {
            "sweep_id": plan.sweep_id,
            "point_index": index,
            "canonical_label": plan.points[index].canonical_label,
            "seed": plan.point_seed(index),
            "root_seed": plan.root_seed,
            # meta carries the computation parameters (num_seeds,
            # engine, …): a checkpoint computed under different --set
            # overrides is a different number, not a reusable one.
            "meta": meta,
        }
        for key, value in expected.items():
            if payload.get(key) != value:
                raise SweepError(
                    f"checkpoint {path} does not match the current plan: "
                    f"{key} is {payload.get(key)!r}, expected {value!r}. "
                    "The sweep directory belongs to a different plan — "
                    "use a fresh --out directory (or delete the stale files)."
                )
        found[index] = payload
    return found


def _write_merged(
    plan: SweepPlan, directory: Path, outcomes: Tuple[PointOutcome, ...]
) -> Tuple[Path, ...]:
    """Write ``merged.json`` + ``provenance.json`` for a whole-plan run."""
    point_seeds = plan.point_seeds()
    merged_path = directory / "merged.json"
    save_result_rows(
        [outcome.row for outcome in outcomes],
        merged_path,
        extra={
            "sweep_id": plan.sweep_id,
            "root_seed": plan.root_seed,
            "point_seeds": point_seeds,
            "points": [point.canonical_label for point in plan.points],
        },
    )
    provenance_path = directory / "provenance.json"
    provenance = {
        "sweep_id": plan.sweep_id,
        "root_seed": plan.root_seed,
        "point_seeds": point_seeds,
        "shard_map": {
            outcome.point.canonical_label: outcome.shard for outcome in outcomes
        },
        "repo_state": repo_state(),
        "meta": _jsonable(plan.meta),
    }
    provenance_path.write_text(json.dumps(provenance, indent=2, sort_keys=True))
    return merged_path, provenance_path


def run_sweep(
    plan: SweepPlan,
    task_fn: PointTask,
    *,
    shard: Union[None, str, ShardSpec] = None,
    workers: Optional[int] = 0,
    out_dir: Union[None, str, Path] = None,
    resume: bool = False,
) -> ShardRun:
    """Execute the points of ``plan`` owned by ``shard``.

    Parameters
    ----------
    task_fn:
        ``task_fn(point, point_seed) -> row`` computing one grid point.
        Must be a module-level callable (or :func:`functools.partial` of
        one) when ``workers > 0``.  The per-point seed is
        ``plan.point_seed(grid_index)`` — the task must derive *all* of
        its randomness from it.
    shard:
        ``'i/m'`` / :class:`ShardSpec` / ``None`` (whole plan).
    workers:
        Grid points in flight at once (``0`` in-process serial, ``None``
        all CPUs).  Results are bit-identical for every value.
    out_dir:
        Checkpoint root; points land in ``<out_dir>/<sweep_id>/``.
        ``None`` disables checkpointing (and therefore resume); a
        partial shard requires one, since its points exist only to be
        merged.  A whole-plan run with one also writes ``merged.json``
        and ``provenance.json`` there.
    resume:
        Reuse verified checkpoints instead of re-executing their points.
        After ``m`` shards, a whole-plan ``resume=True`` run is the
        merge: it restores every point and computes any still missing.
    """
    shard = ShardSpec.parse(shard)
    if not shard.is_full and out_dir is None:
        # a partial shard only makes sense if its points persist for a
        # later merge; computing them into thin air wastes the grid
        raise SweepError(
            f"shard {shard} of sweep {plan.sweep_id!r} needs an 'out' "
            "checkpoint directory — without one the shard's points "
            "cannot be merged and the work is lost"
        )
    if resume and out_dir is None:
        raise SweepError("resume=True requires an out_dir to resume from")
    directory: Optional[Path] = None
    if out_dir is not None:
        directory = sweep_directory(plan, out_dir)
        directory.mkdir(parents=True, exist_ok=True)

    owned = plan.items(shard)
    restored = (
        _read_checkpoints(plan, directory, (index for index, _ in owned))
        if resume
        else {}
    )
    pending: List[Tuple[int, SweepPoint, int]] = [
        (index, point, plan.point_seed(index))
        for index, point in owned
        if index not in restored
    ]

    # telemetry only — rows and checkpoints stay byte-identical with
    # observability off (the CI sweep leg diffs merged.json to prove it)
    if restored:
        obs_metrics.REGISTRY.inc("sweep_points_resumed", value=len(restored))
    if pending:
        obs_metrics.REGISTRY.inc("sweep_points_started", value=len(pending))
    obs_runtime.emit(
        "sweep.start",
        sweep_id=plan.sweep_id,
        shard=str(shard),
        points=len(plan),
        restored=len(restored),
        pending=len(pending),
    )

    def _checkpoint(position: int, row: Dict[str, Any]) -> None:
        index, _, seed = pending[position]
        if directory is not None:
            # atomic: a reader (or a resume) never sees a torn checkpoint
            payload = _checkpoint_payload(plan, index, seed, shard, row)
            atomic_write(
                directory / plan.checkpoint_name(index),
                json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
            )
        obs_metrics.REGISTRY.inc("sweep_points_completed")
        obs_runtime.emit(
            "sweep.point",
            index=index,
            label=plan.points[index].canonical_label,
        )

    computed_rows = parallel_map(
        _PointTask(task_fn), pending, workers=workers, on_result=_checkpoint
    )
    computed = {
        index: row for (index, _, _), row in zip(pending, computed_rows)
    }

    outcomes = []
    for index, point in owned:
        payload = restored.get(index)
        reused = payload is not None
        outcomes.append(
            PointOutcome(
                index=index,
                point=point,
                seed=plan.point_seed(index),
                row=_canonical_row(payload["row"]) if reused else computed[index],
                reused=reused,
                shard=str(payload.get("shard", "?")) if reused else str(shard),
            )
        )
    artifacts: Tuple[Path, ...] = ()
    if shard.is_full and directory is not None:
        artifacts = _write_merged(plan, directory, tuple(outcomes))
    obs_runtime.emit(
        "sweep.done",
        sweep_id=plan.sweep_id,
        shard=str(shard),
        executed=len(pending),
        reused=len(restored),
    )
    return ShardRun(
        sweep_id=plan.sweep_id,
        shard=shard,
        outcomes=tuple(outcomes),
        artifacts=artifacts,
    )


def sweep_status(plan: SweepPlan, out_dir: Union[str, Path]) -> SweepStatus:
    """Which of ``plan``'s points are checkpointed under ``out_dir``."""
    indices = range(len(plan))
    found = _read_checkpoints(plan, sweep_directory(plan, out_dir), indices)
    return SweepStatus(
        sweep_id=plan.sweep_id,
        total=len(plan),
        done=tuple(sorted(found)),
        missing=tuple(index for index in indices if index not in found),
        shards_seen=tuple(
            sorted({str(payload.get("shard", "?")) for payload in found.values()})
        ),
    )
