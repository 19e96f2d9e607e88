"""Process-pool execution of independent seeded ensemble members.

Every distributional claim reproduced from the paper — stabilization
time tails, the Lemma 3.1/3.3/3.4 hitting-time experiments, the
Figure 1 bands — is measured over ensembles of independent seeded runs.
This module fans those runs out over ``multiprocessing`` workers while
keeping the results **bit-identical to serial execution**:

* every run's stream is derived from the root seed and its index alone
  (:func:`repro.rng.derive_seed` for :class:`repro.specs.EnsembleSpec`
  members, :func:`repro.rng.spawn_seeds` children mapped with
  :func:`parallel_map`), never from worker identity or scheduling;
* results are returned in submission order regardless of completion
  order.

Consequently ``workers=0`` (in-process, no subprocesses — deterministic
and debuggable), ``workers=1`` and ``workers=32`` all produce the same
numbers for the same root seed; the worker count is purely a throughput
knob.

Task functions must be picklable when ``workers > 0``: module-level
functions and :func:`functools.partial` applications of them are fine,
closures and lambdas are not (use ``workers=0`` for those).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional

from ..errors import ParallelError
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime

__all__ = [
    "available_workers",
    "resolve_workers",
    "parallel_map",
]


def available_workers() -> int:
    """Number of CPUs actually available to this process.

    Uses the scheduler affinity mask where the OS exposes one (a
    container limited to 4 cores reports 4, not the host's core count),
    falling back to :func:`os.cpu_count`.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument into a concrete pool size.

    * ``None`` — all available CPUs (see :func:`available_workers`);
    * ``0`` — in-process serial execution (no pool at all);
    * ``N > 0`` — a pool of exactly ``N`` worker processes.
    """
    if workers is None:
        return available_workers()
    if workers != int(workers):
        raise ParallelError(f"workers must be an integer, got {workers!r}")
    workers = int(workers)
    if workers < 0:
        raise ParallelError(f"workers must be non-negative, got {workers}")
    return workers


class _ObsPayload:
    """A task result bundled with the worker's metric delta."""

    __slots__ = ("value", "metrics")

    def __init__(self, value: Any, metrics: dict):
        self.value = value
        self.metrics = metrics


class _ObsTask:
    """Picklable wrapper measuring a task's metric delta in the worker.

    Only used when the parent's metrics registry is live at dispatch
    time.  The worker activates its own registry (spawn-started workers
    begin with an inert one), snapshots before and after the task, and
    ships the *delta* home so fork-inherited parent counters are never
    double-counted.  The parent folds each delta back into its registry
    as results arrive — ensembles therefore aggregate child-process
    telemetry exactly as if they had run in-process.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, item: Any) -> "_ObsPayload":
        obs_runtime.ensure_worker_metrics()
        baseline = obs_metrics.REGISTRY.snapshot()
        value = self.fn(item)
        delta = obs_metrics.snapshot_delta(
            baseline, obs_metrics.REGISTRY.snapshot()
        )
        return _ObsPayload(value, delta)


def _absorb_obs(value: Any) -> Any:
    """Merge an ``_ObsPayload``'s delta into the parent registry; unwrap."""
    if isinstance(value, _ObsPayload):
        if value.metrics:
            obs_metrics.REGISTRY.merge_snapshot(value.metrics)
        return value.value
    return value


def _ensure_picklable(fn: Callable[..., Any]) -> None:
    """Fail fast, with guidance, before a pool chokes on an unpicklable task."""
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise ParallelError(
            f"task function {fn!r} cannot be pickled for worker processes: "
            f"{exc}. Use a module-level function (or a functools.partial of "
            "one), or run with workers=0 for in-process execution."
        ) from exc


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: Optional[int] = 0,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Apply ``fn`` to each item, optionally over a process pool.

    Results come back in input order.  ``workers=0`` runs in-process;
    otherwise a :class:`~concurrent.futures.ProcessPoolExecutor` of
    ``min(workers, len(items))`` processes runs one item per task.

    ``on_result(index, result)`` is invoked once per item as soon as its
    result is available — in input order for ``workers=0``, in
    *completion* order on a pool — which lets callers checkpoint
    incrementally instead of waiting for the whole map (the sweep
    runner's resume granularity depends on this).  Only the callback
    observes scheduling; the returned list does not.
    """
    items = list(items)
    pool_size = min(resolve_workers(workers), len(items))
    if pool_size <= 0:
        results = []
        for index, item in enumerate(items):
            value = fn(item)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results
    _ensure_picklable(fn)
    task: Callable[[Any], Any] = fn
    if obs_metrics.REGISTRY.enabled:
        task = _ObsTask(fn)
        obs_metrics.REGISTRY.inc("pool_worker_spawned", value=pool_size)
    obs_runtime.emit("pool.start", workers=pool_size, items=len(items))
    results: List[Any] = [None] * len(items)
    try:
        with ProcessPoolExecutor(
            max_workers=pool_size, mp_context=multiprocessing.get_context()
        ) as executor:
            futures = {
                executor.submit(task, item): index
                for index, item in enumerate(items)
            }
            for future in as_completed(futures):
                index = futures[future]
                value = _absorb_obs(future.result())
                if on_result is not None:
                    on_result(index, value)
                results[index] = value
    except BrokenProcessPool as exc:
        obs_metrics.REGISTRY.inc("pool_worker_failed")
        raise ParallelError(
            "a worker process died mid-task; rerun with workers=0 to "
            "reproduce the failure in-process"
        ) from exc
    obs_runtime.emit("pool.done", workers=pool_size, items=len(items))
    return results
