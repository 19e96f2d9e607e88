"""Ambient observability scopes and the engine-run observer.

The glue between :class:`~repro.obs.config.ObsConfig` and the
execution layers.  A scope is pushed with :func:`activated` (the CLI's
``--obs``/``--progress`` flags wrap the whole command in one;
``simulate`` wraps each run in :func:`run_scope`); inside it,
:func:`current` returns the active config, :func:`active_journal` the
innermost open journal, and :func:`observe_engine_run` hands engines
an :class:`EngineRunObserver` — or ``None``, which is the entire hot
path cost when observability is off.

Fork safety: scope entries are keyed by PID.  A pool child that
inherits the parent's module state (``fork`` start method) sees no
active scope and no journal of its own — its telemetry is re-enabled
explicitly, metrics-only, by the pool's task wrapper
(:func:`ensure_worker_metrics`), and its counter deltas travel home
through the result plumbing instead of racing the parent's journal
file.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from . import metrics
from .config import ObsConfig
from .journal import JOURNAL_NAME, RunJournal
from .progress import ProgressReporter

__all__ = [
    "EngineRunObserver",
    "activated",
    "active_journal",
    "current",
    "emit",
    "ensure_worker_metrics",
    "observe_engine_run",
    "run_scope",
]

# (pid, config) / (pid, journal) — pid-keyed so fork-inherited copies
# are inert in the child (see module docstring)
_STACK: List[Tuple[int, ObsConfig]] = []
_JOURNALS: List[Tuple[int, RunJournal]] = []


def current() -> Optional[ObsConfig]:
    """The innermost active config of *this* process, or ``None``."""
    pid = os.getpid()
    for entry_pid, config in reversed(_STACK):
        if entry_pid == pid:
            return config
    return None


def active_journal() -> Optional[RunJournal]:
    """The innermost open journal of *this* process, or ``None``."""
    pid = os.getpid()
    for entry_pid, journal in reversed(_JOURNALS):
        if entry_pid == pid:
            return journal
    return None


def emit(name: str, **fields: Any) -> None:
    """Journal an event if a journal is open; free otherwise."""
    if not _JOURNALS:
        return
    journal = active_journal()
    if journal is not None:
        journal.event(name, **fields)


@contextmanager
def activated(
    config: Optional[ObsConfig],
    *,
    journal_path: Optional[Union[str, Path]] = None,
    journal_meta: Optional[Dict[str, Any]] = None,
) -> Iterator[Optional[ObsConfig]]:
    """Push an observability scope for the duration of the block.

    ``journal_path`` (defaulting to ``config.journal_path``) opens a
    :class:`RunJournal` for the scope when ``config.journal`` is on; a
    journal-enabled scope *without* a path simply defers — a nested
    :func:`run_scope` with a persistence directory will open one there.
    """
    if config is None or not config.enabled:
        yield None
        return
    pid = os.getpid()
    _STACK.append((pid, config))
    if config.metrics:
        metrics.REGISTRY.activate()
    journal = None
    path = journal_path if journal_path is not None else config.journal_path
    if config.journal and path is not None:
        journal = RunJournal(path, meta=journal_meta)
        _JOURNALS.append((pid, journal))
    try:
        yield config
    finally:
        if journal is not None:
            try:
                _JOURNALS.remove((pid, journal))
            except ValueError:
                pass
            journal.close()
        if config.metrics:
            metrics.REGISTRY.deactivate()
        try:
            _STACK.remove((pid, config))
        except ValueError:
            pass


def ensure_worker_metrics() -> None:
    """Enable metrics-only telemetry in a pool worker process.

    Idempotent, and deliberately *not* journal/progress: many workers
    sharing the parent's journal file or terminal would interleave.
    Counters accumulate in the worker's registry; the pool's task
    wrapper ships per-task deltas back for the parent to merge.
    """
    pid = os.getpid()
    if current() is None:
        _STACK.append((pid, ObsConfig(metrics=True)))
    metrics.REGISTRY.ensure_enabled()


# ----------------------------------------------------------------------
# Per-run scope (simulate, for population and gossip runs alike)
# ----------------------------------------------------------------------


class RunScope:
    """Handle a run uses to collect its own telemetry afterwards."""

    __slots__ = ("config", "_baseline")

    def __init__(self, config: Optional[ObsConfig]) -> None:
        self.config = config
        self._baseline = (
            metrics.REGISTRY.snapshot()
            if config is not None and config.metrics and metrics.REGISTRY.enabled
            else None
        )

    @property
    def active(self) -> bool:
        return self.config is not None

    def metrics_delta(self) -> Optional[Dict[str, Any]]:
        """Metrics recorded since the scope opened (``None`` if off)."""
        if self._baseline is None:
            return None
        return metrics.snapshot_delta(self._baseline, metrics.REGISTRY.snapshot())


_INACTIVE_SCOPE = RunScope(None)


@contextmanager
def run_scope(
    config: Optional[ObsConfig] = None,
    *,
    persist_dir: Optional[Union[str, Path]] = None,
    journal_meta: Optional[Dict[str, Any]] = None,
) -> Iterator[RunScope]:
    """Observability scope for one run.

    ``config`` is the run's explicit :class:`ObsConfig` (from the spec
    or the ``simulate(obs=...)`` keyword); when it is ``None``/off,
    the ambient scope — if any — governs.  Whichever config applies,
    a journal that wants a file but has no explicit path gets
    ``<persist_dir>/journal.jsonl`` when the run persists, so crashed
    persisted runs leave their timeline next to their chunks.
    """
    ambient = current()
    explicit = config is not None and config.enabled
    effective = config if explicit else ambient
    if effective is None or not effective.enabled:
        yield _INACTIVE_SCOPE
        return
    journal_path: Optional[Union[str, Path]] = None
    if effective.journal:
        journal_path = effective.journal_path
        if journal_path is None and persist_dir is not None and active_journal() is None:
            journal_path = Path(persist_dir) / JOURNAL_NAME
    if explicit or journal_path is not None:
        # (re-)activation is cheap and refcounted; this is also how an
        # ambient --obs run acquires its per-run-directory journal
        with activated(effective, journal_path=journal_path, journal_meta=journal_meta):
            yield RunScope(effective)
    else:
        yield RunScope(effective)


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------


class EngineRunObserver:
    """Chunk-boundary instrumentation for one ``engine.run`` call.

    Created once per run by :func:`observe_engine_run`; the engine
    calls :meth:`chunk_start` / :meth:`chunk_end` around each step
    batch and :meth:`finish` when the loop exits.  All cost sits at
    chunk boundaries; nothing here consumes RNG or touches engine
    state, so instrumented runs are bit-identical to bare ones.
    """

    __slots__ = (
        "_metrics",
        "_journal",
        "_reporter",
        "_horizon",
        "_span_id",
        "_chunk_started",
        "_last_interactions",
        "_journal_interval",
        "_journal_last",
        "_chunks",
    )

    def __init__(
        self,
        engine: Any,
        horizon: Optional[int],
        config: ObsConfig,
        journal: Optional[RunJournal],
        reporter: Optional[ProgressReporter],
    ) -> None:
        self._metrics = config.metrics and metrics.REGISTRY.enabled
        self._journal = journal
        self._reporter = reporter
        self._horizon = horizon
        self._chunk_started = 0.0
        self._last_interactions = int(engine.interactions)
        self._journal_interval = config.progress_interval
        self._journal_last = time.monotonic()
        self._chunks = 0
        self._span_id = None
        if journal is not None:
            self._span_id = journal.span_begin(
                "engine.run",
                engine=getattr(engine, "engine_name", type(engine).__name__),
                backend=getattr(engine, "backend", None),
                n=getattr(engine, "n", None),
                horizon=horizon,
                start_interactions=self._last_interactions,
            )

    def chunk_start(self) -> None:
        if self._metrics:
            self._chunk_started = time.perf_counter()

    def chunk_end(self, engine: Any) -> None:
        interactions = int(engine.interactions)
        stepped = interactions - self._last_interactions
        self._last_interactions = interactions
        self._chunks += 1
        if self._metrics:
            metrics.REGISTRY.observe(
                "kernel_step_seconds", time.perf_counter() - self._chunk_started
            )
            if stepped:
                metrics.REGISTRY.inc("interactions_total", stepped)
        heartbeat = None
        if self._reporter is not None:
            heartbeat = self._reporter.maybe_report(
                interactions=interactions,
                horizon=self._horizon,
                undecided_fraction=_undecided_fraction(engine),
            )
        if self._journal is not None:
            if heartbeat is not None:
                self._journal.event("engine.progress", **heartbeat)
                self._journal_last = time.monotonic()
            elif self._reporter is None:
                # journal-only runs still get a bounded-volume pulse
                now = time.monotonic()
                if now - self._journal_last >= self._journal_interval:
                    self._journal_last = now
                    self._journal.event(
                        "engine.progress",
                        interactions=interactions,
                        chunks=self._chunks,
                        horizon=self._horizon,
                    )

    def finish(self, engine: Any, error: Optional[BaseException] = None) -> None:
        if self._journal is not None and self._span_id is not None:
            fields: Dict[str, Any] = {
                "interactions": int(engine.interactions),
                "chunks": self._chunks,
            }
            if error is not None:
                fields["error"] = type(error).__name__
            self._journal.span_end("engine.run", self._span_id, **fields)


def observe_engine_run(engine: Any, horizon: Optional[int]) -> Optional[EngineRunObserver]:
    """The engines' single observability hook.

    Returns ``None`` — the whole off-path cost — unless an active
    scope wants metrics, journaling or progress for this process.
    """
    config = current()
    if config is None:
        return None
    journal = active_journal() if config.journal else None
    reporter = None
    if config.progress:
        reporter = ProgressReporter(
            interval=config.progress_interval,
            label=getattr(engine, "engine_name", type(engine).__name__),
        )
    if not (config.metrics or journal is not None or reporter is not None):
        return None
    return EngineRunObserver(engine, horizon, config, journal, reporter)


def _undecided_fraction(engine: Any) -> Optional[float]:
    """Fraction of agents in the undecided state, when that exists."""
    protocol = getattr(engine, "protocol", None) or getattr(engine, "_protocol", None)
    if protocol is None:
        return None
    try:
        from ..core.protocol import default_undecided_index

        index = default_undecided_index(protocol)
        if index is None:
            return None
        counts = engine.counts
        n = getattr(engine, "n", None) or sum(counts)
        return counts[index] / n if n else None
    except Exception:
        return None
