"""High-level simulation front-end.

:func:`simulate` is the main entry point of the library: it wires a
protocol (or gossip dynamics), an initial configuration, an engine, a
recorder and a stopping condition together, and returns a
:class:`RunResult` carrying the trace and the headline quantities
(stabilization time, winner, ...).

Example
-------
>>> from repro import UndecidedStateDynamics, Configuration, simulate
>>> protocol = UndecidedStateDynamics(k=4)
>>> initial = Configuration.equal_minorities_with_bias(n=2000, k=4, bias=200)
>>> result = simulate(protocol, initial, seed=1, max_parallel_time=2000)
>>> result.stabilized, result.winner
(True, 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..errors import SimulationError
from ..gossip.engine import GossipDynamics, GossipEngine
from ..obs import runtime as obs_runtime
from ..obs.config import ObsConfig
from ..obs.timing import wall_timer
from ..types import SeedLike, StopPredicate
from .agent_engine import AgentEngine
from .batch_engine import BatchEngine
from .configuration import Configuration
from .counts_engine import CountsEngine
from .engine import BaseEngine
from .multibatch_engine import MultiBatchEngine
from .persistent_recorder import PersistentTrajectoryRecorder
from .protocol import OpinionAlphabet, PopulationProtocol, default_undecided_index
from .recorder import Trace, TrajectoryRecorder

__all__ = [
    "ENGINE_NAMES",
    "RunResult",
    "make_engine",
    "resolve_engine_name",
    "simulate",
]

_ENGINES = {
    "agent": AgentEngine,
    "counts": CountsEngine,
    "batch": BatchEngine,
    "multibatch": MultiBatchEngine,
}

#: Every engine name :func:`make_engine` and :class:`repro.specs.RunSpec`
#: accept; ``'auto'`` resolves through :func:`resolve_engine_name`.
ENGINE_NAMES = ("auto", *_ENGINES)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :func:`simulate` call.

    Attributes
    ----------
    trace:
        Recorded trajectory (always contains at least the initial and
        final snapshots).  For ``persist_to=`` runs this is only the
        retained tail window — the full trajectory streams to disk and
        is read back with :meth:`streamed_trace`.
    final_counts:
        State counts when the run ended.
    interactions:
        Total interactions executed (the paper's sequential time).
    parallel_time:
        ``interactions / n`` (the paper's parallel time).
    stabilized:
        Whether an absorbing configuration was reached.
    stabilization_interactions:
        Interaction index at which the last configuration change
        happened, when the run stabilized — i.e. the stabilization time.
        ``None`` for unstabilized runs.
    winner:
        1-based surviving opinion for stabilized opinion-protocol runs
        that ended in consensus; ``None`` otherwise (including the
        all-undecided failure absorption).
    engine_name:
        Which engine executed the run.
    wall_seconds:
        Wall-clock duration of the run loop.
    metadata:
        Provenance (seed, protocol, engine parameters).
    persist_dir:
        Run directory of a ``persist_to=`` run, else ``None``.

    Gossip runs (``engine_name == 'gossip'``) also report
    :attr:`rounds` and :attr:`stabilization_rounds`; one round is ``n``
    interactions.
    """

    trace: Trace
    final_counts: np.ndarray
    interactions: int
    parallel_time: float
    stabilized: bool
    stabilization_interactions: Optional[int]
    winner: Optional[int]
    engine_name: str
    wall_seconds: float
    metadata: Dict[str, Any] = field(default_factory=dict)
    persist_dir: Optional[Path] = None

    def streamed_trace(self):
        """Open the on-disk stream of a ``persist_to=`` run.

        Returns a :class:`~repro.io.streaming.StreamedTrace` over the
        full trajectory (``trace`` holds only the retained tail window
        for persisted runs).
        """
        if self.persist_dir is None:
            raise SimulationError(
                "this run was not persisted; pass persist_to= to simulate"
            )
        from ..io.streaming import StreamedTrace

        return StreamedTrace(self.persist_dir)

    @property
    def stabilization_parallel_time(self) -> Optional[float]:
        """Stabilization time in parallel-time units, if stabilized."""
        if self.stabilization_interactions is None:
            return None
        return self.stabilization_interactions / self.trace.n

    @property
    def rounds(self) -> Optional[int]:
        """Synchronous rounds of a gossip run; ``None`` for population runs."""
        if self.engine_name != GossipEngine.engine_name:
            return None
        return self.interactions // self.trace.n

    @property
    def stabilization_rounds(self) -> Optional[int]:
        """Round of a stabilized gossip run's last change, else ``None``."""
        if self.rounds is None or self.stabilization_interactions is None:
            return None
        return self.stabilization_interactions // self.trace.n

    def final_configuration(self) -> Configuration:
        """Opinion-level view of the final counts (USD-layout protocols)."""
        if self.trace.undecided_index != 0:
            raise SimulationError(
                "final_configuration requires the standard [⊥, opinions...] layout"
            )
        return Configuration.from_state_counts(self.final_counts)


def make_engine(
    protocol: Union[PopulationProtocol, GossipDynamics],
    initial: Union[Configuration, np.ndarray],
    *,
    engine: str = "auto",
    seed: SeedLike = None,
) -> BaseEngine:
    """Construct an engine from a protocol and an initial condition.

    ``initial`` may be an opinion-level :class:`Configuration` (encoded
    through the protocol) or a raw state-count vector.  ``engine`` is
    one of :data:`ENGINE_NAMES`: ``'agent'``, ``'counts'``,
    ``'multibatch'`` (all three exact), ``'batch'`` (τ-leaping, only
    when asked for) or ``'auto'`` (the exact ``'multibatch'`` engine at
    every ``n``).  Gossip dynamics always run on the synchronous
    :class:`~repro.gossip.engine.GossipEngine` (``engine='auto'``).
    """
    if isinstance(initial, Configuration):
        counts = protocol.encode_configuration(initial)
    else:
        counts = np.asarray(initial)
    if isinstance(protocol, GossipDynamics):
        if engine != "auto":
            raise SimulationError(
                f"gossip dynamics run on the synchronous gossip engine; "
                f"leave engine='auto', not {engine!r}"
            )
        engine_cls = GossipEngine
    else:
        engine = resolve_engine_name(engine, int(np.sum(counts)))
        try:
            engine_cls = _ENGINES[engine]
        except KeyError:
            raise SimulationError(
                f"unknown engine {engine!r}; choose from {sorted(_ENGINES)} or 'auto'"
            ) from None
    return engine_cls(protocol, counts, seed=seed)


def resolve_engine_name(engine: str, n: int) -> str:
    """The engine name ``'auto'`` resolves to at population size ``n``.

    ``'auto'`` is the exact collision-free batched engine
    (``'multibatch'``) at every ``n``: it is exact, and it outruns the
    counts engine from a few hundred agents up.  Shared with
    :meth:`repro.specs.RunSpec.resolved_engine`, so a spec's
    ``spec_hash`` names the engine a fresh ``simulate`` call would pick.
    """
    if engine == "auto":
        return "multibatch"
    return engine


def simulate(
    protocol: Union[PopulationProtocol, GossipDynamics],
    initial: Optional[Union[Configuration, np.ndarray]] = None,
    *,
    engine: str = "auto",
    seed: SeedLike = None,
    max_interactions: Optional[int] = None,
    max_parallel_time: Optional[float] = None,
    snapshot_every: Optional[int] = None,
    stop: Optional[StopPredicate] = None,
    persist_to: Optional[Union[str, Path]] = None,
    persist_chunk_snapshots: Optional[int] = None,
    persist_window: Optional[int] = None,
    metadata: Optional[Dict[str, Any]] = None,
    obs: Optional[ObsConfig] = None,
    _spec: Any = None,
) -> RunResult:
    """Run ``protocol`` from ``initial`` and return a :class:`RunResult`.

    ``protocol`` is a protocol object or a
    :class:`~repro.gossip.engine.GossipDynamics` (run in synchronous
    rounds on the gossip engine); a declarative
    :class:`repro.specs.RunSpec` runs through :func:`repro.specs.run_spec`
    instead, which also serves the surrogate and ``auto`` fidelity
    tiers (``run_spec(spec.with_fidelity("auto"))``).  When the keyword
    arguments are declaratively representable (registered protocol,
    integer seed, no callable ``stop``), they are normalised into a
    ``RunSpec`` whose ``spec_hash`` lands in the result metadata and the
    persistence manifest; results are bit-identical to ``run_spec`` of
    that spec.

    Exactly one horizon must be given, either ``max_interactions`` or
    ``max_parallel_time`` (converted as ``round(t * n)`` interactions,
    or ``round(t)`` rounds for gossip dynamics; a gossip
    ``max_interactions`` keeps the whole rounds within it).  The run
    ends at the horizon, at absorption (detected automatically), or
    when the optional extra ``stop`` predicate fires, whichever comes
    first.

    ``engine`` names the engine (see :func:`make_engine`).  The
    default ``'auto'`` runs the exact collision-free batched engine at
    every ``n``, so results are exact in law unless ``'batch'``
    (τ-leaping) is asked for by name.

    ``snapshot_every`` sets the recording / stop-checking cadence in
    the engine's steps — interactions, or rounds for gossip (default:
    half a parallel round, or every round).

    ``persist_to=DIR`` streams the trajectory to disk while the run is
    in flight: the recorder writes one chunk every
    ``persist_chunk_snapshots`` snapshots, on the simulation thread.
    Memory then holds at most ``persist_chunk_snapshots`` buffered plus
    ``persist_window`` tail snapshots; the result's ``trace`` is the
    tail window, its ``streamed_trace()`` the full on-disk trajectory,
    whose ``materialize()`` is bit-identical to an in-memory recording
    of the same run.  The tuning knobs require a target:
    ``persist_chunk_snapshots``/``persist_window`` without
    ``persist_to`` raise instead of being silently ignored.

    ``obs`` (an :class:`repro.obs.ObsConfig`) turns on telemetry for
    this run: metrics land in ``RunResult.metadata['obs_metrics']``
    (and the persistence manifest summary), the journal is written to
    ``obs.journal_path`` or ``<persist_to>/journal.jsonl``, and
    progress heartbeats go to stderr.  Defaults to off — and off is
    free: instrumentation happens only at chunk boundaries, consumes
    no RNG, and trajectories are bit-identical with obs on or off.
    """
    from ..specs import RunSpec, normalize_run

    if isinstance(protocol, RunSpec):
        raise SimulationError(
            "simulate takes a protocol object; run a RunSpec with "
            "repro.specs.run_spec(spec)"
        )

    if persist_to is None and (
        persist_chunk_snapshots is not None or persist_window is not None
    ):
        from ..errors import SpecError

        raise SpecError(
            "persist_chunk_snapshots/persist_window tune the spill-to-disk "
            "stream and require persist_to; without a persistence target "
            "they would be silently ignored"
        )

    if obs is not None and not isinstance(obs, ObsConfig):
        raise SimulationError(
            f"obs must be an ObsConfig, got {type(obs).__name__}"
        )

    spec = _spec
    if spec is None:
        spec = normalize_run(
            protocol,
            initial,
            engine=engine,
            seed=seed,
            max_interactions=max_interactions,
            max_parallel_time=max_parallel_time,
            snapshot_every=snapshot_every,
            stop=stop,
            persist_to=persist_to,
            persist_chunk_snapshots=persist_chunk_snapshots,
            persist_window=persist_window,
            metadata=metadata,
            obs=obs,
        )

    eng = make_engine(protocol, initial, engine=engine, seed=seed)
    if (max_interactions is None) == (max_parallel_time is None):
        raise SimulationError(
            "specify exactly one of max_interactions / max_parallel_time"
        )
    unit = eng.step_interactions
    if max_interactions is None:
        # n // unit steps per unit of parallel time: n interactions, or
        # one gossip round — the same rounding as RunSpec.resolved_horizon
        max_steps = int(round(max_parallel_time * (eng.n // unit)))
    else:
        max_steps = max_interactions // unit
    if max_steps < 0:
        raise SimulationError(f"horizon must be non-negative, got {max_steps}")
    if snapshot_every is None:
        snapshot_every = eng.default_snapshot_every

    undecided_index = default_undecided_index(protocol)
    meta = {
        "engine": eng.engine_name,
        "backend": eng.backend,
        "protocol": protocol.name,
        "n": eng.n,
        **(metadata or {}),
    }
    if spec is not None:
        # the engine's kernels are recorded above; the hash covers the
        # result-determining configuration only, so it is identical for
        # the keyword and the spec form of the same run
        meta["spec_hash"] = spec.spec_hash()

    recorder: TrajectoryRecorder
    if persist_to is not None:
        persist_kwargs: Dict[str, Any] = {}
        if persist_chunk_snapshots is not None:
            persist_kwargs["chunk_snapshots"] = persist_chunk_snapshots
        if persist_window is not None:
            persist_kwargs["window_snapshots"] = persist_window
        run_info = {
            "protocol": protocol.name,
            "n": eng.n,
            "seed": _jsonable_seed(seed),
            "engine": eng.engine_name,
            "backend": eng.backend,
            # the manifest speaks interactions, whatever the engine's step
            "snapshot_every": snapshot_every * unit,
            "max_interactions": max_steps * unit,
            # the engine has not stepped yet: these are the initial
            # state counts, kept with the fields around them for
            # inspection and forensics (resume matches spec_hash only)
            "initial_counts": [int(c) for c in eng.counts],
            "state_names": list(protocol.state_names()),
            "undecided_index": undecided_index,
            "metadata": meta,
        }
        if spec is not None:
            # the canonical identity of this run, and the only thing
            # resume matches on: a run without a spec (callable stop,
            # engine kwargs, generator seed, ...) records no hash, so
            # its stream never answers for another run
            run_info["spec_hash"] = spec.spec_hash()
            run_info["spec"] = spec.to_dict()
        recorder = PersistentTrajectoryRecorder(
            persist_to,
            run_info=run_info,
            **persist_kwargs,
        )
    else:
        recorder = TrajectoryRecorder()

    # explicit obs wins; a spec-carried config comes next; with neither,
    # run_scope falls through to the ambient (CLI --obs/--progress) scope
    obs_config = obs
    if obs_config is None and spec is not None and spec.obs.enabled:
        obs_config = spec.obs
    with obs_runtime.run_scope(
        obs_config,
        persist_dir=persist_to,
        journal_meta={
            "protocol": protocol.name,
            "n": eng.n,
            "engine": eng.engine_name,
            "backend": eng.backend,
            "seed": _jsonable_seed(seed),
            "spec_hash": meta.get("spec_hash"),
        },
    ) as obs_scope:
        with wall_timer() as timer:
            try:
                eng.run(
                    max_steps,
                    stop=stop,
                    snapshot_every=snapshot_every,
                    recorder=recorder,
                )
            except BaseException:
                # an aborted run (engine error, KeyboardInterrupt) must not
                # certify its stream: keep the spilled snapshots but leave
                # the manifest incomplete, exactly like a killed process
                if isinstance(recorder, PersistentTrajectoryRecorder):
                    try:
                        recorder.abandon()
                    except Exception:
                        pass  # the original error is the one to surface
                raise
            if isinstance(recorder, PersistentTrajectoryRecorder):
                recorder.close()
        obs_metrics = obs_scope.metrics_delta()
    elapsed = timer.seconds
    if obs_metrics is not None:
        # the run's own counters, visible to trace metadata, the result
        # and (below) the manifest summary — "where did the time go"
        meta = {**meta, "obs_metrics": obs_metrics}

    trace = recorder.build(
        n=eng.n,
        state_names=protocol.state_names(),
        protocol_name=protocol.name,
        undecided_index=undecided_index,
        metadata=meta,
    )

    stabilized_flag = bool(eng.is_absorbed)
    stabilization = eng.last_change_interaction if stabilized_flag else None
    if stabilized_flag and stabilization is None:
        stabilization = 0  # started absorbed

    winner = _winner_of(protocol, eng.counts) if stabilized_flag else None

    persist_dir: Optional[Path] = None
    if isinstance(recorder, PersistentTrajectoryRecorder):
        persist_dir = recorder.directory
        recorder.record_summary(
            {
                "interactions": eng.interactions,
                "parallel_time": eng.parallel_time,
                "stabilized": stabilized_flag,
                "stabilization_interactions": stabilization,
                "winner": winner,
                "final_counts": [int(c) for c in eng.counts],
                "wall_seconds": elapsed,
                **(
                    {"obs_metrics": obs_metrics}
                    if obs_metrics is not None
                    else {}
                ),
            }
        )

    return RunResult(
        trace=trace,
        final_counts=eng.counts,
        interactions=eng.interactions,
        parallel_time=eng.parallel_time,
        stabilized=stabilized_flag,
        stabilization_interactions=stabilization,
        winner=winner,
        engine_name=eng.engine_name,
        wall_seconds=elapsed,
        metadata=meta,
        persist_dir=persist_dir,
    )


def _jsonable_seed(seed: SeedLike) -> Union[int, str, None]:
    """Seed provenance for manifests: exact for ints, best-effort otherwise."""
    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, np.integer):
        # np.int64(7) is the seed 7, as normalize_run already records it
        return int(seed)
    return repr(seed)


def _winner_of(protocol: Any, counts: np.ndarray) -> Optional[int]:
    """Surviving opinion of a consensus state, if the protocol exposes one."""
    if not isinstance(protocol, OpinionAlphabet):
        return None
    opinions = protocol.opinion_counts_of(counts)
    n = int(np.sum(counts))
    winners = np.flatnonzero(opinions == n)
    if winners.size != 1:
        return None
    return int(winners[0]) + 1
