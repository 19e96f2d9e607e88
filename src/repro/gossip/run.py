"""High-level Gossip-model front-end, mirroring :func:`repro.core.run.simulate`.

:func:`simulate_gossip` wires a dynamics, an initial condition, a
recorder and stopping into one call and returns a
:class:`GossipRunResult` with the same vocabulary as the population
model's :class:`repro.core.run.RunResult` — so comparison code treats
the two models symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np

from ..core.configuration import Configuration
from ..core.recorder import Trace, TrajectoryRecorder
from ..errors import SimulationError
from ..obs.timing import wall_timer
from ..types import SeedLike, StopPredicate
from .engine import GossipDynamics, GossipEngine

__all__ = ["GossipRunResult", "simulate_gossip"]


@dataclass(frozen=True)
class GossipRunResult:
    """Outcome of one :func:`simulate_gossip` call.

    Attributes mirror :class:`repro.core.run.RunResult`, with rounds in
    place of interactions (one round = n interactions of bookkeeping).
    """

    trace: Trace
    final_counts: np.ndarray
    rounds: int
    stabilized: bool
    stabilization_rounds: Optional[int]
    winner: Optional[int]
    wall_seconds: float
    metadata: Dict[str, Any] = field(default_factory=dict)


def simulate_gossip(
    dynamics: GossipDynamics,
    initial: Union[Configuration, np.ndarray],
    *,
    seed: SeedLike = None,
    max_rounds: int,
    snapshot_every: int = 1,
    stop: Optional[StopPredicate] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> GossipRunResult:
    """Run ``dynamics`` from ``initial`` for at most ``max_rounds`` rounds.

    ``initial`` may be an opinion-level :class:`Configuration` when the
    dynamics exposes ``encode_configuration``, or a raw count vector.
    """
    if isinstance(initial, Configuration):
        encode = getattr(dynamics, "encode_configuration", None)
        if encode is None:
            raise SimulationError(
                f"{dynamics.name} does not encode opinion configurations; "
                "pass raw state counts"
            )
        counts = encode(initial)
    else:
        counts = np.asarray(initial)
    if max_rounds < 0:
        raise SimulationError(f"max_rounds must be non-negative, got {max_rounds}")

    engine = GossipEngine(dynamics, counts, seed=seed)
    recorder = TrajectoryRecorder()
    with wall_timer() as timer:
        engine.run(
            max_rounds, stop=stop, snapshot_every=snapshot_every, recorder=recorder
        )
    elapsed = timer.seconds

    undecided_index = 0 if dynamics.state_names()[0] == "⊥" else None
    meta = {
        "engine": engine.engine_name,
        "dynamics": dynamics.name,
        "n": engine.n,
        **(metadata or {}),
    }
    trace = recorder.build(
        n=engine.n,
        state_names=dynamics.state_names(),
        protocol_name=dynamics.name,
        undecided_index=undecided_index,
        metadata=meta,
    )
    winner = None
    stabilization = None
    if engine.is_absorbed:
        # a run that started absorbed stabilized at round 0
        stabilization = engine.last_change_round or 0
        final = engine.counts
        offset = 1 if undecided_index == 0 else 0
        alive = np.flatnonzero(final[offset:] == engine.n)
        if alive.size == 1:
            winner = int(alive[0]) + 1
    return GossipRunResult(
        trace=trace,
        final_counts=engine.counts,
        rounds=engine.rounds,
        stabilized=bool(engine.is_absorbed),
        stabilization_rounds=stabilization,
        winner=winner,
        wall_seconds=elapsed,
        metadata=meta,
    )
