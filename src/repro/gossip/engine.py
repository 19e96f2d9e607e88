"""Synchronous Gossip-model execution engine.

In the Gossip model (the synchronous sibling of the population protocol
model, §1.2 of the paper) every node simultaneously samples one uniform
random node per *round* and updates its state from the pair
``(own state, sampled state)`` — all updates computed against the
previous round's configuration.  The paper stresses that USD behaves
*qualitatively differently* under the two schedulers; this engine
exists to reproduce that comparison (experiment ``model-comparison``).

The engine is counts-level and exact: because every agent's new state
depends only on its own state and one independent uniform sample from
the previous round, the per-round update factorises into independent
multinomial draws per current state, which
:class:`GossipDynamics.round_update` implementations perform.

Time bookkeeping: one round counts as ``n`` interactions, so
``parallel_time == rounds`` and traces are directly comparable with the
population-model engines on the paper's axes.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..obs.runtime import observe_engine_run
from ..rng import make_rng
from ..types import SeedLike, StopPredicate, as_int_vector

__all__ = ["GossipDynamics", "GossipEngine"]


class GossipDynamics(abc.ABC):
    """A synchronous opinion dynamics in the Gossip model."""

    #: Human-readable dynamics name.
    name: str = "gossip-dynamics"

    @property
    @abc.abstractmethod
    def num_states(self) -> int:
        """Number of states in the count vector."""

    @abc.abstractmethod
    def round_update(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample the next round's counts given the current ones (exact)."""

    @abc.abstractmethod
    def is_absorbing(self, counts: np.ndarray) -> bool:
        """Whether no future round can change the configuration."""

    def state_names(self):
        """Names of the states (default ``s0..``)."""
        return tuple(f"s{i}" for i in range(self.num_states))


class GossipEngine:
    """Drives a :class:`GossipDynamics` round by round.

    Mirrors the population-engine API closely enough (``counts``, ``n``,
    ``interactions``, ``run``) that recorders and stopping conditions
    work unchanged.
    """

    engine_name = "gossip"

    def __init__(
        self,
        dynamics: GossipDynamics,
        counts: np.ndarray,
        seed: SeedLike = None,
    ):
        vec = as_int_vector(counts)
        if vec.size != dynamics.num_states:
            raise SimulationError(
                f"counts length {vec.size} does not match dynamics alphabet "
                f"size {dynamics.num_states}"
            )
        if np.any(vec < 0):
            raise SimulationError("initial counts must be non-negative")
        self._dynamics = dynamics
        self._counts = vec
        self._n = int(vec.sum())
        if self._n < 2:
            raise SimulationError(f"population needs at least 2 agents, got {self._n}")
        self._rng = make_rng(seed)
        self._rounds = 0
        self._last_change_round: Optional[int] = None
        self._absorbed = dynamics.is_absorbing(vec)

    # ------------------------------------------------------------------
    # Introspection (SupportsCounts-compatible)
    # ------------------------------------------------------------------

    @property
    def dynamics(self) -> GossipDynamics:
        """The dynamics being executed."""
        return self._dynamics

    @property
    def counts(self) -> np.ndarray:
        """A copy of the current state-count vector."""
        return self._counts.copy()

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def rounds(self) -> int:
        """Synchronous rounds executed so far."""
        return self._rounds

    @property
    def interactions(self) -> int:
        """Rounds × n — the comparable sequential-time measure."""
        return self._rounds * self._n

    @property
    def parallel_time(self) -> float:
        """Equals :attr:`rounds` in the Gossip model."""
        return float(self._rounds)

    @property
    def is_absorbed(self) -> bool:
        """Whether the configuration can never change again."""
        return self._absorbed

    @property
    def last_change_round(self) -> Optional[int]:
        """Round index of the most recent configuration change."""
        return self._last_change_round

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self, num_rounds: int = 1) -> None:
        """Execute exactly ``num_rounds`` further synchronous rounds."""
        if num_rounds < 0:
            raise SimulationError(f"cannot step {num_rounds} rounds")
        for _ in range(num_rounds):
            if self._absorbed:
                self._rounds += 1
                continue
            new_counts = self._dynamics.round_update(self._counts, self._rng)
            new_counts = as_int_vector(new_counts)
            if int(new_counts.sum()) != self._n:
                raise SimulationError(
                    f"{self._dynamics.name} round update changed the population size"
                )
            self._rounds += 1
            if not np.array_equal(new_counts, self._counts):
                self._counts = new_counts
                self._last_change_round = self._rounds
            self._absorbed = self._dynamics.is_absorbing(self._counts)

    def run(
        self,
        max_rounds: int,
        *,
        stop: Optional[StopPredicate] = None,
        snapshot_every: int = 1,
        recorder=None,
    ) -> None:
        """Advance until ``max_rounds``, absorption, or ``stop`` fires.

        As in :meth:`repro.core.engine.BaseEngine.run`, absorption and
        ``stop`` are checked *before* every chunk, so a run that starts
        absorbed (or with ``stop`` already true) executes zero rounds.
        """
        if snapshot_every < 1:
            raise SimulationError(f"snapshot_every must be >= 1, got {snapshot_every}")
        # horizon in the comparable time measure (rounds × n interactions)
        observer = observe_engine_run(self, max_rounds * self._n)
        try:
            if recorder is not None and self._rounds == 0:
                recorder.record(self)
            while self._rounds < max_rounds:
                if self._absorbed:
                    break
                if stop is not None and stop(self):
                    break
                if observer is None:
                    self.step(min(snapshot_every, max_rounds - self._rounds))
                else:
                    observer.chunk_start()
                    self.step(min(snapshot_every, max_rounds - self._rounds))
                    observer.chunk_end(self)
                if recorder is not None:
                    recorder.record(self)
        except BaseException as error:
            if observer is not None:
                try:
                    observer.finish(self, error=error)
                except Exception:
                    pass  # the original error is the one to surface
            raise
        else:
            if observer is not None:
                observer.finish(self)

    def __repr__(self) -> str:
        return (
            f"GossipEngine(dynamics={self._dynamics.name!r}, n={self._n}, "
            f"rounds={self._rounds})"
        )
