"""Shared machinery of the simulation engines: one run loop for both models.

All engines present one API: they are constructed from a protocol (or
gossip dynamics) and a state-count vector, :meth:`BaseEngine.step`
advances an exact number of the engine's own *steps*, and
:meth:`BaseEngine.run` drives chunked execution with recording and
stopping conditions.  A step is one interaction (null interactions
count, as in the paper's time measure) for the four population engines
and one synchronous round of ``n`` interactions for the gossip engine;
the interaction counter, trace times and stop predicates always speak
interactions, so ``parallel_time`` means the same in both models.

Engines differ only in *how* they advance:

* :class:`repro.core.agent_engine.AgentEngine` — per-agent reference
  implementation (exact, slow);
* :class:`repro.core.counts_engine.CountsEngine` — exact counts-level
  simulation with closed-form skipping of null interactions;
* :class:`repro.core.multibatch_engine.MultiBatchEngine` — exact
  counts-level simulation in collision-free epochs of ~0.63·√n
  interactions; what ``engine='auto'`` runs at every ``n``;
* :class:`repro.core.batch_engine.BatchEngine` — τ-leaping
  approximation for large populations, run only when asked for;
* :class:`repro.gossip.engine.GossipEngine` — exact synchronous rounds
  of the Gossip model, what every gossip dynamics runs on.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import SimulationError
from ..obs.runtime import observe_engine_run
from ..rng import make_rng
from ..types import SeedLike, StopPredicate, as_int_vector
from .protocol import PopulationProtocol

if TYPE_CHECKING:  # pragma: no cover
    from .recorder import TrajectoryRecorder

__all__ = ["BaseEngine", "default_snapshot_every"]


def default_snapshot_every(n: int) -> int:
    """Default recording / stop-check cadence: half a parallel round.

    In interactions.  The single definition the engine run loop,
    ``simulate``'s manifest ``run_info`` and the spec layer's
    ``spec_hash`` identity all share — they must agree, or a resolved
    spec would claim a different cadence than its run records.
    """
    return max(1, n // 2)


class BaseEngine(abc.ABC):
    """Common state and control flow for all engines.

    Parameters
    ----------
    protocol:
        The population protocol (or gossip dynamics) to execute.
    counts:
        Initial state-count vector of length ``protocol.num_states``.
        Opinion-level callers should go through
        :func:`repro.core.run.simulate`, which encodes a
        :class:`~repro.core.configuration.Configuration` first.
    seed:
        Seed for the engine's private random stream.
    """

    #: Engine identifier used in results and the CLI.
    engine_name: str = "base"

    #: The kernel implementation this engine calls, recorded in result
    #: metadata, manifests and journals: the numpy kernels of
    #: :mod:`repro.core.kernels`.  ``None`` on the engines that call no
    #: kernel (the per-agent reference engine and the gossip engine).
    backend: Optional[str] = "numpy"

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        seed: SeedLike = None,
    ):
        vec = as_int_vector(counts)
        if vec.size != protocol.num_states:
            raise SimulationError(
                f"counts length {vec.size} does not match protocol alphabet "
                f"size {protocol.num_states}"
            )
        if np.any(vec < 0):
            raise SimulationError("initial counts must be non-negative")
        n = int(vec.sum())
        if n < 2:
            raise SimulationError(f"population needs at least 2 agents, got {n}")
        self._protocol = protocol
        self._counts = vec
        self._n = n
        self._rng = make_rng(seed)
        self._interactions = 0
        self._last_change: Optional[int] = None
        self._absorbed = protocol.is_absorbing(vec)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def protocol(self) -> PopulationProtocol:
        """The protocol being executed."""
        return self._protocol

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def counts(self) -> np.ndarray:
        """A copy of the current state-count vector."""
        return self._counts.copy()

    @property
    def interactions(self) -> int:
        """Total interactions executed so far (null interactions included)."""
        return self._interactions

    @property
    def step_interactions(self) -> int:
        """Interactions one unit of :meth:`step` and :meth:`run` advances.

        One for the population engines; the gossip engine steps whole
        synchronous rounds of ``n`` interactions.
        """
        return 1

    @property
    def default_snapshot_every(self) -> int:
        """:meth:`run`'s default cadence in steps: half a parallel round.

        At least one step, so a gossip engine records every round.
        """
        return max(1, default_snapshot_every(self._n) // self.step_interactions)

    @property
    def parallel_time(self) -> float:
        """Interactions divided by ``n`` — the paper's parallel time."""
        return self._interactions / self._n

    @property
    def is_absorbed(self) -> bool:
        """Whether the configuration can never change again.

        Engines flip this flag as soon as they can determine it cheaply;
        it is always sound (never ``True`` for a live configuration).
        The agent and multibatch engines check it at the end of every
        step, so there it is also complete; the counts and batch engines
        notice an absorbing configuration at their next step at the
        latest.
        """
        return self._absorbed

    @property
    def last_change_interaction(self) -> Optional[int]:
        """Interaction index of the most recent configuration change.

        For an absorbed run this is the stabilization time.  The agent,
        counts and multibatch engines report it exactly, to the
        interaction; the batch engine at batch resolution (the end of
        the changing batch).  ``None`` means the configuration has not
        changed yet.
        """
        return self._last_change

    @property
    def rng(self) -> np.random.Generator:
        """The engine's random stream (exposed for reproducibility tooling)."""
        return self._rng

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self, num: int = 1) -> None:
        """Execute exactly ``num`` further steps (see :attr:`step_interactions`)."""
        if num < 0:
            raise SimulationError(f"cannot step a negative number ({num}) of steps")
        if num == 0:
            return
        if self._absorbed:
            self._interactions += num * self.step_interactions
            return
        self._step_impl(num)

    @abc.abstractmethod
    def _step_impl(self, num: int) -> None:
        """Engine-specific advancement of exactly ``num`` steps."""

    def run(
        self,
        max_steps: int,
        *,
        stop: Optional[StopPredicate] = None,
        snapshot_every: Optional[int] = None,
        recorder: Optional["TrajectoryRecorder"] = None,
    ) -> None:
        """Advance until ``max_steps``, absorption, or ``stop`` fires.

        ``max_steps`` and ``snapshot_every`` count the engine's own steps
        (interactions, or rounds for gossip).  ``snapshot_every`` controls
        both the recording cadence and the granularity at which ``stop``
        is evaluated; it defaults to half a parallel round (``n // 2``
        interactions), or every round for gossip.

        ``stop`` (and absorption) are evaluated *before* the first chunk
        as well as after every subsequent one, so a predicate that is
        already true at entry — or a configuration that is already
        absorbed — executes zero interactions instead of silently
        burning a whole chunk and inflating measured hitting times.

        The caller owns ``recorder``: to stream a run to disk, pass
        ``persist_to=`` to :func:`repro.core.run.simulate`, which
        builds, closes (or abandons) the persistent recorder.
        """
        unit = self.step_interactions
        horizon = max_steps * unit  # in interactions, like the observer's
        if horizon < self._interactions:
            raise SimulationError(
                "the horizon lies in the past "
                f"({horizon} < {self._interactions} interactions)"
            )
        chunk = (
            snapshot_every
            if snapshot_every is not None
            else self.default_snapshot_every
        )
        if chunk < 1:
            raise SimulationError(f"snapshot_every must be >= 1, got {chunk}")
        # the entire off-path observability cost: one call returning
        # None, then an `is None` check per chunk (never per interaction)
        observer = observe_engine_run(self, horizon)
        try:
            if recorder is not None and self._interactions == 0:
                recorder.record(self)
            while self._interactions < horizon:
                if self._absorbed:
                    break
                if stop is not None and stop(self):
                    break
                steps = min(chunk, (horizon - self._interactions) // unit)
                if observer is None:
                    self.step(steps)
                else:
                    observer.chunk_start()
                    self.step(steps)
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
        if observer is not None:
            observer.finish(self)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(protocol={self._protocol.name!r}, n={self._n}, "
            f"interactions={self._interactions})"
        )
