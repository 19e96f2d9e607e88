"""Agent-level reference engine.

Keeps one state per agent and executes interactions one by one, exactly
as the model defines them.  This is the ground truth against which the
faster engines are validated (``tests/test_engine_equivalence.py``); it
is also the only engine that supports *graph-restricted* schedulers,
because counts are not a sufficient statistic on general graphs.

Performance: a few hundred nanoseconds per interaction — use it for
populations up to a few thousand agents.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..types import SeedLike
from .engine import BaseEngine
from .protocol import PopulationProtocol
from .scheduler import PairScheduler, UniformPairScheduler

__all__ = ["AgentEngine"]

#: How many agent pairs to pre-sample per inner batch.  Only affects
#: speed (amortises the RNG call), never the distribution.
_PAIR_BLOCK = 4096


class AgentEngine(BaseEngine):
    """Exact per-agent simulator.

    Parameters
    ----------
    protocol, counts, seed:
        As for :class:`repro.core.engine.BaseEngine`.  The per-agent
        loop is the reference implementation and deliberately stays in
        plain Python, so it calls no kernel (``backend`` is ``None``).
    scheduler:
        Pair scheduler; defaults to the paper's uniform clique
        scheduler.  Graph-restricted runs pass a
        :class:`repro.core.scheduler.GraphPairScheduler`.
    """

    engine_name = "agent"
    backend = None

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        seed: SeedLike = None,
        scheduler: Optional[PairScheduler] = None,
    ):
        super().__init__(protocol, counts, seed)
        if scheduler is None:
            scheduler = UniformPairScheduler(self._n)
        if scheduler.n != self._n:
            raise SimulationError(
                f"scheduler is sized for {scheduler.n} agents, population has {self._n}"
            )
        self._scheduler = scheduler
        self._states = self._materialise_states()
        # Plain nested lists: Python-level indexing in the hot loop is
        # several times faster than NumPy scalar indexing.
        self._out_a = protocol.table.out_initiator.tolist()
        self._out_b = protocol.table.out_responder.tolist()

    def _materialise_states(self) -> list:
        """Expand the count vector into a per-agent state list.

        Agents are anonymous, so assigning states in blocks (all state-0
        agents first, etc.) is distributionally equivalent to any other
        assignment under an exchangeable scheduler.
        """
        states: list = []
        for state, count in enumerate(self._counts):
            states.extend([state] * int(count))
        return states

    @property
    def scheduler(self) -> PairScheduler:
        """The pair scheduler in use."""
        return self._scheduler

    @property
    def states(self) -> np.ndarray:
        """A copy of the per-agent state array."""
        return np.asarray(self._states, dtype=np.int64)

    def _step_impl(self, num: int) -> None:
        states = self._states
        out_a = self._out_a
        out_b = self._out_b
        counts = self._counts
        done = 0
        while done < num:
            block = min(_PAIR_BLOCK, num - done)
            initiators, responders = self._scheduler.sample_pairs(self._rng, block)
            i_list = initiators.tolist()
            j_list = responders.tolist()
            base = self._interactions + done
            for offset, (i, j) in enumerate(zip(i_list, j_list)):
                a = states[i]
                b = states[j]
                new_a = out_a[a][b]
                new_b = out_b[a][b]
                if new_a != a or new_b != b:
                    states[i] = new_a
                    states[j] = new_b
                    counts[a] -= 1
                    counts[b] -= 1
                    counts[new_a] += 1
                    counts[new_b] += 1
                    self._last_change = base + offset + 1
            done += block
        self._interactions += num
        # Absorption is detected lazily here (the generic check is too
        # expensive per interaction); run() consults it between chunks.
        self._absorbed = self._protocol.is_absorbing(counts)
