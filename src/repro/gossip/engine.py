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

:class:`GossipEngine` is a :class:`~repro.core.engine.BaseEngine`
whose step is one round: it runs on the shared run loop, and
:func:`repro.core.run.simulate` (hence specs, persistence, resume by
``spec_hash``, journals and the service) drives it exactly like the
population engines.  One round counts as ``n`` interactions, so
``parallel_time == rounds`` and traces are directly comparable with
the population-model engines on the paper's axes.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..core.engine import BaseEngine
from ..errors import SimulationError
from ..types import as_int_vector

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


class GossipEngine(BaseEngine):
    """Drives a :class:`GossipDynamics` round by round.

    :meth:`step` and :meth:`run` count rounds; ``interactions`` is
    rounds × n, so recorders and stopping conditions work unchanged.
    """

    engine_name = "gossip"
    backend = None

    @property
    def step_interactions(self) -> int:
        """One step is a synchronous round of ``n`` interactions."""
        return self._n

    @property
    def rounds(self) -> int:
        """Synchronous rounds executed so far."""
        return self._interactions // self._n

    @property
    def last_change_round(self) -> Optional[int]:
        """Round index of the most recent configuration change."""
        if self._last_change is None:
            return None
        return self._last_change // self._n

    def _step_impl(self, num: int) -> None:
        dynamics = self._protocol
        for _ in range(num):
            if self._absorbed:
                self._interactions += self._n
                continue
            new_counts = as_int_vector(dynamics.round_update(self._counts, self._rng))
            if int(new_counts.sum()) != self._n:
                raise SimulationError(
                    f"{dynamics.name} round update changed the population size"
                )
            self._interactions += self._n
            if not np.array_equal(new_counts, self._counts):
                self._counts = new_counts
                self._last_change = self._interactions
            self._absorbed = dynamics.is_absorbing(self._counts)
