"""Exact batched engine: collision-free epochs over state counts.

Under the uniform clique scheduler, the interactions that come before
the first one touching an already-touched agent are pairwise disjoint,
so they can be played all at once: their agents are a uniform sample
without replacement, in uniform order.  This engine advances in such
*epochs* (Berenbrink, Hammer, Kaaser, Meyer, Penschuck & Tran,
*Simulating Population Protocols in Sub-Constant Time per Interaction*,
ESA 2020, arXiv:2005.03584; Doty & Severson's ``ppsim`` uses the same
method):

1. sample ℓ, the number of disjoint interactions before the first
   collision, by inverting its exact law (tabulated once per ``n``);
2. draw the states of the 2ℓ touched agents with one multivariate
   hypergeometric, shuffle them, and let positions ``i`` and ``ℓ + i``
   interact — all ℓ pairs through the transition table in one
   vectorised lookup;
3. play the colliding interaction ℓ + 1 on its own.

Every step follows the exact conditional law, so trajectories have
exactly the law of the agent-level model, like
:class:`~repro.core.counts_engine.CountsEngine`; only the use of the
random stream differs.  An epoch holds ~0.63·√n interactions, which is
what makes exact simulation affordable at every ``n`` (see
``tests/test_multibatch_engine.py`` for the law checks against
``counts``).

Near absorption almost every interaction is null, and an epoch of
mostly null interactions costs more than skipping them in closed form.
Whenever an epoch would hold less than one effective interaction on
average (``p_effective · E[ℓ] < 1``) the engine therefore runs a
stretch of the exact ``counts_step`` kernel (geometric
null-skipping) and then looks again.  Both paths know the exact index
of every change, so ``last_change_interaction`` has single-interaction
resolution, and absorption is checked at the end of every step, so
``is_absorbed`` is complete as well as sound.

The epoch loop lives in :mod:`repro.core.kernels` as the vectorised
numpy ``multibatch_step`` kernel.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..types import SeedLike
from .engine import BaseEngine
from .kernels import EpochInputs
from .kernels.numpy_backend import counts_step, multibatch_step
from .protocol import PopulationProtocol

__all__ = ["MultiBatchEngine"]

#: A ``counts_step`` stretch near absorption lasts this many effective
#: interactions in expectation; then the engine weighs batching again.
COUNTS_STRETCH_EVENTS = 64


class MultiBatchEngine(BaseEngine):
    """Exact simulator over state counts in collision-free epochs
    (uniform clique scheduler only)."""

    engine_name = "multibatch"

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        seed: SeedLike = None,
    ):
        super().__init__(protocol, counts, seed)
        self._inputs = EpochInputs.from_table(protocol.table, self._n)

    def effective_probability(self) -> float:
        """Probability that the *next* interaction changes the configuration."""
        pairs = self._inputs.pairs
        return pairs.effective_weight(self._counts) / pairs.pair_denominator

    def _step_impl(self, num: int) -> None:
        target = self._interactions + num
        while True:
            self._advance(
                multibatch_step(
                    self._inputs, self._counts, self._rng, self._interactions, target
                )
            )
            if self._interactions >= target:
                return
            # the epoch kernel handed over: p_effective · E[ℓ] < 1
            stretch = math.ceil(COUNTS_STRETCH_EVENTS / self.effective_probability())
            self._advance(
                counts_step(
                    self._inputs.pairs,
                    self._counts,
                    self._rng,
                    self._interactions,
                    min(target, self._interactions + stretch),
                )
            )

    def _advance(self, outcome: Tuple[int, Optional[int], bool]) -> None:
        interactions, last_change, absorbed = outcome
        self._interactions = interactions
        if last_change is not None:
            self._last_change = last_change
        if absorbed:
            self._absorbed = True
