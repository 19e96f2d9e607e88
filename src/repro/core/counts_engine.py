"""Exact counts-level engine with geometric null-skipping.

Under the uniform clique scheduler the state-count vector is a
sufficient statistic: the next interaction's ordered state pair
``(a, b)`` has probability ``c_a (c_b - [a = b]) / (n (n - 1))``
regardless of which individual agents hold those states.  This engine
therefore simulates counts directly and, crucially, skips *null*
interactions (pairs the protocol maps to themselves) in closed form:

* with the configuration fixed, each interaction is *effective* with
  probability ``p = W / (n (n - 1))`` where ``W`` sums the weights of
  the non-null ordered pairs;
* the number of interactions up to and including the next effective one
  is ``Geometric(p)``, so we draw the gap in O(1) and then sample which
  effective pair fired, proportional to its weight.

Both steps follow the exact conditional distributions, so trajectories
have *exactly* the law of the agent-level model (see
``tests/test_engine_equivalence.py``).  The speed-up is modest while
half of all interactions are effective (mid-run USD) and dramatic near
absorption, where almost every interaction is null.

Each effective interaction costs two random draws and O(S) work on
Python ints, for S states, rather than numpy work over all E effective
pairs: the kernel finds the initiator ``a`` by the blocks' weights
``c_a Σ_{b ∈ B(a)} (c_b - [a = b])`` and then the responder within
``a``'s block.  That is exactly the pair a search of all E pairs'
running weights picks, so the draws are those of the flat search
(``tests/test_counts_kernel_differential.py`` keeps it as the
reference).

The engine also knows the exact interaction index of every change, so
stabilization times are measured with single-interaction resolution,
independent of the snapshot cadence.

*How* a step is computed lives in :mod:`repro.core.kernels`: the engine
builds one frozen :class:`~repro.core.kernels.KernelInputs` and
calls the numpy ``counts_step`` kernel with it.
"""

from __future__ import annotations

import numpy as np

from ..types import SeedLike
from .engine import BaseEngine
from .kernels import KernelInputs
from .kernels.numpy_backend import counts_step
from .protocol import PopulationProtocol

__all__ = ["CountsEngine"]


class CountsEngine(BaseEngine):
    """Exact simulator over state counts (uniform clique scheduler only)."""

    engine_name = "counts"

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        seed: SeedLike = None,
    ):
        super().__init__(protocol, counts, seed)
        self._inputs = KernelInputs.from_table(protocol.table, self._n)

    def effective_probability(self) -> float:
        """Probability that the *next* interaction changes the configuration."""
        inputs = self._inputs
        return inputs.effective_weight(self._counts) / inputs.pair_denominator

    def _step_impl(self, num: int) -> None:
        interactions, last_change, absorbed = counts_step(
            self._inputs,
            self._counts,
            self._rng,
            self._interactions,
            self._interactions + num,
        )
        self._interactions = interactions
        if last_change is not None:
            self._last_change = last_change
        if absorbed:
            self._absorbed = True
