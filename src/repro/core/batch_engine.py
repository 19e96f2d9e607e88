"""τ-leaping batch engine for large populations.

Simulating Figure 1 of the paper takes ~9·10⁷ interactions at
n = 10⁶ — far beyond what per-interaction simulation can do in Python.
This engine uses τ-leaping, the standard accelerator for exactly this
kind of chemical-reaction-network dynamics (the paper itself notes the
CRN connection of population protocols):

1. freeze the current counts for a batch of ``B`` interactions;
2. draw the number of *effective* interactions ``m ~ Binomial(B, p)``,
   where ``p`` is the per-interaction effective probability;
3. split ``m`` over the effective ordered pairs with a multinomial in
   their exact (frozen-counts) proportions;
4. apply the summed net delta in one integer mat-vec.

Freezing introduces an O(B/n) modelling error per batch; with the
default ``epsilon = B/n = 0.002`` the drift and diffusion of the counts
are reproduced to a fraction of a percent, which the equivalence tests
verify statistically against the exact engines.  A batch whose sampled
delta would drive a count negative is rejected and retried with half
the batch size (never biasing the sign of the drift by clamping);
``B = 1`` reproduces the exact single-interaction distribution, so the
retry loop always terminates.

The sampling loop itself lives in :mod:`repro.core.kernels` as the
numpy ``batch_step`` kernel; the engine owns only state (counts,
interaction clock, the adaptive batch size) and bookkeeping.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..types import SeedLike
from .engine import BaseEngine
from .kernels import KernelInputs
from .kernels.numpy_backend import batch_step
from .protocol import PopulationProtocol

__all__ = ["BatchEngine"]

#: Default cap on the batch size as a fraction of the population.
DEFAULT_EPSILON = 0.002


class BatchEngine(BaseEngine):
    """Approximate (τ-leaping) simulator over state counts.

    Parameters
    ----------
    protocol, counts, seed:
        As for :class:`repro.core.engine.BaseEngine`.
    epsilon:
        Target batch size as a fraction of ``n``.  Smaller is more
        accurate and slower; ``epsilon * n < 1`` degenerates into exact
        single-interaction sampling.
    """

    engine_name = "batch"

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        seed: SeedLike = None,
        epsilon: float = DEFAULT_EPSILON,
    ):
        super().__init__(protocol, counts, seed)
        if not 0 < epsilon <= 1:
            raise SimulationError(f"epsilon must be in (0, 1], got {epsilon}")
        self._epsilon = float(epsilon)
        self._nominal_batch = max(1, int(round(epsilon * self._n)))
        self._batch = self._nominal_batch
        self._halvings = 0
        self._inputs = KernelInputs.from_table(protocol.table, self._n)

    @property
    def epsilon(self) -> float:
        """Configured batch-size fraction."""
        return self._epsilon

    @property
    def nominal_batch_size(self) -> int:
        """Batch size used when no rejections force it down."""
        return self._nominal_batch

    @property
    def rejection_halvings(self) -> int:
        """Total negativity rejections taken so far.

        Each rejection halves the batch (the retry loop's accuracy
        safeguard near small counts); a persistently large number means
        ``epsilon`` is too aggressive for the configuration's regime.
        """
        return self._halvings

    def _step_impl(self, num: int) -> None:
        interactions, last_change, absorbed, batch, halvings = batch_step(
            self._inputs,
            self._counts,
            self._rng,
            num,
            self._interactions,
            self._batch,
            self._nominal_batch,
        )
        self._interactions = interactions
        self._batch = batch
        self._halvings += halvings
        if last_change is not None:
            self._last_change = last_change
        if absorbed:
            self._absorbed = True
