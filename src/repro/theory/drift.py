"""Exact one-step conditional drifts of the USD — the proofs' raw material.

For a configuration ``x = (x_1..x_k, u)`` these functions give the
*exact* conditional expectations and step probabilities (denominators
``n(n−1)``, no ``O(1/n)`` truncation) that the paper's Lemmas 3.1, 3.3
and 3.4 estimate:

* ``E[Δu]`` — drift of the undecided count (Lemma 3.1);
* ``E[Δx_i]`` and the ``(P(+1), P(−1))`` pair for ``x_i`` (Lemma 3.3);
* ``E[ΔΔ_ij]`` and the ``(P(+1), P(−1))`` pair for the gap
  ``Δ_ij = x_i − x_j`` (Lemma 3.4).

An empirical Monte-Carlo estimator cross-validates the formulas against
the exact engines (see ``tests/test_drift.py``), closing the loop
between the proof algebra and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from ..core.configuration import Configuration
from ..errors import ConfigurationError
from ..parallel import parallel_map
from ..rng import spawn_seeds
from ..types import SeedLike

__all__ = [
    "undecided_step_probabilities",
    "expected_undecided_change",
    "opinion_step_probabilities",
    "expected_opinion_change",
    "gap_step_probabilities",
    "expected_gap_change",
    "drift_field",
    "DriftEstimate",
    "estimate_drift_empirically",
]


def _pair_denominator(n: int) -> float:
    return float(n) * float(n - 1)


def undecided_step_probabilities(config: Configuration) -> Tuple[float, float]:
    """``(P(u increases by 2), P(u decreases by 1))`` for the next interaction.

    ``u`` gains 2 on a cancellation (two distinct opinions meet) and
    loses 1 on a recruitment (a decided agent meets an undecided one).
    """
    n = config.n
    u = config.undecided
    decided = config.decided
    cancellation_weight = decided * decided - config.sum_of_squares()
    recruitment_weight = 2 * u * decided
    denominator = _pair_denominator(n)
    return cancellation_weight / denominator, recruitment_weight / denominator


def expected_undecided_change(config: Configuration) -> float:
    """Exact ``E[u(t+1) − u(t) | x(t)]`` (the Lemma 3.1 drift)."""
    p_up, p_down = undecided_step_probabilities(config)
    return 2.0 * p_up - p_down


def opinion_step_probabilities(
    config: Configuration, opinion: int
) -> Tuple[float, float]:
    """``(P(+1), P(−1))`` for ``x_i`` — Lemma 3.3's walk probabilities.

    ``x_i`` gains 1 when an ``i``-agent meets an undecided agent
    (either order), and loses 1 when it meets a differently-decided
    agent.
    """
    n = config.n
    x_i = config.x(opinion)
    u = config.undecided
    denominator = _pair_denominator(n)
    p_up = 2.0 * x_i * u / denominator
    p_down = 2.0 * x_i * (n - u - x_i) / denominator
    return p_up, p_down


def expected_opinion_change(config: Configuration, opinion: int) -> float:
    """Exact ``E[x_i(t+1) − x_i(t) | x(t)]``.

    Equals ``2 x_i (2u − n + x_i) / (n(n−1))`` — positive iff
    ``u`` exceeds the threshold ``u_i = (n − x_i)/2`` of §2.
    """
    p_up, p_down = opinion_step_probabilities(config, opinion)
    return p_up - p_down


def gap_step_probabilities(
    config: Configuration, i: int, j: int
) -> Tuple[float, float]:
    """``(P(+1), P(−1))`` for ``Δ_ij = x_i − x_j`` — Lemma 3.4's walk.

    ``Δ_ij`` rises when ``x_i`` recruits an undecided agent *or* ``x_j``
    cancels against an opinion other than ``i`` (an ``(i, j)`` meeting
    moves both and leaves the gap unchanged... it changes u instead —
    more precisely it decreases both ``x_i`` and ``x_j`` by one, so the
    gap is preserved).  Changes of ±2 do not occur.
    """
    if i == j:
        raise ConfigurationError("gap probabilities need two distinct opinions")
    n = config.n
    u = config.undecided
    x_i = config.x(i)
    x_j = config.x(j)
    others = n - u - x_i - x_j
    denominator = _pair_denominator(n)
    p_up = (2.0 * x_i * u + 2.0 * x_j * others) / denominator
    p_down = (2.0 * x_j * u + 2.0 * x_i * others) / denominator
    return p_up, p_down


def expected_gap_change(config: Configuration, i: int, j: int) -> float:
    """Exact ``E[Δ_ij(t+1) − Δ_ij(t) | x(t)]``.

    Simplifies to ``2 (x_i − x_j)(2u − n + x_i + x_j) / (n(n−1))`` — the
    factorisation at the heart of Lemma 3.4: the gap's drift is
    proportional to the gap itself.
    """
    p_up, p_down = gap_step_probabilities(config, i, j)
    return p_up - p_down


def drift_field(config: Configuration) -> np.ndarray:
    """All exact drifts at once: ``[E[Δu], E[Δx_1], ..., E[Δx_k]]``."""
    n = config.n
    u = config.undecided
    x = np.asarray(config.opinion_counts, dtype=float)
    denominator = _pair_denominator(n)
    opinion_drift = 2.0 * x * (2.0 * u - n + x) / denominator
    out = np.empty(config.k + 1)
    out[0] = expected_undecided_change(config)
    out[1:] = opinion_drift
    return out


@dataclass(frozen=True)
class DriftEstimate:
    """Monte-Carlo estimate of a one-step drift.

    Attributes
    ----------
    mean:
        Sample mean of the one-step change.
    std_error:
        Standard error of the mean.
    samples:
        Number of independent one-step samples.
    """

    mean: float
    std_error: float
    samples: int

    def consistent_with(self, value: float, sigmas: float = 4.0) -> bool:
        """Whether ``value`` lies within ``sigmas`` standard errors."""
        return abs(self.mean - value) <= sigmas * max(self.std_error, 1e-15)


def _drift_sample_task(
    run_seed: SeedLike,
    *,
    base_counts: np.ndarray,
    k: int,
    quantity: str,
    opinion: int,
    other: int,
) -> float:
    """One single-interaction drift sample (module-level so it pickles)."""
    from ..core.counts_engine import CountsEngine
    from ..protocols.usd import UndecidedStateDynamics

    protocol = UndecidedStateDynamics(k=k)
    engine = CountsEngine(protocol, base_counts, seed=run_seed)
    before = _read_quantity(engine.counts, quantity, opinion, other)
    engine.step(1)
    after = _read_quantity(engine.counts, quantity, opinion, other)
    return after - before


def estimate_drift_empirically(
    config: Configuration,
    quantity: str,
    *,
    samples: int = 2000,
    seed: SeedLike = None,
    opinion: int = 1,
    other: int = 2,
    workers: Optional[int] = 0,
) -> DriftEstimate:
    """Estimate a one-step drift by simulating single USD interactions.

    ``quantity`` is ``'undecided'``, ``'opinion'`` (uses ``opinion``) or
    ``'gap'`` (uses ``opinion`` and ``other``).  Each sample runs one
    interaction of a fresh exact engine from ``config``.  Samples are
    independent, so with ``workers > 0`` they fan out over a process
    pool (:func:`repro.parallel.parallel_map` over
    :func:`repro.rng.spawn_seeds` children) with bit-identical results
    for every worker count.
    """
    from ..protocols.usd import UndecidedStateDynamics

    if quantity not in ("undecided", "opinion", "gap"):
        raise ConfigurationError(
            f"quantity must be 'undecided', 'opinion' or 'gap', got {quantity!r}"
        )
    protocol = UndecidedStateDynamics(k=config.k)
    base_counts = protocol.encode_configuration(config)
    task = partial(
        _drift_sample_task,
        base_counts=base_counts,
        k=config.k,
        quantity=quantity,
        opinion=opinion,
        other=other,
    )
    changes = np.asarray(
        parallel_map(task, spawn_seeds(seed, samples), workers=workers)
    )
    mean = float(changes.mean())
    std_error = float(changes.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return DriftEstimate(mean=mean, std_error=std_error, samples=samples)


def _read_quantity(
    counts: np.ndarray, quantity: str, opinion: int, other: int
) -> float:
    if quantity == "undecided":
        return float(counts[0])
    if quantity == "opinion":
        return float(counts[opinion])
    return float(counts[opinion] - counts[other])
