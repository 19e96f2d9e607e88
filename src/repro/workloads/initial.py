"""Initial-configuration generators (the experiments' workloads).

The paper's lower-bound construction and Figure 1 both use the
*equal-minorities* family: ``k − 1`` opinions with identical support
and a majority with an additive bias.  This module builds that family
(with the paper's default bias ``√(n log n)``), the plateau variants
used by the Lemma 3.3/3.4 experiments (undecided count already at
``n/2 − n/(4k)``), and alternative families (multinomial, Zipf,
two-block) for robustness checks.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.configuration import Configuration
from ..errors import ConfigurationError
from ..rng import make_rng
from ..theory.lemmas import undecided_plateau
from ..types import SeedLike

__all__ = [
    "paper_bias",
    "paper_initial_configuration",
    "plateau_configuration",
    "plateau_gap_configuration",
    "random_multinomial_configuration",
    "zipf_configuration",
    "two_block_configuration",
]


def paper_bias(n: int) -> int:
    """Figure 1's initial bias ``⌈√(n ln n)⌉``."""
    if n < 2:
        raise ConfigurationError(f"population must have at least 2 agents, got {n}")
    return int(math.ceil(math.sqrt(n * math.log(n))))


def paper_initial_configuration(
    n: int, k: int, bias: Optional[int] = None
) -> Configuration:
    """The paper's initial configuration (§3, Figure 1).

    Equal minorities, majority ahead by ``bias`` (default
    ``√(n ln n)``), no undecided agents.
    """
    if bias is None:
        bias = paper_bias(n)
    return Configuration.equal_minorities_with_bias(n, k, bias)


def plateau_configuration(
    n: int, k: int, *, target_opinion_support: Optional[int] = None
) -> Configuration:
    """A configuration with ``u`` already at the paper's plateau.

    Used by the Lemma 3.3 experiment: ``u = round(n/2 − n/(4k))``,
    opinion 1 at ``target_opinion_support`` (default ``3n/(2k)``, the
    lemma's starting support) and the remaining agents spread evenly
    over opinions ``2..k``.
    """
    if k < 2:
        raise ConfigurationError("plateau configurations need k >= 2")
    undecided = int(round(undecided_plateau(n, k)))
    decided = n - undecided
    if target_opinion_support is None:
        target_opinion_support = int(round(1.5 * n / k))
    if not 0 <= target_opinion_support <= decided:
        raise ConfigurationError(
            f"target support {target_opinion_support} does not fit into "
            f"{decided} decided agents"
        )
    others_total = decided - target_opinion_support
    base, extra = divmod(others_total, k - 1)
    counts = np.full(k, base, dtype=np.int64)
    counts[0] = target_opinion_support
    counts[1 : 1 + extra] += 1
    return Configuration(counts, undecided=undecided)


def plateau_gap_configuration(n: int, k: int, gap: int) -> Configuration:
    """A plateau configuration with a controlled maximum gap.

    Used by the Lemma 3.4 experiment: ``u`` at the plateau, opinion 1
    ahead of opinion ``k`` by exactly ``gap`` (half above / half below
    the common level), all supports ≤ 3n/(2k) for moderate gaps.
    """
    if k < 2:
        raise ConfigurationError("gap configurations need k >= 2")
    if gap < 0:
        raise ConfigurationError(f"gap must be non-negative, got {gap}")
    undecided = int(round(undecided_plateau(n, k)))
    decided = n - undecided
    base, extra = divmod(decided, k)
    # Rounding leftovers go to the undecided pool (a ≤ k−1 perturbation of
    # the plateau) so the decided block is perfectly level and the max
    # gap is *exactly* ``gap`` — the Lemma 3.4 experiment measures
    # doubling of this precise value.
    undecided += extra
    counts = np.full(k, base, dtype=np.int64)
    half_up = gap // 2
    half_down = gap - half_up
    counts[0] += half_up
    counts[-1] -= half_down
    if counts[-1] < 0:
        raise ConfigurationError(
            f"gap {gap} is too large for the common level {base} at (n={n}, k={k})"
        )
    return Configuration(counts, undecided=undecided)


def random_multinomial_configuration(
    n: int, k: int, seed: SeedLike = None
) -> Configuration:
    """Each agent picks an opinion uniformly at random (multinomial counts)."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    rng = make_rng(seed)
    counts = rng.multinomial(n, np.full(k, 1.0 / k))
    return Configuration(counts.astype(np.int64))


def zipf_configuration(n: int, k: int, exponent: float = 1.0) -> Configuration:
    """Deterministic Zipf-shaped supports: ``x_i ∝ i^(−exponent)``.

    A heavy-head workload exercising the monochromatic-distance
    comparisons (small ``md(c)``) — rounding residue goes to opinion 1.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if exponent < 0:
        raise ConfigurationError(f"exponent must be non-negative, got {exponent}")
    weights = np.arange(1, k + 1, dtype=float) ** (-exponent)
    fractions = weights / weights.sum()
    counts = np.floor(fractions * n).astype(np.int64)
    counts[0] += n - int(counts.sum())
    return Configuration(counts)


def two_block_configuration(n: int, k: int, heavy_opinions: int = 2) -> Configuration:
    """An adversarial two-block workload: a few heavy opinions sharing
    half the agents, the rest sharing the other half.

    Maximises the time the heavy block spends fighting itself — a
    stress case for plurality detection.
    """
    if not 1 <= heavy_opinions < k:
        raise ConfigurationError(
            f"need 1 <= heavy_opinions < k, got {heavy_opinions} (k={k})"
        )
    half = n // 2
    heavy_base, heavy_extra = divmod(half, heavy_opinions)
    light_total = n - half
    light_base, light_extra = divmod(light_total, k - heavy_opinions)
    counts = np.empty(k, dtype=np.int64)
    counts[:heavy_opinions] = heavy_base
    counts[:heavy_extra] += 1
    counts[heavy_opinions:] = light_base
    counts[heavy_opinions : heavy_opinions + light_extra] += 1
    return Configuration(counts)
