"""``counts_step`` against the flat numpy search it replaced.

``reference_counts_step`` below is the numpy ``counts_step`` body the
engines ran before the kernel searched the effective pairs by initiator
block: it weighs all E pairs with numpy on every effective interaction
and picks one with ``searchsorted(cumsum(weights), r, "right")``.  Call
for call, the block kernel must return the same ``(interactions,
last_change, absorbed)``, leave the same counts and consume the random
stream identically.
"""

from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.kernels import KernelInputs
from repro.core.kernels.numpy_backend import counts_step
from repro.protocols import (
    FourStateExactMajority,
    HysteresisUSD,
    UndecidedStateDynamics,
    VoterModel,
)


def reference_counts_step(
    inputs: KernelInputs,
    counts: np.ndarray,
    rng: np.random.Generator,
    start: int,
    target: int,
) -> Tuple[int, Optional[int], bool]:
    interactions = start
    last_change: Optional[int] = None
    eff_a, eff_b = inputs.eff_a, inputs.eff_b
    eff_same, eff_delta = inputs.eff_same, inputs.eff_delta
    while interactions < target:
        weights = counts[eff_a] * (counts[eff_b] - eff_same)
        total = int(weights.sum())
        if total == 0:
            return target, last_change, True
        p_effective = total / inputs.pair_denominator
        gap = int(rng.geometric(p_effective))
        if interactions + gap > target:
            return target, last_change, False
        interactions += gap
        pick = int(
            np.searchsorted(
                np.cumsum(weights), rng.integers(0, total), side="right"
            )
        )
        counts += eff_delta[pick]
        last_change = interactions
    return interactions, last_change, False


# HysteresisUSD's effective self-pairs, (1, 1), (3, 3), ..., exercise
# the [a = b] term of the pair weight
PROTOCOLS = {
    "usd-k2": UndecidedStateDynamics(k=2),
    "usd-k3": UndecidedStateDynamics(k=3),
    "usd-k27": UndecidedStateDynamics(k=27),
    "voter-k3": VoterModel(k=3),
    "four-state-majority": FourStateExactMajority(),
    "hysteresis-k3-r2": HysteresisUSD(3, 2),
    "hysteresis-k2-r3": HysteresisUSD(2, 3),
}

#: Call lengths, cycled: the short ones end most calls inside a
#: geometric gap, the long ones play many effective interactions.
CHUNKS = (1, 2, 3, 7, 50, 400, 2000)
CALLS = 28


def _initial_counts(protocol, n: int, seed: int) -> np.ndarray:
    """A random configuration of ``n`` agents whose last state is empty."""
    weights = np.ones(protocol.num_states)
    weights[-1] = 0.0
    return np.random.default_rng(seed).multinomial(n, weights / weights.sum())


def _play_both(protocol, counts: np.ndarray, seed: int) -> dict:
    """Run both kernels call by call from the same state; return tallies."""
    inputs = KernelInputs.from_table(protocol.table, int(counts.sum()))
    fast_counts = np.array(counts, dtype=np.int64)
    reference_counts = fast_counts.copy()
    fast_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    tally = {"truncated": 0, "changed": 0, "absorbed": 0}
    start = 0
    for call in range(CALLS):
        target = start + CHUNKS[call % len(CHUNKS)]
        got = counts_step(inputs, fast_counts, fast_rng, start, target)
        want = reference_counts_step(
            inputs, reference_counts, reference_rng, start, target
        )
        assert got == want, f"call {call}: {got} != {want}"
        assert fast_counts.tolist() == reference_counts.tolist(), f"call {call}"
        assert (
            fast_rng.bit_generator.state == reference_rng.bit_generator.state
        ), f"call {call} consumed a different stream"
        interactions, last_change, absorbed = got
        tally["changed"] += last_change is not None
        tally["absorbed"] += absorbed
        tally["truncated"] += not absorbed and last_change != target
        start = interactions
    return tally


@pytest.mark.parametrize("n", [40, 3000])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_same_draws_as_flat_search(name, n):
    protocol = PROTOCOLS[name]
    counts = _initial_counts(protocol, n, seed=n)
    assert counts[-1] == 0
    tally = _play_both(protocol, counts, seed=1000 + n)
    assert tally["changed"] > 0
    if n == 3000:
        # mid-run, some calls end inside a geometric gap
        assert tally["truncated"] > 0


def test_same_draws_on_the_64_bit_integer_path():
    """At n = 10⁵ the pair weight total exceeds 2³², so
    ``rng.integers(0, total)`` draws 64-bit words."""
    protocol = UndecidedStateDynamics(k=3)
    counts = _initial_counts(protocol, 100_000, seed=5)
    inputs = KernelInputs.from_table(protocol.table, 100_000)
    assert inputs.effective_weight(counts) > 2**32
    tally = _play_both(protocol, counts, seed=6)
    assert tally["changed"] > 0 and tally["truncated"] > 0


@pytest.mark.parametrize(
    "protocol, counts",
    [
        (UndecidedStateDynamics(k=3), np.array([0, 0, 3000, 0])),
        (VoterModel(k=3), np.array([40, 0, 0])),
    ],
    ids=["usd-consensus", "voter-consensus"],
)
def test_absorbing_start(protocol, counts):
    tally = _play_both(protocol, counts, seed=7)
    assert tally == {"truncated": 0, "changed": 0, "absorbed": CALLS}
