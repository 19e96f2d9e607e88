"""``multibatch_step`` against the epoch loop it replaced.

``reference_multibatch_step`` below is the numpy ``multibatch_step``
body the engines ran before the epoch loop's glue was cut down: the
fancy-indexed pair weight, ``searchsorted`` on the epoch table, the
post-states by ``concatenate`` and the untouched agent's state by
``cumsum`` + ``searchsorted``.  It reads today's :class:`EpochInputs`,
so only the loop body differs.  Call for call, the kernel must return
the same ``(interactions, last_change, absorbed)``, leave the same
counts, and make the same random draws: every generator call, with its
arguments, in the same order, and the same ``rng.bit_generator.state``
after it.  Hand-overs run a ``counts_step`` stretch on both sides, as
the engine does.
"""

import math
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.kernels import EpochInputs, KernelInputs
from repro.core.kernels.numpy_backend import counts_step, multibatch_step
from repro.protocols import (
    FourStateExactMajority,
    HysteresisUSD,
    UndecidedStateDynamics,
    VoterModel,
)

from recording_generator import RecordingGenerator


def reference_multibatch_step(
    inputs: EpochInputs,
    counts: np.ndarray,
    rng: np.random.Generator,
    start: int,
    target: int,
) -> Tuple[int, Optional[int], bool]:
    pairs = inputs.pairs
    num_states, n = pairs.num_states, pairs.n
    handover = pairs.pair_denominator / inputs.expected_epoch
    out_a, out_b = inputs.post_states
    effective = inputs.effective
    epoch_table = np.asarray(inputs.epoch_table)
    longest = len(epoch_table) - 1
    states = np.arange(num_states)
    interactions = start
    last_change: Optional[int] = None
    while True:
        total = int(
            (counts[pairs.eff_a] * (counts[pairs.eff_b] - pairs.eff_same)).sum()
        )
        if total == 0:
            return target, last_change, True
        if interactions >= target or total < handover:
            return interactions, last_change, False
        exponential = rng.standard_exponential()
        ell = int(epoch_table.searchsorted(exponential, side="right")) - 1
        collide = ell < longest and ell < target - interactions
        ell = min(ell, target - interactions)
        touched = 2 * ell
        drawn = rng.multivariate_hypergeometric(counts, touched)
        order = states.repeat(drawn)
        rng.shuffle(order)
        flat = order[:ell] * num_states + order[ell:]
        changed = effective[flat].nonzero()[0]
        if changed.size:
            last_change = interactions + int(changed[-1]) + 1
        interactions += ell
        post = np.concatenate((out_a[flat], out_b[flat]))
        untouched = counts - drawn
        np.add(untouched, np.bincount(post, minlength=num_states), out=counts)
        if not collide:
            continue
        rest = n - touched
        cross = touched * rest
        draw = int(rng.integers(0, 2 * cross + touched * (touched - 1)))
        if draw < cross:
            agent, other = divmod(draw, rest)
            a, b = post[agent], _untouched_state(untouched, other)
        elif draw < 2 * cross:
            other, agent = divmod(draw - cross, touched)
            a, b = _untouched_state(untouched, other), post[agent]
        else:
            first, second = divmod(draw - 2 * cross, touched - 1)
            a, b = post[first], post[second + (second >= first)]
        interactions += 1
        pair = a * num_states + b
        if effective[pair]:
            counts[a] -= 1
            counts[b] -= 1
            counts[out_a[pair]] += 1
            counts[out_b[pair]] += 1
            last_change = interactions


def _untouched_state(untouched: np.ndarray, index: int) -> int:
    return int(untouched.cumsum().searchsorted(index, side="right"))


# HysteresisUSD's effective self-pairs, (1, 1), (3, 3), ..., exercise
# the [a = b] term of the pair weight
PROTOCOLS = {
    "usd-k2": UndecidedStateDynamics(k=2),
    "usd-k6": UndecidedStateDynamics(k=6),
    "usd-k27": UndecidedStateDynamics(k=27),
    "hysteresis-k3-r2": HysteresisUSD(3, 2),
    "four-state-majority": FourStateExactMajority(),
    "voter-k3": VoterModel(k=3),
}

#: Call lengths, cycled.  A call of one interaction always clips its
#: epoch (ℓ ≥ 1); the long calls play whole epochs and collisions.
CHUNKS = (1, 2, 3, 7, 50, 400, 2000)
CALLS = 28

#: A ``counts_step`` stretch after a hand-over lasts this many effective
#: interactions in expectation, as in ``MultiBatchEngine``.
STRETCH_EVENTS = 64


def _initial_counts(protocol, n: int, seed: int) -> np.ndarray:
    """A random configuration of ``n`` agents whose last state is empty."""
    weights = np.ones(protocol.num_states)
    weights[-1] = 0.0
    return np.random.default_rng(seed).multinomial(n, weights / weights.sum())


def _play_both(
    protocol, counts, seed: int, chunks=CHUNKS, calls=CALLS, epochs_only=False
) -> dict:
    """Run both kernels call by call from the same state; return tallies.

    ``epochs_only`` sets E[ℓ] = ∞, which switches the hand-over off, so
    the kernel plays epochs whatever p_effective is.
    """
    inputs = EpochInputs.from_table(protocol.table, int(sum(counts)))
    if epochs_only:
        inputs = replace(inputs, expected_epoch=math.inf)
    fast_counts = np.array(counts, dtype=np.int64)
    reference_counts = fast_counts.copy()
    fast_rng = RecordingGenerator(seed)
    reference_rng = RecordingGenerator(seed)
    tally = {"at_target": 0, "changed": 0, "absorbed": 0, "handover": 0}

    def check(got, want, where):
        assert got == want, f"{where}: {got} != {want}"
        assert fast_counts.tolist() == reference_counts.tolist(), where
        assert fast_rng.calls == reference_rng.calls, f"{where}: other draws"
        assert (
            fast_rng.bit_generator.state == reference_rng.bit_generator.state
        ), f"{where} consumed a different stream"

    start = 0
    for call in range(calls):
        target = start + chunks[call % len(chunks)]
        while True:
            got = multibatch_step(inputs, fast_counts, fast_rng, start, target)
            want = reference_multibatch_step(
                inputs, reference_counts, reference_rng, start, target
            )
            check(got, want, f"call {call} from {start}")
            interactions, last_change, absorbed = got
            tally["changed"] += last_change is not None
            tally["absorbed"] += absorbed
            start = interactions
            if interactions >= target:
                tally["at_target"] += not absorbed
                break
            # p_effective · E[ℓ] < 1: the engine plays a counts stretch
            tally["handover"] += 1
            weight = inputs.pairs.effective_weight(reference_counts)
            stretch = math.ceil(
                STRETCH_EVENTS * inputs.pairs.pair_denominator / weight
            )
            stop = min(target, start + stretch)
            got = counts_step(inputs.pairs, fast_counts, fast_rng, start, stop)
            want = counts_step(
                inputs.pairs, reference_counts, reference_rng, start, stop
            )
            check(got, want, f"call {call}, counts stretch from {start}")
            start = got[0]
            if start >= target:
                break
    draws = fast_rng.calls
    tally["draws"] = len(draws)
    tally["integer_bounds"] = [entry[2] for entry in draws if entry[0] == "integers"]
    # an epoch of ℓ = M, the end of the table, plays no collision: no
    # ``integers`` right after its hypergeometric draw and shuffle
    longest = len(inputs.epoch_table) - 1
    kinds = [entry[0] for entry in draws] + [None, None]
    tally["table_end"] = sum(
        kind == "multivariate_hypergeometric"
        and draws[i][2] == 2 * longest
        and kinds[i + 2] != "integers"
        for i, kind in enumerate(kinds[:-2])
    )
    return tally


@pytest.mark.parametrize("n", [2, 5, 1000, 2_000_000])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_block_weight_is_the_pair_sum(name, n):
    """``effective_weight`` by initiator block is the integer the
    replaced loop summed over the pairs, ``[a = b]`` term included
    (small n puts single agents in HysteresisUSD's self-pair states)."""
    protocol = PROTOCOLS[name]
    inputs = KernelInputs.from_table(protocol.table, n)
    rng = np.random.default_rng(n)
    for _ in range(50):
        counts = rng.multinomial(n, rng.dirichlet(np.ones(protocol.num_states)))
        weights = counts[inputs.eff_a] * (counts[inputs.eff_b] - inputs.eff_same)
        assert inputs.effective_weight(counts) == int(weights.sum())


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_same_draws_at_the_end_of_the_epoch_table(name, n):
    """At n = 6 and 7 the epoch table ends at n // 2 = 3: an epoch of
    three interactions touches six agents and plays no collision, and
    the colliding pair is often two touched agents.  Hand-over off."""
    protocol = PROTOCOLS[name]
    uniform = np.full(protocol.num_states, 1.0 / protocol.num_states)
    tally = {"at_target": 0, "table_end": 0}
    for seed in range(100):
        counts = np.random.default_rng(seed).multinomial(n, uniform)
        played = _play_both(
            protocol, counts, seed=3000 + seed, chunks=(9, 1, 5, 2), calls=8,
            epochs_only=True,
        )
        tally["at_target"] += played["at_target"]
        tally["table_end"] += played["table_end"]
    assert tally["at_target"] > 0
    assert tally["table_end"] > 0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_same_draws_mid_run(name):
    """n = 2·10⁴, far from absorption: every call ends at its target,
    the short ones inside a clipped epoch, the long ones after many
    collisions."""
    protocol = PROTOCOLS[name]
    counts = _initial_counts(protocol, 20_000, seed=4)
    tally = _play_both(protocol, counts, seed=5)
    assert tally["at_target"] == CALLS
    assert tally["changed"] > 0 and tally["integer_bounds"]


def test_same_draws_where_the_collision_bound_passes_2_to_the_32():
    """At n = 2·10⁶ an epoch touches ~1780 agents, so the collision
    draw's bound 2·t·(n − t) + t(t − 1) exceeds 2³² and
    ``rng.integers`` draws 64-bit words."""
    protocol = UndecidedStateDynamics(k=6)
    counts = _initial_counts(protocol, 2_000_000, seed=9)
    tally = _play_both(
        protocol, counts, seed=10, chunks=(1, 3, 7, 400, 5000, 20_000)
    )
    assert tally["at_target"] == CALLS
    assert max(tally["integer_bounds"]) > 2**32


@pytest.mark.parametrize(
    "protocol, counts",
    [
        (UndecidedStateDynamics(k=6), [30, 19_850, 24, 24, 24, 24, 24]),
        (HysteresisUSD(3, 2), [40, 30, 19_800, 40, 30, 40, 20]),
        (VoterModel(k=3), [19_850, 100, 50]),
    ],
    ids=["usd-k6", "hysteresis-k3-r2", "voter-k3"],
)
def test_hand_over_returns(protocol, counts):
    """Just above the hand-over point: the kernel plays epochs until an
    epoch holds less than one effective interaction on average, then
    returns before its target, and the engine plays ``counts_step``."""
    tally = _play_both(protocol, counts, seed=11, chunks=(5000, 50, 1, 20_000))
    assert tally["handover"] > 0
    assert tally["changed"] > 0


@pytest.mark.parametrize(
    "protocol, counts",
    [
        (UndecidedStateDynamics(k=6), [0, 0, 0, 20_000, 0, 0, 0]),
        (UndecidedStateDynamics(k=2), [0, 7, 0]),
        (VoterModel(k=3), [40, 0, 0]),
    ],
    ids=["usd-k6-consensus", "usd-k2-n7-consensus", "voter-consensus"],
)
def test_absorbing_start(protocol, counts):
    tally = _play_both(protocol, counts, seed=12)
    assert tally == {
        "at_target": 0,
        "changed": 0,
        "absorbed": CALLS,
        "handover": 0,
        "draws": 0,
        "integer_bounds": [],
        "table_end": 0,
    }
