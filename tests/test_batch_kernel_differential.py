"""``batch_step`` against the τ-leaping loop it replaced.

``reference_batch_step`` below is the numpy ``batch_step`` body the
engines ran before the loop's glue was cut down: the delta as the
int64 product ``pair_counts @ eff_delta``, and both checks through
``np.any``.  It reads today's :class:`KernelInputs`, so only the loop
body differs.  Call for call, the kernel must return the same
``(interactions, last_change, absorbed, batch, halvings)``, leave the
same counts, and make the same random draws: every ``binomial`` and
``multinomial`` call, with its arguments (the probabilities float for
float), in the same order, and the same ``rng.bit_generator.state``
after it.
"""

from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.kernels import KernelInputs
from repro.core.kernels.numpy_backend import batch_step
from repro.errors import BatchSizeError
from repro.protocols import (
    FourStateExactMajority,
    HysteresisUSD,
    UndecidedStateDynamics,
    VoterModel,
)

from recording_generator import RecordingGenerator


def reference_batch_step(
    inputs: KernelInputs,
    counts: np.ndarray,
    rng: np.random.Generator,
    num: int,
    start: int,
    batch: int,
    nominal_batch: int,
) -> Tuple[int, Optional[int], bool, int, int]:
    interactions = start
    last_change: Optional[int] = None
    remaining = num
    halvings = 0
    while remaining > 0:
        weights = counts[inputs.eff_a] * (counts[inputs.eff_b] - inputs.eff_same)
        total = float(weights.sum())
        if total == 0.0:
            return interactions + remaining, last_change, True, batch, halvings
        p_effective = min(1.0, total / inputs.pair_denominator)
        attempt = min(batch, remaining)
        probabilities = weights / total
        while True:
            if attempt < 1:  # pragma: no cover - B=1 cannot reject
                raise BatchSizeError("batch size collapsed below one interaction")
            effective = int(rng.binomial(attempt, p_effective))
            if effective == 0:
                applied = attempt
                break
            pair_counts = rng.multinomial(effective, probabilities)
            delta = pair_counts @ inputs.eff_delta
            candidate = counts + delta
            if np.any(candidate < 0):
                attempt = max(1, attempt // 2)
                batch = attempt
                halvings += 1
                continue
            counts[:] = candidate
            if np.any(delta != 0):
                last_change = interactions + attempt
            applied = attempt
            break
        interactions += applied
        remaining -= applied
        if batch < nominal_batch:
            batch = min(nominal_batch, batch * 2)
    return interactions, last_change, False, batch, halvings


# HysteresisUSD's effective self-pairs, (1, 1), (3, 3), ..., exercise
# the [a = b] term of the pair weight
PROTOCOLS = {
    "usd-k2": UndecidedStateDynamics(k=2),
    "usd-k6": UndecidedStateDynamics(k=6),
    "usd-k11": UndecidedStateDynamics(k=11),
    "usd-k27": UndecidedStateDynamics(k=27),
    "hysteresis-k3-r2": HysteresisUSD(3, 2),
    "four-state-majority": FourStateExactMajority(),
    "voter-k3": VoterModel(k=3),
}

SIZES = (7, 60, 2000, 100_000, 1_000_000)

CALLS = 12


def _default_nominal(n: int) -> int:
    """``BatchEngine``'s nominal batch at its default ``epsilon``."""
    return max(1, round(0.002 * n))


def _chunks(nominal: int) -> Tuple[int, ...]:
    """Call lengths, cycled: most are not a multiple of the batch."""
    return (1, nominal + 1, 3, 3 * nominal + 7, nominal, 2 * nominal - 1)


def _initial_counts(protocol, n: int, seed: int) -> np.ndarray:
    """A random configuration of ``n`` agents whose last state is empty."""
    weights = np.ones(protocol.num_states)
    weights[-1] = 0.0
    return np.random.default_rng(seed).multinomial(n, weights / weights.sum())


def _near_consensus(protocol, n: int) -> np.ndarray:
    """State 1 holds all but one agent of every other state, so a batch
    of ``n / 3`` often overdraws one of them."""
    counts = np.ones(protocol.num_states, dtype=np.int64)
    counts[1] = n - (protocol.num_states - 1)
    return counts


def _play_both(
    protocol, counts, seed: int, nominal: int, chunks, calls=CALLS, batch=None
) -> dict:
    """Run both kernels call by call from the same state; return tallies.

    ``batch`` is the batch carried into the first call (``nominal`` if
    ``None``); each later call carries the batch the last one returned,
    as ``BatchEngine`` does.
    """
    inputs = KernelInputs.from_table(protocol.table, int(sum(counts)))
    fast_counts = np.array(counts, dtype=np.int64)
    reference_counts = fast_counts.copy()
    fast_rng = RecordingGenerator(seed)
    reference_rng = RecordingGenerator(seed)
    batch = nominal if batch is None else batch
    tally = {
        "at_target": 0,
        "changed": 0,
        "absorbed": 0,
        "halvings": 0,
        "recovered": 0,
        "partial": 0,
    }
    start = 0
    for call in range(calls):
        num = chunks[call % len(chunks)]
        where = f"call {call} from {start}, batch {batch}"
        want = reference_batch_step(
            inputs, reference_counts, reference_rng, num, start, batch, nominal
        )
        # a kernel that draws past the reference fails, never hangs
        fast_rng.limit = len(reference_rng.calls)
        got = batch_step(inputs, fast_counts, fast_rng, num, start, batch, nominal)
        assert got == want, f"{where}: {got} != {want}"
        assert fast_counts.tolist() == reference_counts.tolist(), where
        assert fast_rng.calls == reference_rng.calls, f"{where}: other draws"
        assert (
            fast_rng.bit_generator.state == reference_rng.bit_generator.state
        ), f"{where} consumed a different stream"
        interactions, last_change, absorbed, returned, halvings = got
        assert interactions == start + num
        tally["at_target"] += not absorbed
        tally["changed"] += last_change is not None
        tally["absorbed"] += absorbed
        tally["halvings"] += halvings
        tally["recovered"] += returned > batch
        tally["partial"] += num % batch != 0
        start, batch = interactions, returned
    tally["draws"] = len(fast_rng.calls)
    return tally


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_same_draws_mid_run(name, n):
    """At the engine's default batch, from a random start: calls of
    every length, most of them not a multiple of the batch."""
    protocol = PROTOCOLS[name]
    nominal = _default_nominal(n)
    counts = _initial_counts(protocol, n, seed=n % 1000 + 4)
    tally = _play_both(protocol, counts, seed=5, nominal=nominal, chunks=_chunks(nominal))
    assert tally["draws"] > 0 and tally["changed"] > 0
    if nominal > 1:
        assert tally["partial"] > 0


@pytest.mark.parametrize("n", [2000, 100_000, 1_000_000])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_carried_in_batch_recovers(name, n):
    """A batch carried in below nominal doubles after each success."""
    protocol = PROTOCOLS[name]
    nominal = _default_nominal(n)
    counts = _initial_counts(protocol, n, seed=6)
    tally = _play_both(
        protocol, counts, seed=7, nominal=nominal, chunks=(5 * nominal + 3,),
        calls=3, batch=1,
    )
    assert tally["recovered"] > 0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_rejections_near_consensus(name):
    """A nominal batch of n / 3 next to states of one agent each
    overdraws them: batches reject, halve and recover."""
    protocol = PROTOCOLS[name]
    halvings = 0
    for n in SIZES:
        if n < 2 * protocol.num_states:
            continue
        nominal = n // 3
        for seed in range(6):
            tally = _play_both(
                protocol, _near_consensus(protocol, n), seed=seed, nominal=nominal,
                chunks=(nominal, 2 * nominal + 1, 1, nominal - 1),
            )
            halvings += tally["halvings"]
    assert halvings > 0


@pytest.mark.parametrize(
    "protocol, counts",
    [
        (UndecidedStateDynamics(k=6), [0, 0, 0, 20_000, 0, 0, 0]),
        (UndecidedStateDynamics(k=2), [0, 7, 0]),
        (UndecidedStateDynamics(k=27), [0] * 5 + [1_000_000] + [0] * 22),
        (VoterModel(k=3), [40, 0, 0]),
        (FourStateExactMajority(), [60, 0, 0, 0]),
    ],
    ids=[
        "usd-k6-consensus",
        "usd-k2-n7-consensus",
        "usd-k27-consensus",
        "voter-consensus",
        "four-state-consensus",
    ],
)
def test_absorbing_start(protocol, counts):
    n = sum(counts)
    nominal = _default_nominal(n)
    tally = _play_both(protocol, counts, seed=12, nominal=nominal, chunks=_chunks(nominal))
    assert tally == {
        "at_target": 0,
        "changed": 0,
        "absorbed": CALLS,
        "halvings": 0,
        "recovered": 0,
        "partial": tally["partial"],
        "draws": 0,
    }
