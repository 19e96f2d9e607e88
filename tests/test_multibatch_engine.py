"""The exact batched engine (collision-free epochs).

Three kinds of evidence that ``multibatch`` samples the law of the
agent-level model:

* its epoch-length table is the exact law of the number of disjoint
  interactions before the first collision;
* the joint law of (counts, index of the last change) after a few
  interactions — epochs, collisions and a clipped last epoch included —
  matches the exact law computed by dynamic programming, for the engine
  at n = 20 and for the epoch kernel alone at n = 6 and 7;
* at the paper-style configurations it agrees with the exact ``counts``
  engine at fixed seeds: KS on hitting times, χ² on winners, KS on a
  mid-run marginal (the undecided count at parallel time 3).

Trajectories are pinned per seed, like every other engine's.
"""

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from repro import Configuration, CountsEngine, MultiBatchEngine
from repro.core.kernels import EpochInputs
from repro.core.kernels.numpy_backend import multibatch_step
from repro.protocols import FourStateExactMajority, UndecidedStateDynamics

#: Smallest p-value a law comparison accepts.  The seeds are fixed, so
#: each comparison is deterministic; with 17 comparisons, a correct
#: engine reseeded would trip one with probability ~1.7 %.
ALPHA = 0.001


def usd_counts(n, k, bias):
    protocol = UndecidedStateDynamics(k=k)
    config = Configuration.equal_minorities_with_bias(n, k, bias)
    return protocol, protocol.encode_configuration(config)


# ----------------------------------------------------------------------
# The epoch-length law
# ----------------------------------------------------------------------


class TestEpochTable:
    @pytest.mark.parametrize("n", [2, 3, 7, 20, 501])
    def test_survival_is_the_disjointness_product(self, n):
        inputs = EpochInputs.from_table(UndecidedStateDynamics(k=2).table, n)
        table = np.array(inputs.epoch_table)
        survival = np.exp(-table)
        expected = [1.0]
        for i in range(len(table) - 1):
            # the (i + 1)-th interaction picks 2 of the n − 2i untouched
            expected.append(
                expected[-1] * (n - 2 * i) * (n - 2 * i - 1) / (n * (n - 1))
            )
        np.testing.assert_allclose(survival, expected, rtol=1e-12, atol=1e-300)
        assert table[0] == table[1] == 0.0
        assert np.all(np.diff(table) >= 0)

    def test_table_reaches_n_half_or_negligible_survival(self):
        small = EpochInputs.from_table(UndecidedStateDynamics(k=2).table, 101)
        assert len(small.epoch_table) - 1 == 50
        large = EpochInputs.from_table(UndecidedStateDynamics(k=2).table, 10**6)
        assert len(large.epoch_table) - 1 < 10**6 // 2
        assert np.exp(-large.epoch_table[-1]) < 1e-50

    def test_expected_epoch_is_about_063_sqrt_n(self):
        n = 10**6
        inputs = EpochInputs.from_table(UndecidedStateDynamics(k=2).table, n)
        # E[ℓ] → √(πn/8) ≈ 0.627·√n
        assert inputs.expected_epoch == pytest.approx(
            np.sqrt(np.pi * n / 8), rel=0.01
        )


# ----------------------------------------------------------------------
# Exact few-step law at n = 20
# ----------------------------------------------------------------------


def exact_law(protocol, counts, steps):
    """Exact joint law of (counts, last change index or 0) after ``steps``."""
    table = protocol.table
    size = protocol.num_states
    n = int(sum(counts))
    moves = [
        (a, b, bool(table.null_mask[a, b]), tuple(int(d) for d in table.delta_of(a, b)))
        for a in range(size)
        for b in range(size)
    ]
    law = {(tuple(int(c) for c in counts), 0): 1.0}
    for step in range(1, steps + 1):
        following = defaultdict(float)
        for (state, last), probability in law.items():
            for a, b, null, delta in moves:
                weight = state[a] * (state[b] - (a == b))
                if weight == 0:
                    continue
                mass = probability * weight / (n * (n - 1))
                if null:
                    following[(state, last)] += mass
                else:
                    moved = tuple(c + d for c, d in zip(state, delta))
                    following[(moved, step)] += mass
        law = following
    return law


def sampled_law(engine_cls, protocol, counts, steps, seeds):
    outcomes = defaultdict(int)
    for seed in seeds:
        engine = engine_cls(protocol, counts, seed=seed)
        engine.step(steps)
        assert engine.interactions == steps
        last = engine.last_change_interaction
        outcomes[(tuple(int(c) for c in engine.counts), last or 0)] += 1
    return outcomes


def chi_square_against(law, outcomes):
    """χ² p-value of sampled outcomes against an exact law (sparse bins pooled)."""
    total = sum(outcomes.values())
    assert set(outcomes) <= set(law), "an outcome the exact law forbids"
    observed, expected = [], []
    rest_observed = rest_expected = 0.0
    for key, probability in law.items():
        mass = probability * total
        if mass >= 5:
            observed.append(outcomes.get(key, 0))
            expected.append(mass)
        else:
            rest_observed += outcomes.get(key, 0)
            rest_expected += mass
    observed.append(rest_observed)
    expected.append(rest_expected)
    return stats.chisquare(observed, expected).pvalue


class TestExactFewStepLaw:
    """Joint law of (counts, last change) after a few interactions.

    At n = 20 an epoch holds ~3 interactions, so 9 interactions take
    several epochs, each with its collision, and a clipped last epoch.
    Every start has p_effective · E[ℓ] ≥ 1, so the epoch kernel, not
    the counts hand-over, plays at least the first epoch.
    """

    SAMPLES = 4000

    @pytest.mark.parametrize(
        "protocol, counts",
        [
            (UndecidedStateDynamics(k=2), (0, 10, 10)),
            (UndecidedStateDynamics(k=3), (2, 8, 5, 5)),
            (FourStateExactMajority(), (8, 7, 3, 2)),
        ],
        ids=["usd2", "usd3", "four-state"],
    )
    def test_matches_dynamic_programming(self, protocol, counts):
        start = MultiBatchEngine(protocol, np.array(counts), seed=0)
        inputs = EpochInputs.from_table(protocol.table, start.n)
        assert start.effective_probability() * inputs.expected_epoch >= 1
        steps = 9
        law = exact_law(protocol, counts, steps)
        assert sum(law.values()) == pytest.approx(1.0)
        outcomes = sampled_law(
            MultiBatchEngine, protocol, np.array(counts), steps, range(self.SAMPLES)
        )
        assert chi_square_against(law, outcomes) > ALPHA


class TestEpochKernelLaw:
    """The epoch kernel alone, with the counts hand-over switched off.

    At n = 6 or 7 an epoch touches most of the population, so the
    colliding pair is often two touched agents; E[ℓ] = ∞ makes the
    kernel play epochs whatever p_effective is.
    """

    SAMPLES = 4000

    @pytest.mark.parametrize(
        "protocol, counts, steps",
        [
            (UndecidedStateDynamics(k=2), (0, 3, 3), 6),
            (UndecidedStateDynamics(k=3), (0, 2, 2, 2), 6),
            (FourStateExactMajority(), (3, 2, 1, 1), 8),
        ],
        ids=["usd2", "usd3", "four-state"],
    )
    def test_matches_dynamic_programming(self, protocol, counts, steps):
        n = sum(counts)
        inputs = replace(
            EpochInputs.from_table(protocol.table, n), expected_epoch=math.inf
        )
        outcomes = defaultdict(int)
        for seed in range(self.SAMPLES):
            state = np.array(counts, dtype=np.int64)
            rng = np.random.default_rng(seed)
            played, last, _ = multibatch_step(inputs, state, rng, 0, steps)
            assert played == steps
            outcomes[(tuple(int(c) for c in state), last or 0)] += 1
        law = exact_law(protocol, counts, steps)
        assert chi_square_against(law, outcomes) > ALPHA


# ----------------------------------------------------------------------
# Law against the counts engine at fixed seeds
# ----------------------------------------------------------------------


def winner_of(counts):
    """Index of the opinion holding every agent (USD layout), else -1."""
    n = int(counts.sum())
    hits = np.flatnonzero(counts[1:] == n)
    return int(hits[0]) + 1 if hits.size else -1


def ensemble(engine_cls, protocol, counts, seeds):
    """Hitting times, final counts, and the count of state 0 at parallel
    time 3 (undecided agents for USD, strong A for four-state)."""
    n = int(counts.sum())
    times, finals, marginal = [], [], []
    for seed in seeds:
        engine = engine_cls(protocol, counts, seed=seed)
        engine.step(3 * n)
        marginal.append(int(engine.counts[0]))
        engine.run(10_000 * n)
        assert engine.is_absorbed
        times.append(engine.last_change_interaction)
        finals.append(engine.counts)
    return np.asarray(times), finals, np.asarray(marginal)


def winner_p_value(first, second):
    labels = sorted(set(first) | set(second))
    if len(labels) == 1:
        return 1.0
    table = np.array(
        [[list(sample).count(label) for label in labels] for sample in (first, second)]
    )
    return stats.chi2_contingency(table).pvalue


class TestLawMatchesCounts:
    """Same law as the exact counts engine, on disjoint fixed seeds."""

    @pytest.mark.parametrize(
        "n, k, bias, runs",
        [(300, 3, 10, 100), (1000, 4, 40, 40), (64, 2, 4, 300)],
        ids=["n300", "n1000", "n64"],
    )
    def test_usd(self, n, k, bias, runs):
        protocol, counts = usd_counts(n, k, bias)
        seeds = range(runs)
        mb_times, mb_finals, mb_undecided = ensemble(
            MultiBatchEngine, protocol, counts, [10_000 + s for s in seeds]
        )
        ref_times, ref_finals, ref_undecided = ensemble(
            CountsEngine, protocol, counts, [20_000 + s for s in seeds]
        )
        assert stats.ks_2samp(mb_times, ref_times).pvalue > ALPHA
        assert stats.ks_2samp(mb_undecided, ref_undecided).pvalue > ALPHA
        mb_winners = [winner_of(c) for c in mb_finals]
        ref_winners = [winner_of(c) for c in ref_finals]
        assert winner_p_value(mb_winners, ref_winners) > ALPHA

    def test_four_state_exact_majority(self):
        protocol = FourStateExactMajority()
        counts = np.array([120, 80, 0, 0])  # strong A, strong B, weak a, weak b
        seeds = range(150)
        mb_times, mb_finals, mb_strong = ensemble(
            MultiBatchEngine, protocol, counts, [30_000 + s for s in seeds]
        )
        ref_times, ref_finals, ref_strong = ensemble(
            CountsEngine, protocol, counts, [40_000 + s for s in seeds]
        )
        assert stats.ks_2samp(mb_times, ref_times).pvalue > ALPHA
        assert stats.ks_2samp(mb_strong, ref_strong).pvalue > ALPHA
        # a strict majority always wins: A-side agents hold the population
        for final in mb_finals + ref_finals:
            assert final[1] == final[3] == 0


# ----------------------------------------------------------------------
# Engine contract
# ----------------------------------------------------------------------


class TestContract:
    @pytest.mark.parametrize("seed", range(6))
    def test_absorbed_flag_is_sound_and_complete(self, seed):
        protocol = UndecidedStateDynamics(k=3)
        engine = MultiBatchEngine(protocol, np.array([0, 40, 30, 30]), seed=seed)
        for chunk in (1, 7, 50, 333, 1000, 5000, 20_000):
            engine.step(chunk)
            assert engine.is_absorbed == protocol.is_absorbing(engine.counts)

    def test_counts_handover_near_absorption(self):
        # one undecided agent among 10⁴ decided ones: p_effective · E[ℓ] ≪ 1
        protocol = UndecidedStateDynamics(k=2)
        engine = MultiBatchEngine(protocol, np.array([1, 9_999, 0]), seed=4)
        inputs = EpochInputs.from_table(protocol.table, engine.n)
        assert engine.effective_probability() * inputs.expected_epoch < 1
        engine.step(10**6)
        assert engine.is_absorbed
        assert engine.counts.tolist() == [0, 10_000, 0]
        assert 1 <= engine.last_change_interaction <= 10**6


# ----------------------------------------------------------------------
# Pinned trajectories
# ----------------------------------------------------------------------


class TestPinnedTrajectories:
    """One trajectory per seed: any change to the draw order shows here."""

    #: seed -> (counts at parallel time 3, final counts, last change)
    PINS = {
        0: ([409, 194, 177, 113, 107], [0, 1000, 0, 0, 0], 14793),
        1: ([400, 143, 125, 178, 154], [0, 0, 0, 1000, 0], 14528),
        2: ([393, 225, 123, 114, 145], [0, 1000, 0, 0, 0], 11739),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_pinned(self, seed):
        protocol, counts = usd_counts(1000, 4, 40)
        engine = MultiBatchEngine(protocol, counts, seed=seed)
        engine.step(3 * 1000)
        middle, final, last_change = self.PINS[seed]
        assert engine.counts.tolist() == middle
        engine.run(10_000 * 1000)
        assert engine.counts.tolist() == final
        assert engine.last_change_interaction == last_change
