"""Unit tests for the τ-leaping batch engine."""

import numpy as np
import pytest

from repro import BatchEngine, Configuration, SimulationError
from repro.protocols import UndecidedStateDynamics
from repro.workloads.initial import paper_initial_configuration


def make_engine(k=3, counts=(0, 400, 350, 250), seed=0, **kwargs):
    protocol = UndecidedStateDynamics(k=k)
    return BatchEngine(protocol, np.array(counts), seed=seed, **kwargs)


class TestConstruction:
    def test_nominal_batch_scales_with_epsilon(self):
        engine = make_engine(epsilon=0.01)
        assert engine.nominal_batch_size == 10  # 0.01 × 1000
        assert engine.epsilon == 0.01

    def test_batch_at_least_one(self):
        engine = make_engine(epsilon=1e-9)
        assert engine.nominal_batch_size == 1

    def test_rejects_bad_epsilon(self):
        with pytest.raises(SimulationError):
            make_engine(epsilon=0.0)
        with pytest.raises(SimulationError):
            make_engine(epsilon=1.5)


class TestStepping:
    def test_population_is_conserved(self):
        engine = make_engine(seed=1)
        engine.step(10_000)
        assert engine.counts.sum() == 1000
        assert engine.interactions == 10_000

    def test_counts_stay_non_negative(self):
        engine = make_engine(seed=2)
        for _ in range(40):
            engine.step(500)
            assert np.all(engine.counts >= 0)

    def test_exact_interaction_accounting_with_odd_steps(self):
        engine = make_engine(seed=3)
        engine.step(17)
        engine.step(5)
        engine.step(4321)
        assert engine.interactions == 17 + 5 + 4321

    def test_reaches_absorption(self):
        engine = make_engine(counts=(0, 600, 200, 200), seed=4)
        engine.step(5_000_000)
        assert engine.is_absorbed
        final = Configuration.from_state_counts(engine.counts)
        assert final.is_stable()

    def test_absorbed_rolls_time(self):
        protocol = UndecidedStateDynamics(k=2)
        engine = BatchEngine(protocol, np.array([0, 50, 0]), seed=0)
        engine.step(1234)
        assert engine.interactions == 1234
        assert engine.counts.tolist() == [0, 50, 0]

    def test_epsilon_one_still_valid(self):
        """Even absurdly large batches must preserve invariants thanks to
        the rejection-halving loop."""
        engine = make_engine(seed=5, epsilon=1.0)
        engine.step(20_000)
        assert engine.counts.sum() == 1000
        assert np.all(engine.counts >= 0)

    def test_batch_size_recovers_after_rejection(self):
        engine = make_engine(seed=6, epsilon=0.5)
        engine.step(50_000)
        # the run was halved at least once, and the batch size doubled
        # back to nominal before it absorbed
        assert engine.rejection_halvings > 0
        assert engine._batch == engine.nominal_batch_size


class TestStatisticalSanity:
    def test_undecided_growth_rate_matches_exact_engine(self):
        """Mean u after a burst of interactions matches the counts engine
        to within Monte-Carlo error (coarse 3-sigma band)."""
        from repro import CountsEngine

        protocol = UndecidedStateDynamics(k=3)
        counts = np.array([0, 400, 350, 250])
        horizon = 600
        runs = 60
        means = {}
        for engine_cls in (CountsEngine, BatchEngine):
            values = []
            for index in range(runs):
                engine = engine_cls(protocol, counts, seed=1000 + index)
                engine.step(horizon)
                values.append(engine.counts[0])
            means[engine_cls.__name__] = (
                np.mean(values),
                np.std(values, ddof=1) / np.sqrt(runs),
            )
        exact_mean, exact_se = means["CountsEngine"]
        batch_mean, batch_se = means["BatchEngine"]
        tolerance = 3.5 * np.hypot(exact_se, batch_se)
        assert abs(exact_mean - batch_mean) < tolerance


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a = make_engine(seed=11)
        b = make_engine(seed=11)
        a.step(5000)
        b.step(5000)
        assert np.array_equal(a.counts, b.counts)


class TestPinnedTrajectories:
    """Seeded trajectories recorded before the kernel's glue was cut:
    any change to the draws, their order or the batch bookkeeping shows
    here.  Each pin is ``(counts, interactions, last_change_interaction,
    rejection_halvings)``."""

    @staticmethod
    def paper_engine(k, n, seed, **kwargs):
        protocol = UndecidedStateDynamics(k=k)
        config = paper_initial_configuration(n, k)
        return BatchEngine(
            protocol, protocol.encode_configuration(config), seed=seed, **kwargs
        )

    @staticmethod
    def pin(engine):
        return (
            engine.counts.tolist(),
            engine.interactions,
            engine.last_change_interaction,
            engine.rejection_halvings,
        )

    def test_figure_one_configuration(self):
        """The paper's n = 10⁶, k = 27: 250 batches of 2000."""
        engine = self.paper_engine(27, 10**6, seed=2025)
        engine.step(500_000)
        assert self.pin(engine) == (
            [
                379579, 25396, 22879, 22716, 22827, 22923, 22997, 22950,
                22819, 22898, 22520, 22914, 23102, 22766, 22706, 22908,
                22814, 22900, 23029, 23265, 22912, 22734, 23015, 22877,
                23086, 22667, 22881, 22920,
            ],
            500_000,
            500_000,
            0,
        )

    def test_many_short_calls(self):
        """n = 10⁵, k = 11: twenty calls of one nominal batch each."""
        engine = self.paper_engine(11, 10**5, seed=11)
        for _ in range(20):
            engine.step(200)
        assert self.pin(engine) == (
            [6610, 9397, 8411, 8371, 8419, 8448, 8401, 8389, 8398, 8363, 8402, 8391],
            4000,
            4000,
            0,
        )

    #: seed -> pin of a run at n = 60, k = 3 with epsilon = 1.0
    HALVING_PINS = {
        0: ([0, 60, 0, 0], 600, 555, 10),
        1: ([0, 60, 0, 0], 600, 210, 5),
        2: ([0, 60, 0, 0], 600, 330, 3),
    }

    @pytest.mark.parametrize("seed", sorted(HALVING_PINS))
    def test_whole_population_batches_halve(self, seed):
        """A nominal batch of n rejects, halves and recovers to the end."""
        engine = self.paper_engine(3, 60, seed=seed, epsilon=1.0)
        engine.step(600)
        assert self.pin(engine) == self.HALVING_PINS[seed]
