"""Unit tests for repro.core.run (simulate / RunResult / make_engine)."""

import numpy as np
import pytest

from repro import (
    AgentEngine,
    BatchEngine,
    Configuration,
    CountsEngine,
    MultiBatchEngine,
    SimulationError,
    make_engine,
    simulate,
)
from repro.core.run import resolve_engine_name
from repro.protocols import FourStateExactMajority, UndecidedStateDynamics, VoterModel


@pytest.fixture
def usd2():
    return UndecidedStateDynamics(k=2)


class TestMakeEngine:
    def test_engine_selection_by_name(self, usd2):
        config = Configuration([6, 4])
        assert isinstance(make_engine(usd2, config, engine="agent"), AgentEngine)
        assert isinstance(make_engine(usd2, config, engine="counts"), CountsEngine)
        assert isinstance(make_engine(usd2, config, engine="batch"), BatchEngine)

    def test_auto_small_uses_multibatch(self, usd2):
        engine = make_engine(usd2, Configuration([6, 4]), engine="auto")
        assert isinstance(engine, MultiBatchEngine)
        assert resolve_engine_name("auto", 10) == "multibatch"

    def test_auto_large_uses_multibatch(self, usd2):
        # exact at every n: no size threshold hands large runs to τ-leaping
        n = 10**6
        engine = make_engine(usd2, Configuration([n - 5, 5]), engine="auto")
        assert isinstance(engine, MultiBatchEngine)
        assert resolve_engine_name("auto", n) == "multibatch"

    def test_unknown_engine_rejected(self, usd2):
        with pytest.raises(SimulationError):
            make_engine(usd2, Configuration([6, 4]), engine="warp")

    def test_raw_counts_accepted(self, usd2):
        engine = make_engine(usd2, np.array([1, 5, 4]), engine="counts")
        assert engine.n == 10


class TestSimulate:
    def test_requires_exactly_one_horizon(self, usd2):
        config = Configuration([6, 4])
        with pytest.raises(SimulationError):
            simulate(usd2, config, seed=0)
        with pytest.raises(SimulationError):
            simulate(
                usd2, config, seed=0, max_interactions=10, max_parallel_time=1.0
            )

    def test_stabilizes_and_reports_winner(self, usd2):
        result = simulate(
            usd2, Configuration([80, 20]), seed=1, max_parallel_time=10_000
        )
        assert result.stabilized
        assert result.winner in (1, 2, None)
        assert result.stabilization_interactions is not None
        assert result.stabilization_interactions <= result.interactions
        assert result.stabilization_parallel_time == pytest.approx(
            result.stabilization_interactions / 100
        )

    def test_horizon_respected(self, usd2):
        result = simulate(
            usd2, Configuration([51, 49]), seed=2, max_interactions=50
        )
        assert result.interactions <= 50
        if not result.stabilized:
            assert result.stabilization_interactions is None
            assert result.winner is None

    def test_trace_contains_initial_and_final(self, usd2):
        result = simulate(
            usd2, Configuration([70, 30]), seed=3, max_parallel_time=10_000
        )
        assert result.trace.times[0] == 0
        assert result.trace.counts[0].tolist() == [0, 70, 30]
        assert np.array_equal(result.trace.final_counts(), result.final_counts)

    def test_custom_stop_predicate(self, usd2):
        result = simulate(
            usd2,
            Configuration([50, 50]),
            seed=4,
            max_parallel_time=10_000,
            snapshot_every=5,
            stop=lambda engine: engine.counts[0] >= 10,
        )
        assert result.final_counts[0] >= 10
        assert not result.stabilized or result.final_counts[0] >= 10

    def test_metadata_propagates(self, usd2):
        result = simulate(
            usd2,
            Configuration([6, 4]),
            seed=5,
            max_interactions=10,
            metadata={"workload": "unit-test"},
        )
        assert result.metadata["workload"] == "unit-test"
        assert result.trace.metadata["protocol"] == usd2.name

    def test_final_configuration_for_usd(self, usd2):
        result = simulate(
            usd2, Configuration([80, 20]), seed=6, max_parallel_time=10_000
        )
        final = result.final_configuration()
        assert final.n == 100
        assert final.is_stable()

    def test_winner_none_for_non_opinion_protocol(self):
        protocol = FourStateExactMajority()
        result = simulate(
            protocol,
            Configuration([60, 40]),
            seed=7,
            max_parallel_time=10_000,
        )
        assert result.stabilized
        assert result.winner is None  # four-state has no opinion block

    def test_voter_winner(self):
        protocol = VoterModel(k=3)
        result = simulate(
            protocol,
            Configuration([60, 30, 10]),
            seed=8,
            max_parallel_time=100_000,
        )
        assert result.stabilized
        assert result.winner in (1, 2, 3)

    def test_all_undecided_failure_has_no_winner(self, usd2):
        # k=2 tie at tiny n: the all-undecided absorption happens with
        # noticeable probability; find a seed where it does.
        protocol = UndecidedStateDynamics(k=2)
        for seed in range(200):
            result = simulate(
                protocol,
                Configuration([2, 2]),
                seed=seed,
                max_parallel_time=10_000,
            )
            assert result.stabilized
            if result.final_counts[0] == 4:
                assert result.winner is None
                return
        pytest.fail("no all-undecided absorption found in 200 seeds")

    def test_negative_horizon_rejected(self, usd2):
        with pytest.raises(SimulationError):
            simulate(usd2, Configuration([6, 4]), seed=0, max_interactions=-5)

    def test_started_absorbed_reports_zero(self, usd2):
        result = simulate(
            usd2, Configuration([10, 0]), seed=0, max_interactions=100
        )
        assert result.stabilized
        assert result.stabilization_interactions == 0
        assert result.winner == 1
