"""Tests for meanfield.timescales and gossip.run (the two bridge front-ends)."""

import numpy as np
import pytest

from repro import Configuration, SimulationError, simulate
from repro.gossip import GossipUSD, GossipVoter, simulate_gossip
from repro.meanfield import predict_timescales
from repro.protocols import UndecidedStateDynamics
from repro.workloads import paper_initial_configuration


class TestMeanFieldTimescales:
    @pytest.fixture(scope="class")
    def prediction(self):
        config = paper_initial_configuration(50_000, 6)
        return predict_timescales(config, horizon=300.0)

    def test_event_ordering(self, prediction):
        """Plateau entry < doubling < consensus — the Figure 1 order."""
        assert prediction.plateau_entry is not None
        assert prediction.majority_doubling is not None
        assert prediction.consensus is not None
        assert (
            prediction.plateau_entry
            < prediction.majority_doubling
            < prediction.consensus
        )

    def test_doubling_fraction_dominates(self, prediction):
        """The deterministic skeleton shows the same 'doubling consumes
        most of the run' shape as Figure 1 (right)."""
        assert prediction.doubling_fraction_of_consensus > 0.5

    def test_prediction_tracks_simulation(self, prediction):
        """Simulated doubling time within a modest band of the ODE's."""
        n, k = 50_000, 6
        config = paper_initial_configuration(n, k)
        protocol = UndecidedStateDynamics(k=k)
        from repro.analysis import doubling_time

        measured = []
        for seed in range(3):
            result = simulate(
                protocol,
                config,
                engine="batch",
                seed=seed,
                max_parallel_time=500.0,
                snapshot_every=n // 10,
            )
            if result.winner == 1:
                value = doubling_time(result.trace, opinion=1)
                if value is not None:
                    measured.append(value)
        assert measured, "no majority-win run to compare against"
        ratio = np.median(measured) / prediction.majority_doubling
        assert 0.5 < ratio < 2.0

    def test_validation(self):
        config = Configuration([5, 5])
        with pytest.raises(SimulationError):
            predict_timescales(config, horizon=0)
        with pytest.raises(SimulationError):
            predict_timescales(config, tolerance=0.9)

    def test_unreached_events_are_none(self):
        """A symmetric tie never doubles or reaches consensus in the ODE."""
        config = Configuration([500, 500])
        prediction = predict_timescales(config, horizon=20.0)
        assert prediction.majority_doubling is None
        assert prediction.consensus is None


class TestSimulateGossip:
    def test_usd_end_to_end(self):
        dynamics = GossipUSD(k=3)
        config = Configuration.equal_minorities_with_bias(5_000, 3, 400)
        result = simulate_gossip(
            dynamics, config, seed=1, max_rounds=2_000, snapshot_every=2
        )
        assert result.stabilized
        assert result.winner == 1
        assert result.stabilization_rounds is not None
        assert result.stabilization_rounds <= result.rounds
        assert result.trace.times[0] == 0
        assert result.trace.undecided_series()[0] == 0

    def test_raw_counts_accepted(self):
        dynamics = GossipVoter(k=2)
        result = simulate_gossip(
            dynamics, np.array([40, 10]), seed=2, max_rounds=100_000
        )
        assert result.stabilized
        assert result.winner in (1, 2)

    def test_winner_none_when_all_undecided(self):
        dynamics = GossipUSD(k=2)
        result = simulate_gossip(
            dynamics, np.array([10, 0, 0]), seed=0, max_rounds=10
        )
        assert result.stabilized
        assert result.winner is None

    def test_starting_absorbed_runs_no_round(self):
        """Like the population engines: 0 rounds, stabilized at round 0."""
        result = simulate_gossip(GossipUSD(k=2), [0, 100, 0], max_rounds=50)
        assert result.stabilized
        assert result.rounds == 0
        assert result.stabilization_rounds == 0
        assert len(result.trace) == 1

    def test_live_run_unchanged_by_check_order(self):
        result = simulate_gossip(GossipUSD(k=2), [10, 60, 30], seed=1, max_rounds=50)
        assert result.rounds == 8
        assert result.stabilization_rounds == 8
        assert len(result.trace) == 9

    def test_negative_rounds_rejected(self):
        dynamics = GossipUSD(k=2)
        with pytest.raises(SimulationError):
            simulate_gossip(dynamics, np.array([0, 5, 5]), max_rounds=-1)

    def test_metadata(self):
        dynamics = GossipUSD(k=2)
        result = simulate_gossip(
            dynamics,
            np.array([0, 6, 4]),
            seed=3,
            max_rounds=500,
            metadata={"tag": "unit"},
        )
        assert result.metadata["tag"] == "unit"
        assert result.trace.metadata["dynamics"] == dynamics.name
