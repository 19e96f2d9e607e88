"""End-to-end integration tests across the whole stack.

These tie the substrates together the way a user of the library would:
workload → protocol → engine → trace → analysis → theory check, and
simulation vs mean-field vs gossip.
"""

import math

import numpy as np
import pytest

from repro import Configuration, simulate
from repro.analysis import (
    doubling_time,
    undecided_exceedance,
    usd_stabilization_ensemble,
)
from repro.gossip import GossipEngine, GossipUSD
from repro.io import load_trace, save_trace
from repro.meanfield import USDMeanField
from repro.protocols import UndecidedStateDynamics
from repro.theory import (
    LEMMA31_SLACK_MULTIPLIER,
    lemma33_min_interactions,
    trivial_lower_bound_parallel_time,
)
from repro.workloads import paper_initial_configuration


class TestFullPipeline:
    """Workload → simulate → analysis → theory checks, at small scale."""

    @pytest.fixture(scope="class")
    def run(self):
        n, k = 6_000, 6
        config = paper_initial_configuration(n, k)
        protocol = UndecidedStateDynamics(k=k)
        return simulate(
            protocol,
            config,
            engine="counts",
            seed=2024,
            max_parallel_time=2_000.0,
            snapshot_every=n // 10,
        )

    def test_stabilizes_within_amir_scale(self, run):
        assert run.stabilized
        n = run.trace.n
        k = 6
        assert run.stabilization_parallel_time < 10 * k * math.log(n)

    def test_respects_trivial_lower_bound(self, run):
        """No run can stabilize faster than ~log n parallel time (coupon
        collector); allow a factor-3 constant."""
        assert run.stabilization_parallel_time > trivial_lower_bound_parallel_time(
            run.trace.n
        ) / 3.0

    def test_lemma31_exceedance_small(self, run):
        exceedance = undecided_exceedance(run.trace, k=6)
        assert exceedance.normalized < LEMMA31_SLACK_MULTIPLIER
        assert exceedance.normalized < 5.0  # the O(1) reality

    def test_doubling_consumes_most_of_run(self, run):
        if run.winner != 1:
            pytest.skip("minority won on this seed; doubling check not meaningful")
        double_at = doubling_time(run.trace, opinion=1)
        assert double_at is not None
        assert double_at / run.stabilization_parallel_time > 0.3

    def test_trace_roundtrips_through_disk(self, run, tmp_path):
        path = tmp_path / "run.npz"
        save_trace(run.trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.counts, run.trace.counts)


class TestSimulationVsMeanField:
    def test_undecided_trajectory_tracks_ode(self):
        """The simulated u(t)/n must track the fluid limit to O(1/√n)."""
        n, k = 20_000, 4
        config = paper_initial_configuration(n, k)
        protocol = UndecidedStateDynamics(k=k)
        result = simulate(
            protocol,
            config,
            engine="batch",
            seed=3,
            max_parallel_time=8.0,
            snapshot_every=n // 10,
        )
        trace = result.trace
        model = USDMeanField(k=k)
        solution = model.integrate(
            config, t_end=float(trace.parallel_times[-1]), t_eval=trace.parallel_times
        )
        simulated = trace.undecided_series() / n
        deviation = np.abs(simulated - solution.undecided).max()
        assert deviation < 25 / math.sqrt(n)


class TestPopulationVsGossip:
    def test_both_models_agree_on_winner_under_large_bias(self):
        n, k = 5_000, 4
        config = Configuration.equal_minorities_with_bias(n, k, bias=n // 5)
        protocol = UndecidedStateDynamics(k=k)
        population = simulate(
            protocol, config, engine="counts", seed=9, max_parallel_time=5_000
        )
        dynamics = GossipUSD(k=k)
        gossip = GossipEngine(dynamics, dynamics.encode_configuration(config), seed=9)
        gossip.run(5_000)
        assert population.winner == 1
        assert gossip.is_absorbed
        assert int(np.argmax(gossip.counts[1:])) + 1 == 1


class TestLemmaPipelines:
    def test_growth_time_exceeds_lemma33_bound(self):
        """One full Lemma 3.3 measurement through the public API."""
        from repro.core import stopping
        from repro.workloads import plateau_configuration

        n, k = 10_000, 5
        protocol = UndecidedStateDynamics(k=k)
        config = plateau_configuration(n, k)
        target = int(math.ceil(2 * n / k))
        bound = lemma33_min_interactions(n, k)
        result = simulate(
            protocol,
            config,
            engine="counts",
            seed=13,
            max_interactions=int(20 * bound),
            snapshot_every=n // 10,
            stop=stopping.opinion_reached(protocol, 1, target),
        )
        if int(result.final_counts[1]) >= target:
            assert result.interactions >= bound

    def test_ensemble_reports_consistent_metadata(self):
        config = paper_initial_configuration(2_000, 3)
        ensemble = usd_stabilization_ensemble(
            config, num_seeds=3, seed=4, engine="counts", max_parallel_time=2_000
        )
        assert ensemble.params["n"] == 2_000
        assert ensemble.params["k"] == 3
        assert ensemble.runs == 3
