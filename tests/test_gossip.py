"""Unit tests for the Gossip-model substrate."""

import numpy as np
import pytest

from repro import Configuration, SimulationError, TrajectoryRecorder
from repro.errors import ConfigurationError, ProtocolError
from repro.gossip import (
    GossipEngine,
    GossipThreeMajority,
    GossipUSD,
    GossipVoter,
    md_time_bound,
    monochromatic_distance,
    three_majority_distribution,
)


class TestGossipEngine:
    def test_round_bookkeeping(self):
        dynamics = GossipUSD(k=2)
        engine = GossipEngine(dynamics, np.array([0, 60, 40]), seed=0)
        engine.step(3)
        assert engine.rounds == 3
        assert engine.interactions == 300
        assert engine.parallel_time == 3.0

    def test_population_conserved(self):
        dynamics = GossipUSD(k=3)
        engine = GossipEngine(dynamics, np.array([0, 40, 35, 25]), seed=1)
        engine.step(30)
        assert engine.counts.sum() == 100

    def test_usd_reaches_consensus(self):
        dynamics = GossipUSD(k=2)
        engine = GossipEngine(dynamics, np.array([0, 700, 300]), seed=2)
        engine.run(5000)
        assert engine.is_absorbed
        assert engine.last_change_round is not None

    def test_absorbed_rolls_rounds(self):
        dynamics = GossipUSD(k=2)
        engine = GossipEngine(dynamics, np.array([0, 50, 0]), seed=0)
        assert engine.is_absorbed
        engine.step(10)
        assert engine.rounds == 10
        assert engine.counts.tolist() == [0, 50, 0]

    def test_recorder_compatible(self):
        dynamics = GossipUSD(k=2)
        engine = GossipEngine(dynamics, np.array([0, 60, 40]), seed=3)
        recorder = TrajectoryRecorder()
        engine.run(10, recorder=recorder, snapshot_every=2)
        trace = recorder.build(
            n=engine.n,
            state_names=dynamics.state_names(),
            protocol_name=dynamics.name,
        )
        assert trace.times[0] == 0
        assert len(trace) >= 2

    def test_rejects_wrong_length(self):
        with pytest.raises(SimulationError):
            GossipEngine(GossipUSD(k=2), np.array([1, 2]))

    def test_rejects_negative_step(self):
        engine = GossipEngine(GossipUSD(k=2), np.array([0, 6, 4]))
        with pytest.raises(SimulationError):
            engine.step(-1)

    def test_determinism(self):
        dynamics = GossipUSD(k=3)
        a = GossipEngine(dynamics, np.array([0, 40, 35, 25]), seed=9)
        b = GossipEngine(dynamics, np.array([0, 40, 35, 25]), seed=9)
        a.step(20)
        b.step(20)
        assert np.array_equal(a.counts, b.counts)


class TestGossipUSD:
    def test_encode(self):
        dynamics = GossipUSD(k=2)
        counts = dynamics.encode_configuration(Configuration([6, 4], undecided=2))
        assert counts.tolist() == [2, 6, 4]

    def test_encode_rejects_wrong_k(self):
        with pytest.raises(ProtocolError):
            GossipUSD(k=2).encode_configuration(Configuration([1, 2, 3]))

    def test_one_round_mean_field(self):
        """With half the nodes undecided and one opinion, recruitment in
        one round converts ≈ u·(x/n) undecided nodes in expectation."""
        dynamics = GossipUSD(k=1)
        runs = 300
        gains = []
        for seed in range(runs):
            engine = GossipEngine(dynamics, np.array([50, 50]), seed=seed)
            engine.step(1)
            gains.append(engine.counts[1] - 50)
        expected = 50 * 0.5  # u × (x/n)
        assert abs(np.mean(gains) - expected) < 4 * np.std(gains) / np.sqrt(runs)

    def test_absorbing_definition(self):
        dynamics = GossipUSD(k=2)
        assert dynamics.is_absorbing(np.array([10, 0, 0]))
        assert dynamics.is_absorbing(np.array([0, 10, 0]))
        assert not dynamics.is_absorbing(np.array([1, 9, 0]))


@pytest.mark.parametrize(
    "dynamics, config",
    [
        (GossipUSD(k=2), Configuration([6, 4], undecided=2)),
        (GossipVoter(k=2), Configuration([6, 4])),
        (GossipThreeMajority(k=2), Configuration([6, 4])),
    ],
    ids=["usd", "voter", "3-majority"],
)
def test_decode_inverts_encode(dynamics, config):
    # the population protocols' decoding, which names a gossip run's winner
    assert dynamics.decode_counts(dynamics.encode_configuration(config)) == config


class TestThreeMajority:
    def test_distribution_is_probability_vector(self):
        for p in ([0.5, 0.5], [0.7, 0.2, 0.1], [0.25] * 4):
            q = three_majority_distribution(np.array(p))
            assert q.min() >= -1e-12
            assert q.sum() == pytest.approx(1.0)

    def test_distribution_amplifies_majority(self):
        q = three_majority_distribution(np.array([0.6, 0.4]))
        assert q[0] > 0.6  # the defining property of 3-majority

    def test_consensus_fixed(self):
        q = three_majority_distribution(np.array([1.0, 0.0]))
        assert q[0] == pytest.approx(1.0)

    def test_round_update_conserves(self, rng):
        dynamics = GossipThreeMajority(k=3)
        new = dynamics.round_update(np.array([50, 30, 20]), rng)
        assert new.sum() == 100

    def test_reaches_consensus_fast(self):
        dynamics = GossipThreeMajority(k=3)
        engine = GossipEngine(
            dynamics,
            dynamics.encode_configuration(Configuration([500, 300, 200])),
            seed=5,
        )
        engine.run(500)
        assert engine.is_absorbed

    def test_encode_rejects_undecided(self):
        with pytest.raises(ProtocolError):
            GossipThreeMajority(k=2).encode_configuration(
                Configuration([4, 4], undecided=2)
            )


class TestGossipVoter:
    def test_round_is_plain_multinomial_resample(self, rng):
        dynamics = GossipVoter(k=2)
        new = dynamics.round_update(np.array([80, 20]), rng)
        assert new.sum() == 100

    def test_reaches_consensus(self):
        dynamics = GossipVoter(k=2)
        engine = GossipEngine(dynamics, np.array([30, 10]), seed=3)
        engine.run(100_000)
        assert engine.is_absorbed


class TestMonochromaticDistance:
    def test_range(self):
        assert monochromatic_distance(Configuration([10, 0, 0])) == pytest.approx(1.0)
        balanced = monochromatic_distance(Configuration([10, 10, 10]))
        assert balanced == pytest.approx(3.0)

    def test_between_one_and_k(self):
        for counts in ([5, 3, 2], [9, 1], [4, 4, 4, 4, 1]):
            md = monochromatic_distance(Configuration(counts))
            assert 1.0 <= md <= len(counts)

    def test_ignores_undecided(self):
        a = monochromatic_distance(Configuration([5, 3], undecided=0))
        b = monochromatic_distance(Configuration([5, 3], undecided=42))
        assert a == b

    def test_accepts_raw_vector(self):
        assert monochromatic_distance(np.array([4.0, 4.0])) == pytest.approx(2.0)

    def test_rejects_empty_support(self):
        with pytest.raises(ConfigurationError):
            monochromatic_distance(np.array([0.0, 0.0]))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            monochromatic_distance(np.array([3.0, -1.0]))

    def test_md_time_bound(self):
        config = Configuration([10, 10])
        assert md_time_bound(config, 100) == pytest.approx(2.0 * np.log(100))

    def test_md_time_bound_needs_population(self):
        with pytest.raises(ConfigurationError):
            md_time_bound(Configuration([5, 5]), 1)
