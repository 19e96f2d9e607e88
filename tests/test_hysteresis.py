"""Unit tests for the HysteresisUSD extension protocol."""

import numpy as np
import pytest

from repro import Configuration, ProtocolError, simulate
from repro.protocols import HysteresisUSD, UndecidedStateDynamics
from repro.protocols.hysteresis import UNDECIDED_STATE
from repro.specs.hashing import canonicalize


class TestPacking:
    def test_state_layout(self):
        protocol = HysteresisUSD(k=3, r=2)
        assert protocol.num_states == 7
        assert protocol.pack(1, 1) == 1
        assert protocol.pack(1, 2) == 2
        assert protocol.pack(3, 2) == 6

    def test_pack_unpack_roundtrip(self):
        protocol = HysteresisUSD(k=4, r=3)
        for opinion in range(1, 5):
            for level in range(1, 4):
                state = protocol.pack(opinion, level)
                assert protocol.unpack(state) == (opinion, level)
        assert protocol.unpack(UNDECIDED_STATE) is None

    def test_pack_validation(self):
        protocol = HysteresisUSD(k=2, r=2)
        with pytest.raises(ProtocolError):
            protocol.pack(3, 1)
        with pytest.raises(ProtocolError):
            protocol.pack(1, 3)

    def test_constructor_validation(self):
        with pytest.raises(ProtocolError):
            HysteresisUSD(k=0, r=1)
        with pytest.raises(ProtocolError):
            HysteresisUSD(k=2, r=0)

    def test_output_collapses_levels(self):
        protocol = HysteresisUSD(k=2, r=3)
        assert protocol.output(UNDECIDED_STATE) == 0
        for level in range(1, 4):
            assert protocol.output(protocol.pack(2, level)) == 2

    def test_state_names(self):
        protocol = HysteresisUSD(k=2, r=2)
        names = protocol.state_names()
        assert names[0] == "⊥"
        assert "opinion1@1" in names and "opinion2@2" in names


class TestTransitions:
    def test_r1_is_exactly_usd(self):
        hysteresis = HysteresisUSD(k=4, r=1)
        usd = UndecidedStateDynamics(k=4)
        for a in range(5):
            for b in range(5):
                assert hysteresis.transition(a, b) == usd.transition(a, b)

    def test_clash_demotes_one_level(self):
        protocol = HysteresisUSD(k=2, r=3)
        a = protocol.pack(1, 3)
        b = protocol.pack(2, 2)
        new_a, new_b = protocol.transition(a, b)
        assert protocol.unpack(new_a) == (1, 2)
        assert protocol.unpack(new_b) == (2, 1)

    def test_clash_at_level_one_undecides(self):
        protocol = HysteresisUSD(k=2, r=3)
        a = protocol.pack(1, 1)
        b = protocol.pack(2, 3)
        new_a, new_b = protocol.transition(a, b)
        assert new_a == UNDECIDED_STATE
        assert protocol.unpack(new_b) == (2, 2)

    def test_same_opinion_restores_confidence(self):
        protocol = HysteresisUSD(k=2, r=3)
        a = protocol.pack(1, 1)
        b = protocol.pack(1, 2)
        assert protocol.transition(a, b) == (
            protocol.pack(1, 3),
            protocol.pack(1, 3),
        )

    def test_recruitment_at_full_confidence(self):
        protocol = HysteresisUSD(k=2, r=3)
        weak = protocol.pack(2, 1)
        new_u, new_b = protocol.transition(UNDECIDED_STATE, weak)
        assert protocol.unpack(new_u) == (2, 3)
        assert new_b == weak

    def test_two_undecided_null(self):
        protocol = HysteresisUSD(k=2, r=2)
        assert protocol.transition(0, 0) == (0, 0)

    def test_symmetric(self):
        assert HysteresisUSD(k=3, r=2).is_symmetric()

    def test_validates(self):
        HysteresisUSD(k=3, r=4).table  # compiling performs the range checks


class TestEncoding:
    def test_encode_full_confidence(self):
        protocol = HysteresisUSD(k=2, r=2)
        counts = protocol.encode_configuration(Configuration([7, 3], undecided=5))
        assert counts[UNDECIDED_STATE] == 5
        assert counts[protocol.pack(1, 2)] == 7
        assert counts[protocol.pack(1, 1)] == 0
        assert counts[protocol.pack(2, 2)] == 3

    def test_decode_collapses(self):
        protocol = HysteresisUSD(k=2, r=2)
        raw = np.array([4, 1, 2, 3, 0])
        config = protocol.decode_counts(raw)
        assert config.undecided == 4
        assert config.x(1) == 3
        assert config.x(2) == 3

    def test_encode_k_mismatch(self):
        with pytest.raises(ProtocolError):
            HysteresisUSD(k=2, r=2).encode_configuration(Configuration([1, 2, 3]))

    def test_decode_shape_check(self):
        with pytest.raises(ProtocolError):
            HysteresisUSD(k=2, r=2).decode_counts(np.array([1, 2]))


class TestDynamics:
    def test_population_conserved_end_to_end(self):
        protocol = HysteresisUSD(k=3, r=2)
        config = Configuration.equal_minorities_with_bias(600, 3, 80)
        result = simulate(
            protocol, config, engine="counts", seed=4, max_parallel_time=5_000
        )
        assert result.final_counts.sum() == 600
        assert result.stabilized

    def test_consensus_is_absorbing_at_full_confidence(self):
        protocol = HysteresisUSD(k=2, r=2)
        counts = np.zeros(5, dtype=np.int64)
        counts[protocol.pack(1, 2)] = 10
        assert protocol.is_absorbing(counts)

    def test_mixed_confidence_consensus_not_absorbing(self):
        """Same-opinion meetings still promote weak agents."""
        protocol = HysteresisUSD(k=2, r=2)
        counts = np.zeros(5, dtype=np.int64)
        counts[protocol.pack(1, 2)] = 5
        counts[protocol.pack(1, 1)] = 5
        assert not protocol.is_absorbing(counts)

    def test_higher_r_slower_on_average(self):
        """More hysteresis ⇒ slower stabilization (fixed seeds)."""
        config = Configuration.equal_minorities_with_bias(1_000, 3, 100)
        medians = []
        for r in (1, 3):
            times = []
            for seed in range(6):
                result = simulate(
                    HysteresisUSD(k=3, r=r),
                    config,
                    engine="counts",
                    seed=seed,
                    max_parallel_time=10_000,
                )
                assert result.stabilized
                times.append(result.stabilization_parallel_time)
            medians.append(np.median(times))
        assert medians[1] > medians[0]


class TestMemoryExperiment:
    def test_small_run(self):
        from repro.experiments import MemoryUSDExperiment

        result = MemoryUSDExperiment(
            n=1_500, k=3, r_values=(1, 2), num_seeds=3, engine="counts",
            max_parallel_time=2_000.0,
        ).run()
        assert [row["r"] for row in result.rows] == [1, 2]
        assert result.claims
        for claim in result.claims:
            assert canonicalize(claim.as_dict()) == claim.as_dict()
        assert result.rows[0]["states"] == 4
        assert result.rows[1]["states"] == 7
        for row in result.rows:
            assert 0.0 <= row["majority_win_fraction"] <= 1.0
