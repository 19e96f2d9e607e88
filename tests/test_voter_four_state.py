"""Unit tests for the baseline protocols (voter model, four-state majority)."""

import numpy as np
import pytest

from repro import Configuration, ProtocolError, simulate
from repro.protocols import FourStateExactMajority, VoterModel
from repro.protocols.four_state import (
    STATE_A,
    STATE_B,
    STATE_WEAK_A,
    STATE_WEAK_B,
)


class TestVoterModel:
    def test_transition_initiator_wins(self):
        voter = VoterModel(k=3)
        assert voter.transition(2, 0) == (2, 2)
        assert voter.transition(0, 2) == (0, 0)

    def test_no_bookkeeping_states(self):
        voter = VoterModel(k=3)
        assert voter.num_states == 3
        assert voter.num_bookkeeping_states == 0
        assert voter.opinion_state(1) == 0

    def test_encode_rejects_undecided(self):
        voter = VoterModel(k=2)
        with pytest.raises(ProtocolError):
            voter.encode_configuration(Configuration([4, 4], undecided=2))

    def test_encode_rejects_wrong_k(self):
        with pytest.raises(ProtocolError):
            VoterModel(k=2).encode_configuration(Configuration([4, 4, 2]))

    def test_decode(self):
        voter = VoterModel(k=2)
        config = voter.decode_counts(np.array([3, 7]))
        assert config.x(2) == 7 and config.undecided == 0

    def test_consensus_is_absorbing(self):
        voter = VoterModel(k=2)
        assert voter.is_absorbing(np.array([10, 0]))
        assert not voter.is_absorbing(np.array([9, 1]))

    def test_winner_distribution_tracks_support(self):
        """The voter winner is a martingale: P(opinion 1 wins) = x₁/n.
        With 80% support, opinion 1 should win most runs."""
        voter = VoterModel(k=2)
        wins = 0
        runs = 40
        for seed in range(runs):
            result = simulate(
                voter,
                Configuration([40, 10]),
                seed=seed,
                max_parallel_time=100_000,
            )
            assert result.stabilized
            wins += result.winner == 1
        assert wins / runs > 0.6  # expected 0.8, generous slack


class TestFourStateTransitions:
    @pytest.fixture
    def protocol(self):
        return FourStateExactMajority()

    def test_strong_cancellation(self, protocol):
        assert protocol.transition(STATE_A, STATE_B) == (STATE_WEAK_A, STATE_WEAK_B)
        assert protocol.transition(STATE_B, STATE_A) == (STATE_WEAK_B, STATE_WEAK_A)

    def test_strong_converts_opposing_weak(self, protocol):
        assert protocol.transition(STATE_A, STATE_WEAK_B) == (STATE_A, STATE_WEAK_A)
        assert protocol.transition(STATE_WEAK_B, STATE_A) == (STATE_WEAK_A, STATE_A)
        assert protocol.transition(STATE_B, STATE_WEAK_A) == (STATE_B, STATE_WEAK_B)

    def test_null_meetings(self, protocol):
        for pair in [
            (STATE_A, STATE_A),
            (STATE_A, STATE_WEAK_A),
            (STATE_WEAK_A, STATE_WEAK_B),
            (STATE_WEAK_B, STATE_WEAK_B),
        ]:
            assert protocol.transition(*pair) == pair

    def test_outputs(self, protocol):
        assert protocol.output(STATE_A) == 1
        assert protocol.output(STATE_WEAK_A) == 1
        assert protocol.output(STATE_B) == 2
        assert protocol.output(STATE_WEAK_B) == 2

    def test_strong_difference_invariant_under_dynamics(self, protocol):
        """#A − #B never changes — the protocol's correctness invariant."""
        from repro import CountsEngine

        engine = CountsEngine(protocol, np.array([30, 20, 0, 0]), seed=3)
        initial = engine.counts[STATE_A] - engine.counts[STATE_B]
        for _ in range(20):
            engine.step(50)
            assert engine.counts[STATE_A] - engine.counts[STATE_B] == initial


class TestFourStateEndToEnd:
    def test_majority_always_wins(self):
        """Exact majority: correct output whenever #A ≠ #B, even bias 1."""
        protocol = FourStateExactMajority()
        for seed in range(10):
            result = simulate(
                protocol,
                Configuration([26, 25]),
                seed=seed,
                max_parallel_time=100_000,
            )
            assert result.stabilized
            outputs = {
                protocol.output(s)
                for s in np.flatnonzero(result.final_counts)
            }
            assert outputs == {1}

    def test_tie_leaves_mixed_weak_state(self):
        """On an exact tie all strongs annihilate; the absorbed state has
        mixed outputs — the documented 4-state failure mode."""
        protocol = FourStateExactMajority()
        result = simulate(
            protocol,
            Configuration([20, 20]),
            seed=0,
            max_parallel_time=100_000,
        )
        assert result.stabilized
        counts = result.final_counts
        assert counts[STATE_A] == 0 and counts[STATE_B] == 0
        assert counts[STATE_WEAK_A] > 0 and counts[STATE_WEAK_B] > 0

    def test_encode_decode(self):
        protocol = FourStateExactMajority()
        counts = protocol.encode_configuration(Configuration([7, 3]))
        assert counts.tolist() == [7, 3, 0, 0]
        decoded = protocol.decode_counts(np.array([2, 1, 5, 2]))
        assert decoded.x(1) == 7 and decoded.x(2) == 3

    def test_encode_rejects_wrong_shape(self):
        protocol = FourStateExactMajority()
        with pytest.raises(ProtocolError):
            protocol.encode_configuration(Configuration([1, 2, 3]))
        with pytest.raises(ProtocolError):
            protocol.encode_configuration(Configuration([1, 2], undecided=1))
