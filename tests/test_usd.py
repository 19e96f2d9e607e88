"""Unit tests for the Undecided State Dynamics protocol."""

import numpy as np
import pytest

from repro import Configuration, ProtocolError, UndecidedStateDynamics
from repro.protocols.usd import UNDECIDED_STATE


class TestTransitionRule:
    """The exact §1.1 definition, case by case."""

    @pytest.fixture
    def usd(self):
        return UndecidedStateDynamics(k=4)

    def test_different_opinions_cancel(self, usd):
        assert usd.transition(1, 2) == (UNDECIDED_STATE, UNDECIDED_STATE)
        assert usd.transition(4, 3) == (UNDECIDED_STATE, UNDECIDED_STATE)

    def test_recruitment_both_orders(self, usd):
        assert usd.transition(2, UNDECIDED_STATE) == (2, 2)
        assert usd.transition(UNDECIDED_STATE, 2) == (2, 2)

    def test_same_opinion_is_null(self, usd):
        assert usd.transition(3, 3) == (3, 3)

    def test_two_undecided_is_null(self, usd):
        assert usd.transition(UNDECIDED_STATE, UNDECIDED_STATE) == (
            UNDECIDED_STATE,
            UNDECIDED_STATE,
        )

    def test_symmetric(self, usd):
        assert usd.is_symmetric()

    def test_alphabet_size(self, usd):
        assert usd.num_states == 5
        assert usd.num_bookkeeping_states == 1

    def test_state_names(self, usd):
        names = usd.state_names()
        assert names[0] == "⊥"
        assert names[1] == "opinion1"
        assert len(names) == 5

    def test_output_is_identity(self, usd):
        assert [usd.output(s) for s in range(5)] == list(range(5))


class TestOpinionBridge:
    def test_encode_roundtrip(self):
        usd = UndecidedStateDynamics(k=3)
        config = Configuration([5, 3, 2], undecided=7)
        counts = usd.encode_configuration(config)
        assert counts.tolist() == [7, 5, 3, 2]
        assert usd.decode_counts(counts) == config

    def test_encode_rejects_wrong_k(self):
        usd = UndecidedStateDynamics(k=3)
        with pytest.raises(ProtocolError):
            usd.encode_configuration(Configuration([5, 5]))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ProtocolError):
            UndecidedStateDynamics(k=0)


class TestAbsorbingStates:
    @pytest.fixture
    def usd(self):
        return UndecidedStateDynamics(k=3)

    def test_consensus_absorbs(self, usd):
        assert usd.is_absorbing(np.array([0, 10, 0, 0]))

    def test_all_undecided_absorbs(self, usd):
        assert usd.is_absorbing(np.array([10, 0, 0, 0]))

    def test_opinion_plus_undecided_is_live(self, usd):
        assert not usd.is_absorbing(np.array([3, 7, 0, 0]))

    def test_two_opinions_live(self, usd):
        assert not usd.is_absorbing(np.array([0, 5, 5, 0]))
