"""Unit tests for repro.core.transitions.TransitionTable."""

import numpy as np
import pytest

from repro import ProtocolError, TransitionTable
from repro.protocols import VoterModel


@pytest.fixture
def usd_table(usd3):
    return usd3.table


class TestCompilation:
    def test_usd_table_shape(self, usd_table, usd3):
        size = usd3.num_states
        assert usd_table.num_states == size
        assert usd_table.out_initiator.shape == (size, size)
        assert usd_table.out_responder.shape == (size, size)

    def test_apply_matches_protocol(self, usd_table, usd3):
        for a in range(usd3.num_states):
            for b in range(usd3.num_states):
                applied = (
                    int(usd_table.out_initiator[a, b]),
                    int(usd_table.out_responder[a, b]),
                )
                assert applied == usd3.transition(a, b)

    def test_outputs_are_readonly(self, usd_table):
        with pytest.raises(ValueError):
            usd_table.out_initiator[0, 0] = 1

    def test_rejects_out_of_range_outputs(self):
        out = np.zeros((2, 2), dtype=np.int64)
        bad = out.copy()
        bad[0, 0] = 7
        with pytest.raises(ProtocolError):
            TransitionTable(2, bad, out)

    def test_rejects_wrong_shapes(self):
        out = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ProtocolError):
            TransitionTable(2, out, out)

    def test_rejects_zero_states(self):
        out = np.zeros((0, 0), dtype=np.int64)
        with pytest.raises(ProtocolError):
            TransitionTable(0, out, out)


class TestNullMask:
    def test_usd_null_pairs(self, usd_table):
        # (⊥, ⊥) and same-opinion meetings are null.
        assert usd_table.null_mask[0, 0]
        assert usd_table.null_mask[1, 1]
        # opposite opinions and recruitment are effective.
        assert not usd_table.null_mask[1, 2]
        assert not usd_table.null_mask[0, 1]
        assert not usd_table.null_mask[1, 0]

    def test_effective_pairs_usd_count(self, usd3):
        # k(k−1) cancellations + 2k recruitments.
        k = usd3.k
        assert len(usd3.table.effective_pairs) == k * (k - 1) + 2 * k

    def test_voter_effective_pairs(self):
        voter = VoterModel(k=3)
        # every ordered pair with a ≠ b changes the responder.
        assert len(voter.table.effective_pairs) == 3 * 2


class TestDeltaMatrix:
    def test_delta_conserves_population(self, usd_table):
        # every row must sum to zero: two agents in, two agents out.
        assert np.all(usd_table.delta_matrix.sum(axis=1) == 0)

    def test_cancellation_delta(self, usd3):
        delta = usd3.table.delta_of(1, 2)
        # opinions 1 and 2 each lose one agent; ⊥ gains two.
        assert delta[0] == 2
        assert delta[1] == -1
        assert delta[2] == -1

    def test_recruitment_delta(self, usd3):
        delta = usd3.table.delta_of(1, 0)
        assert delta[0] == -1
        assert delta[1] == 1

    def test_null_delta_is_zero(self, usd3):
        assert np.all(usd3.table.delta_of(1, 1) == 0)


class TestSymmetry:
    def test_usd_is_symmetric(self, usd3):
        assert usd3.table.is_symmetric

    def test_voter_is_not_symmetric(self):
        # (a, b) → (a, a) but (b, a) → (b, b): one-way protocols are
        # not symmetric.
        assert not VoterModel(k=2).table.is_symmetric

    def test_repr_mentions_effective_pairs(self, usd3):
        assert "effective_pairs" in repr(usd3.table)
