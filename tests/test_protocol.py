"""Unit tests for repro.core.protocol (the abstract interfaces)."""

import numpy as np
import pytest

from repro import Configuration, PopulationProtocol, ProtocolError
from repro.core.protocol import OpinionProtocol


class SwapProtocol(PopulationProtocol):
    """Toy protocol: the two agents swap states (never null off-diagonal)."""

    name = "swap"

    @property
    def num_states(self):
        return 3

    def transition(self, initiator, responder):
        return (responder, initiator)


class BrokenProtocol(PopulationProtocol):
    """Transition leaves the alphabet — must be rejected at compile time."""

    name = "broken"

    @property
    def num_states(self):
        return 2

    def transition(self, initiator, responder):
        return (initiator + 5, responder)


class NonTupleProtocol(PopulationProtocol):
    name = "non-tuple"

    @property
    def num_states(self):
        return 2

    def transition(self, initiator, responder):
        return [initiator, responder]  # list, not tuple


class TestPopulationProtocol:
    def test_default_state_names(self):
        assert SwapProtocol().state_names() == ("s0", "s1", "s2")

    def test_default_output_is_identity(self):
        protocol = SwapProtocol()
        assert [protocol.output(s) for s in range(3)] == [0, 1, 2]

    def test_table_is_cached(self):
        protocol = SwapProtocol()
        assert protocol.table is protocol.table

    def test_is_symmetric_swap(self):
        # swap: f(a,b) = (b,a); symmetric means f(b,a) = (a,b) — true.
        assert SwapProtocol().is_symmetric()

    def test_is_null_detects_diagonal(self):
        # a swap changes no count but is not null: the agents trade states
        null_mask = SwapProtocol().table.null_mask
        assert null_mask[1, 1]
        assert not null_mask[0, 1]

    def test_validate_rejects_broken_protocol(self):
        with pytest.raises(ProtocolError):
            BrokenProtocol().table

    def test_non_tuple_transition_rejected(self):
        with pytest.raises(ProtocolError):
            NonTupleProtocol().table

    def test_is_absorbing_shape_check(self):
        with pytest.raises(ProtocolError):
            SwapProtocol().is_absorbing(np.array([1, 2]))

    def test_is_absorbing_single_state(self):
        protocol = SwapProtocol()
        assert protocol.is_absorbing(np.array([5, 0, 0]))

    def test_is_absorbing_mixed_swap(self):
        # Swap interactions change nothing at count level... but they do
        # change agent states, so the pair is non-null and the check says
        # not absorbing (counts could never change, but the protocol-level
        # definition is about state changes).
        protocol = SwapProtocol()
        assert not protocol.is_absorbing(np.array([1, 1, 0]))

    def test_encode_decode_default_raise(self):
        protocol = SwapProtocol()
        with pytest.raises(ProtocolError):
            protocol.encode_configuration(Configuration([1, 1, 1]))
        with pytest.raises(ProtocolError):
            protocol.decode_counts(np.array([1, 1, 1]))

    def test_repr(self):
        assert "states=3" in repr(SwapProtocol())


class TinyOpinion(OpinionProtocol):
    """Minimal opinion protocol with one bookkeeping state."""

    name = "tiny"

    @property
    def num_states(self):
        return self.k + 1

    def transition(self, initiator, responder):
        return (initiator, responder)


class TestOpinionProtocol:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ProtocolError):
            TinyOpinion(k=0)

    def test_opinion_state_mapping(self):
        protocol = TinyOpinion(k=3)
        assert protocol.num_bookkeeping_states == 1
        assert protocol.opinion_state(1) == 1
        assert protocol.opinion_state(3) == 3

    def test_opinion_state_range(self):
        protocol = TinyOpinion(k=3)
        with pytest.raises(ProtocolError):
            protocol.opinion_state(0)
        with pytest.raises(ProtocolError):
            protocol.opinion_state(4)

    def test_opinion_counts_of(self):
        protocol = TinyOpinion(k=3)
        counts = np.array([9, 1, 2, 3])
        assert list(protocol.opinion_counts_of(counts)) == [1, 2, 3]
