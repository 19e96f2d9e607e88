"""The opinion count layout of USD, the voter model and the gossip dynamics.

Pinned by value, whichever class spells the layout out: ``[⊥, opinion
1..k]`` for ``usd`` and ``gossip-usd``, ``[opinion 1..k]`` for
``voter``, ``gossip-voter`` and ``gossip-3-majority``.
"""

import numpy as np
import pytest

from repro import Configuration, ProtocolError
from repro.core.protocol import default_undecided_index
from repro.specs import ProtocolSpec

#: registry name -> (the layout has ⊥ first, the dynamics is gossip)
LAYOUTS = {
    "usd": (True, False),
    "voter": (False, False),
    "gossip-usd": (True, True),
    "gossip-voter": (False, True),
    "gossip-3-majority": (False, True),
}

KS = [1, 2, 3, 4]


def _equal_minorities(k, undecided=0):
    return Configuration([15] + [10] * (k - 1), undecided=undecided)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_state_layout(name, k):
    has_undecided, gossip = LAYOUTS[name]
    protocol = ProtocolSpec(name=name, k=k).build()
    opinions = tuple(f"opinion{i}" for i in range(1, k + 1))
    assert protocol.num_states == k + has_undecided
    assert protocol.state_names() == ("⊥",) * has_undecided + opinions
    assert default_undecided_index(protocol) == (0 if has_undecided else None)

    undecided = 3 if has_undecided else 0
    config = _equal_minorities(k, undecided)
    counts = protocol.encode_configuration(config)
    assert counts.dtype == np.int64
    assert counts.tolist() == [undecided] * has_undecided + [15] + [10] * (k - 1)
    if not gossip:
        assert protocol.decode_counts(counts) == config


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_encoding_rejects_what_the_layout_cannot_hold(name, k):
    has_undecided, _ = LAYOUTS[name]
    protocol = ProtocolSpec(name=name, k=k).build()
    with pytest.raises(ProtocolError):
        protocol.encode_configuration(_equal_minorities(k + 1))
    with_undecided = _equal_minorities(k, undecided=2)
    if has_undecided:
        assert protocol.encode_configuration(with_undecided)[0] == 2
    else:
        with pytest.raises(ProtocolError):
            protocol.encode_configuration(with_undecided)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", [n for n, (_, gossip) in LAYOUTS.items() if gossip])
def test_gossip_absorbs_when_one_state_holds_every_node(name, k):
    has_undecided, _ = LAYOUTS[name]
    dynamics = ProtocolSpec(name=name, k=k).build()
    n = 40

    def counts(at):
        vec = np.zeros(dynamics.num_states, dtype=np.int64)
        for state, count in at.items():
            vec[state] = count
        return vec

    first = int(has_undecided)  # index of opinion 1
    for opinion in range(1, k + 1):
        assert dynamics.is_absorbing(counts({first + opinion - 1: n}))
    if has_undecided:
        assert dynamics.is_absorbing(counts({0: n}))
        assert not dynamics.is_absorbing(counts({0: n - 5, 1: 5}))
    if k >= 2:
        assert not dynamics.is_absorbing(counts({first: n - 5, first + 1: 5}))
