"""Unit tests for repro.core.stopping."""

import numpy as np

from repro import CountsEngine
from repro.core import stopping
from repro.protocols import UndecidedStateDynamics


def engine_with(counts, k=3, seed=0):
    protocol = UndecidedStateDynamics(k=k)
    return protocol, CountsEngine(protocol, np.array(counts), seed=seed)


class TestThresholdPredicates:
    def test_opinion_reached(self):
        protocol, engine = engine_with([0, 6, 3, 1])
        assert stopping.opinion_reached(protocol, 1, 6)(engine)
        assert not stopping.opinion_reached(protocol, 1, 7)(engine)

    def test_gap_reached(self):
        protocol, engine = engine_with([0, 6, 3, 1])
        assert stopping.gap_reached(protocol, 5)(engine)
        assert not stopping.gap_reached(protocol, 6)(engine)

    def test_gap_ignores_undecided(self):
        protocol, engine = engine_with([9, 6, 6, 6])
        assert not stopping.gap_reached(protocol, 1)(engine)
