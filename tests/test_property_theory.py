"""Property-based tests on theory-module invariants (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Configuration
from repro.gossip import monochromatic_distance, three_majority_distribution
from repro.theory import (
    expected_undecided_change,
    gap_step_probabilities,
    opinion_step_probabilities,
)


def opinion_drift(config, opinion):
    p_up, p_down = opinion_step_probabilities(config, opinion)
    return p_up - p_down


def gap_drift(config, i, j):
    p_up, p_down = gap_step_probabilities(config, i, j)
    return p_up - p_down


config_strategy = st.builds(
    Configuration,
    st.lists(st.integers(1, 500), min_size=2, max_size=8),
    undecided=st.integers(0, 500),
)


class TestDriftProperties:
    @given(config_strategy)
    @settings(max_examples=200)
    def test_drift_conserves_mass(self, config):
        drifts = [opinion_drift(config, i) for i in range(1, config.k + 1)]
        assert abs(expected_undecided_change(config) + sum(drifts)) < 1e-12

    @given(config_strategy, st.data())
    def test_gap_drift_sign_tracks_gap_sign(self, config, data):
        i = data.draw(st.integers(1, config.k))
        j = data.draw(st.integers(1, config.k).filter(lambda v: v != i))
        drift = gap_drift(config, i, j)
        gap = config.gap(i, j)
        factor = 2 * config.undecided - config.n + config.x(i) + config.x(j)
        # drift = 2·gap·factor/(n(n−1)): sign must multiply out.
        assert math.copysign(1, drift) == math.copysign(1, gap * factor) or (
            drift == 0 or gap == 0 or factor == 0
        )

    @given(config_strategy, st.data())
    def test_gap_drift_antisymmetry(self, config, data):
        i = data.draw(st.integers(1, config.k))
        j = data.draw(st.integers(1, config.k).filter(lambda v: v != i))
        assert gap_drift(config, i, j) == -gap_drift(config, j, i)


class TestGossipProperties:
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=8).filter(sum))
    def test_three_majority_distribution_is_stochastic(self, counts):
        p = np.asarray(counts, dtype=float)
        p /= p.sum()
        q = three_majority_distribution(p)
        assert q.min() >= -1e-9
        assert q.sum() == np.float64(1.0) or abs(q.sum() - 1.0) < 1e-9

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=8).filter(sum))
    def test_three_majority_preserves_zeros(self, counts):
        p = np.asarray(counts, dtype=float)
        p /= p.sum()
        q = three_majority_distribution(p)
        assert np.all(q[p == 0] <= 1e-12)

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=10).filter(
            lambda xs: max(xs) > 0
        )
    )
    def test_monochromatic_distance_bounds(self, counts):
        md = monochromatic_distance(Configuration(counts))
        assert 1.0 - 1e-9 <= md <= len(counts) + 1e-9
