"""Property-based tests for Configuration (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Configuration

counts_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12
).filter(lambda xs: sum(xs) > 0)

config_strategy = st.builds(
    Configuration,
    counts_strategy,
    undecided=st.integers(min_value=0, max_value=10_000),
)


class TestInvariants:
    @given(config_strategy)
    @settings(max_examples=200)
    def test_population_identity(self, config):
        assert config.n == int(config.opinion_counts.sum()) + config.undecided
        assert config.decided == config.n - config.undecided

    @given(config_strategy)
    @settings(max_examples=200)
    def test_state_counts_roundtrip(self, config):
        assert Configuration.from_state_counts(config.to_state_counts()) == config

    @given(config_strategy)
    def test_bias_non_negative_and_bounded(self, config):
        assert 0 <= config.bias() <= config.opinion_counts.max()

    @given(config_strategy)
    def test_max_gap_bounds(self, config):
        gap = config.max_gap()
        assert 0 <= gap <= config.opinion_counts.max()
        if config.k >= 2:
            assert gap >= config.bias()  # max−min ≥ top−second

    @given(config_strategy)
    def test_fractions_sum_to_decided_share(self, config):
        assert config.fractions().sum() * config.n == np.float64(
            config.decided
        ) or abs(config.fractions().sum() - config.decided / config.n) < 1e-9

    @given(config_strategy)
    def test_stability_matches_definition(self, config):
        by_definition = config.is_consensus() or config.is_all_undecided()
        assert config.is_stable() == by_definition

    @given(
        st.integers(min_value=2, max_value=2000),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=150)
    def test_equal_minorities_family(self, n, k, bias):
        if n < bias + k:
            return
        config = Configuration.equal_minorities_with_bias(n, k, bias)
        assert config.n == n
        assert config.k == k
        # majority never accidentally inflated past bias+1 over minorities
        minorities = config.opinion_counts[1:]
        assert config.x(1) - int(minorities.max()) >= bias - 1
        assert int(minorities.max() - minorities.min()) <= 1

    @given(
        st.integers(min_value=4, max_value=5000),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=100)
    def test_uniform_family(self, n, k):
        if n < k:
            return
        config = Configuration.uniform(n, k)
        assert config.n == n
        counts = config.opinion_counts
        assert counts.max() - counts.min() <= 1
