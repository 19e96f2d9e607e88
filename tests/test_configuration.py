"""Unit tests for repro.core.configuration."""

import numpy as np
import pytest

from repro import Configuration, ConfigurationError


class TestConstruction:
    def test_basic_counts(self):
        config = Configuration([10, 20, 30], undecided=40)
        assert config.n == 100
        assert config.k == 3
        assert config.undecided == 40
        assert config.decided == 60

    def test_defaults_to_no_undecided(self):
        config = Configuration([5, 5])
        assert config.undecided == 0

    def test_accepts_numpy_counts(self):
        config = Configuration(np.array([3, 4]), undecided=1)
        assert config.n == 8

    def test_accepts_integral_floats(self):
        config = Configuration([2.0, 3.0])
        assert config.x(1) == 2

    def test_rejects_fractional_counts(self):
        with pytest.raises(ConfigurationError):
            Configuration([2.5, 3])

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            Configuration([-1, 3])

    def test_rejects_negative_undecided(self):
        with pytest.raises(ConfigurationError):
            Configuration([1, 1], undecided=-2)

    def test_rejects_empty_opinions(self):
        with pytest.raises(ConfigurationError):
            Configuration([])

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            Configuration([0, 0], undecided=0)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ConfigurationError):
            Configuration([[1, 2], [3, 4]])

    def test_counts_are_immutable(self):
        config = Configuration([1, 2])
        with pytest.raises(ValueError):
            config.opinion_counts[0] = 99


class TestNamedConstructors:
    def test_from_state_counts_roundtrip(self):
        config = Configuration([7, 3], undecided=5)
        rebuilt = Configuration.from_state_counts(config.to_state_counts())
        assert rebuilt == config

    def test_from_state_counts_needs_two_entries(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_state_counts([5])

    def test_uniform_is_sorted_and_sums(self):
        config = Configuration.uniform(n=103, k=5)
        counts = config.opinion_counts
        assert counts.sum() == 103
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts.max() - counts.min() <= 1

    def test_uniform_rejects_too_small_population(self):
        with pytest.raises(ConfigurationError):
            Configuration.uniform(n=3, k=5)

    def test_uniform_rejects_nonpositive_k(self):
        with pytest.raises(ConfigurationError):
            Configuration.uniform(n=10, k=0)

    def test_equal_minorities_with_bias(self):
        config = Configuration.equal_minorities_with_bias(n=1000, k=5, bias=100)
        assert config.n == 1000
        assert config.bias() >= 99  # leftovers may shave one off
        minorities = config.opinion_counts[1:]
        assert minorities.max() - minorities.min() <= 1

    def test_equal_minorities_majority_is_opinion_one(self):
        config = Configuration.equal_minorities_with_bias(n=997, k=4, bias=50)
        assert config.plurality_winner() == 1
        assert config.n == 997

    def test_equal_minorities_zero_bias(self):
        config = Configuration.equal_minorities_with_bias(n=100, k=4, bias=0)
        assert config.bias() <= 1

    def test_equal_minorities_needs_room(self):
        with pytest.raises(ConfigurationError):
            Configuration.equal_minorities_with_bias(n=10, k=4, bias=20)

    def test_equal_minorities_needs_two_opinions(self):
        with pytest.raises(ConfigurationError):
            Configuration.equal_minorities_with_bias(n=10, k=1, bias=2)


class TestAccessors:
    def test_x_is_one_based(self, small_config):
        assert small_config.x(1) == 50
        assert small_config.x(3) == 20

    def test_x_rejects_out_of_range(self, small_config):
        with pytest.raises(ConfigurationError):
            small_config.x(0)
        with pytest.raises(ConfigurationError):
            small_config.x(4)

    def test_state_counts_layout(self):
        config = Configuration([1, 2, 3], undecided=4)
        assert list(config.to_state_counts()) == [4, 1, 2, 3]

    def test_fractions(self, small_config):
        assert small_config.fractions().sum() == pytest.approx(1.0)

    def test_sum_of_squares(self):
        config = Configuration([3, 4])
        assert config.sum_of_squares() == 25

    def test_len_and_iter(self, small_config):
        assert len(small_config) == 3
        assert list(small_config) == [50, 30, 20]

    def test_repr_small_and_large(self):
        assert "x=[1, 2]" in repr(Configuration([1, 2]))
        large = Configuration.uniform(100, 20)
        assert "20 opinions" in repr(large)


class TestDerivedQuantities:
    def test_bias_is_top_minus_second(self):
        config = Configuration([10, 40, 25])
        assert config.bias() == 15

    def test_bias_single_opinion(self):
        assert Configuration([7]).bias() == 7

    def test_gap(self):
        config = Configuration([10, 40, 25])
        assert config.gap(2, 3) == 15
        assert config.gap(3, 2) == -15

    def test_max_gap(self, small_config):
        assert small_config.max_gap() == 30

    def test_plurality_winner(self, small_config):
        assert small_config.plurality_winner() == 1

    def test_plurality_winner_tie_is_none(self):
        assert Configuration([5, 5, 1]).plurality_winner() is None

    def test_plurality_winner_all_undecided_is_none(self):
        assert Configuration([0, 0], undecided=5).plurality_winner() is None

    def test_stability_predicates(self):
        assert Configuration([0, 10, 0]).is_stable()
        assert Configuration([0, 0, 0], undecided=10).is_stable()
        assert not Configuration([5, 5]).is_stable()
        assert not Configuration([10, 0], undecided=5).is_stable()

    def test_consensus_requires_no_undecided(self):
        assert not Configuration([10, 0], undecided=1).is_consensus()


class TestEquality:
    def test_equality_and_hash(self):
        a = Configuration([1, 2], undecided=3)
        b = Configuration([1, 2], undecided=3)
        c = Configuration([2, 1], undecided=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_not_equal_to_other_types(self, small_config):
        assert small_config != [50, 30, 20]
