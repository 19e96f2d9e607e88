"""Unit tests for repro.workloads (initial configurations and sweeps)."""

import math

import pytest

from repro import ConfigurationError
from repro.errors import ExperimentError
from repro.workloads import (
    SweepPoint,
    ensure_unique_labels,
    k_sweep,
    paper_bias,
    paper_initial_configuration,
    plateau_configuration,
    plateau_gap_configuration,
    random_multinomial_configuration,
    two_block_configuration,
    zipf_configuration,
)


class TestPaperConfiguration:
    def test_paper_bias_value(self):
        n = 1_000_000
        assert paper_bias(n) == math.ceil(math.sqrt(n * math.log(n)))

    def test_default_bias_applied(self):
        config = paper_initial_configuration(10_000, 5)
        assert config.bias() >= paper_bias(10_000) - 1

    def test_explicit_bias(self):
        config = paper_initial_configuration(10_000, 5, bias=123)
        assert 122 <= config.bias() <= 123

    def test_population_exact(self):
        config = paper_initial_configuration(9_999, 7)
        assert config.n == 9_999
        assert config.undecided == 0


class TestPlateauConfigurations:
    def test_undecided_at_plateau(self):
        n, k = 10_000, 8
        config = plateau_configuration(n, k)
        assert config.undecided == round(n / 2 - n / (4 * k))
        assert config.n == n

    def test_default_target_is_three_halves(self):
        n, k = 10_000, 8
        config = plateau_configuration(n, k)
        assert config.x(1) == round(1.5 * n / k)

    def test_custom_target(self):
        config = plateau_configuration(10_000, 8, target_opinion_support=100)
        assert config.x(1) == 100

    def test_other_opinions_balanced(self):
        config = plateau_configuration(10_000, 8)
        others = config.opinion_counts[1:]
        assert others.max() - others.min() <= 1

    def test_target_must_fit(self):
        with pytest.raises(ConfigurationError):
            plateau_configuration(100, 4, target_opinion_support=1_000)

    def test_gap_configuration_exact_gap(self):
        n, k, gap = 10_000, 6, 500
        config = plateau_gap_configuration(n, k, gap)
        assert config.max_gap() == gap
        assert config.n == n
        # rounding leftovers are parked in the undecided pool: ≤ k−1 off.
        assert abs(config.undecided - round(n / 2 - n / (4 * k))) < k

    def test_gap_configuration_zero_gap(self):
        config = plateau_gap_configuration(10_000, 6, 0)
        assert config.max_gap() <= 1

    def test_gap_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            plateau_gap_configuration(1_000, 4, 900)

    def test_supports_below_lemma_ceiling(self):
        """The Lemma 3.3/3.4 experiments need all supports ≤ 3n/2k."""
        n, k = 50_000, 10
        config = plateau_gap_configuration(n, k, gap=int(2 * math.sqrt(n)))
        assert config.opinion_counts.max() <= 1.5 * n / k


class TestAlternativeFamilies:
    def test_multinomial_reproducible(self):
        a = random_multinomial_configuration(1_000, 5, seed=3)
        b = random_multinomial_configuration(1_000, 5, seed=3)
        assert a == b
        assert a.n == 1_000

    def test_zipf_shape(self):
        config = zipf_configuration(10_000, 5, exponent=1.0)
        counts = config.opinion_counts
        assert counts[0] > counts[1] > counts[-1]
        assert config.n == 10_000

    def test_zipf_zero_exponent_is_uniform(self):
        config = zipf_configuration(10_000, 5, exponent=0.0)
        counts = config.opinion_counts
        assert counts.max() - counts.min() <= 5  # rounding residue on top

    def test_zipf_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_configuration(100, 0)
        with pytest.raises(ConfigurationError):
            zipf_configuration(100, 3, exponent=-1)

    def test_two_block(self):
        config = two_block_configuration(10_000, 6, heavy_opinions=2)
        counts = config.opinion_counts
        assert counts[:2].sum() == 5_000
        assert config.n == 10_000

    def test_two_block_validation(self):
        with pytest.raises(ConfigurationError):
            two_block_configuration(100, 3, heavy_opinions=3)


class TestSweeps:
    def test_sweep_point_validation(self):
        with pytest.raises(ExperimentError):
            SweepPoint(n=1, k=2, bias=0)

    def test_k_sweep_defaults_bias(self):
        points = k_sweep(10_000, [4, 8])
        assert [p.k for p in points] == [4, 8]
        assert all(p.bias == paper_bias(10_000) for p in points)

    def test_k_sweep_empty_rejected(self):
        with pytest.raises(ExperimentError):
            k_sweep(10_000, [])


class TestCanonicalLabels:
    def test_extras_included_in_canonical_label(self):
        """Points differing only in extras must not collide."""
        plain = SweepPoint(n=1_000, k=4, bias=10)
        with_alpha = SweepPoint(n=1_000, k=4, bias=10, extras={"alpha": 500})
        assert plain.canonical_label != with_alpha.canonical_label
        assert "alpha=500" in with_alpha.canonical_label

    def test_display_label_not_part_of_canonical_label(self):
        a = SweepPoint(n=1_000, k=4, bias=10, label="pretty")
        b = SweepPoint(n=1_000, k=4, bias=10, label="prettier")
        assert a.canonical_label == b.canonical_label

    def test_extras_order_does_not_matter(self):
        a = SweepPoint(n=1_000, k=4, bias=10, extras={"a": 1, "b": 2})
        b = SweepPoint(n=1_000, k=4, bias=10, extras={"b": 2, "a": 1})
        assert a.canonical_label == b.canonical_label

    def test_ensure_unique_labels_passes_distinct_grid(self):
        points = k_sweep(10_000, [4, 8])
        assert ensure_unique_labels(points) is points

    def test_ensure_unique_labels_rejects_duplicates(self):
        duplicate = [
            SweepPoint(n=1_000, k=4, bias=10),
            SweepPoint(n=1_000, k=4, bias=10, label="other"),
        ]
        with pytest.raises(ExperimentError, match="duplicate"):
            ensure_unique_labels(duplicate)

    def test_k_sweep_guards_duplicate_ks(self):
        with pytest.raises(ExperimentError, match="duplicate"):
            k_sweep(10_000, [4, 4])
