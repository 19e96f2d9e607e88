"""Unit tests for repro.theory.lemmas (the paper's explicit constants)."""

import math

import pytest

from repro import RegimeError
from repro.theory import (
    LEMMA31_SLACK_MULTIPLIER,
    OLIVETO_WITT_CONSTANT,
    WalkParameters,
    lemma31_ceiling,
    lemma31_drift_margin,
    lemma31_slack,
    lemma33_min_interactions,
    lemma33_thresholds,
    lemma33_walk_parameters,
    lemma34_alpha_valid,
    lemma34_min_interactions,
    lemma34_walk_parameters,
    u_tilde,
    undecided_plateau,
)
from repro.meanfield import undecided_fixed_point_fraction


class TestLemma31:
    def test_constants_match_paper(self):
        assert OLIVETO_WITT_CONSTANT == 132
        assert LEMMA31_SLACK_MULTIPLIER == 20 * 132 + 1

    def test_u_tilde_structure(self):
        n, k = 1e6, 100
        expected = n / 2 - n / (4 * k) + 10 * n / (k - 1) ** 2
        assert u_tilde(n, k) == pytest.approx(expected)

    def test_undecided_plateau_approximates_fixed_point(self):
        """n/2 − n/(4k) is the large-k expansion of n(k−1)/(2k−1)."""
        n = 1e6
        for k in (50, 100, 500):
            exact = n * undecided_fixed_point_fraction(k)
            assert abs(undecided_plateau(n, k) - exact) / n < 1.0 / k**2 * 2

    def test_u_tilde_approaches_half_for_large_k(self):
        assert u_tilde(1e6, 10_000) == pytest.approx(5e5, rel=1e-3)

    def test_ceiling_composition(self):
        n, k = 1e6, 50
        assert lemma31_ceiling(n, k) == pytest.approx(
            u_tilde(n, k) + lemma31_slack(n)
        )

    def test_slack_formula(self):
        n = 1e6
        assert lemma31_slack(n) == pytest.approx(
            2641 * math.sqrt(n * math.log(n))
        )

    def test_drift_margin(self):
        n = 1e6
        assert lemma31_drift_margin(n) == pytest.approx(math.sqrt(math.log(n) / n))

    def test_rejects_small_k(self):
        with pytest.raises(RegimeError):
            u_tilde(1e6, 1)


class TestWalkParameters:
    def test_min_steps(self):
        params = WalkParameters(p=0.5, q=0.01, target=100)
        assert params.min_steps == pytest.approx(100 / 0.02)

    def test_condition_threshold_formula(self):
        params = WalkParameters(p=0.5, q=0.1, target=1000)
        n = 1e4
        expected = 32 * ((0.5 - 0.01) / 0.2 + 2 / 3) * math.log(n)
        assert params.condition_threshold(n) == pytest.approx(expected)
        assert params.condition_holds(n) == (1000 >= expected)


class TestLemma33:
    def test_thresholds(self):
        low, high = lemma33_thresholds(1e6, 27)
        assert low == pytest.approx(1.5e6 / 27)
        assert high == pytest.approx(2e6 / 27)

    def test_walk_parameters_match_proof(self):
        n, k = 1e6, 27
        params = lemma33_walk_parameters(n, k)
        assert params.p == pytest.approx(5 / k)
        assert params.q == pytest.approx(6.25 / k**2)
        assert params.target == pytest.approx(n / (2 * k))

    def test_min_steps_equals_kn_over_25(self):
        """The lemma's punchline: T/(2q) = (n/2k)·k²/12.5 = kn/25."""
        n, k = 1e6, 27
        params = lemma33_walk_parameters(n, k)
        assert params.min_steps == pytest.approx(k * n / 25)
        assert lemma33_min_interactions(n, k) == pytest.approx(k * n / 25)

    def test_condition_holds_in_regime(self):
        """The proof checks T = n/2k = ω(k log² n); verify at the paper's
        Figure 1 scale."""
        assert lemma33_walk_parameters(1e6, 27).condition_holds(1e6)


class TestLemma34:
    def test_walk_parameters_match_proof(self):
        n, k, alpha = 1e6, 27, 50_000 / 27
        params = lemma34_walk_parameters(n, k, alpha)
        assert params.p == pytest.approx(9 / k)
        assert params.q == pytest.approx(6 * alpha / (n * k))
        assert params.target == pytest.approx(alpha / 2)

    def test_min_steps_independent_of_alpha(self):
        """T/(2q) = kn/24 for every admissible α — the lemma's key fact."""
        n, k = 1e6, 27
        for alpha in (5_000, 10_000, 20_000):
            params = lemma34_walk_parameters(n, k, alpha)
            assert params.min_steps == pytest.approx(k * n / 24)
        assert lemma34_min_interactions(n, k) == pytest.approx(k * n / 24)

    def test_alpha_window(self):
        n, k = 1e6, 27
        too_small = math.sqrt(n * math.log(n))  # α/2 not ω(√(n log n))
        too_large = n / k
        good = 4 * math.sqrt(n * math.log(n))
        assert not lemma34_alpha_valid(n, k, too_small)
        assert not lemma34_alpha_valid(n, k, too_large)
        assert lemma34_alpha_valid(n, k, good)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(RegimeError):
            lemma34_walk_parameters(1e6, 27, 0)
