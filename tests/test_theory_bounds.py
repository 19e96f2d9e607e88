"""Unit tests for repro.theory.bounds."""

import math

import pytest

from repro import RegimeError
from repro.theory import (
    amir_upper_bound_parallel_time,
    f_n,
    lower_bound_interactions,
    lower_bound_parallel_time,
    max_initial_bias,
    paper_k_schedule,
    regime_ratio,
    theorem35_epoch_interactions,
    theorem35_num_epochs,
    trivial_lower_bound_parallel_time,
)


class TestFAndBias:
    def test_f_n_definition(self):
        n, k = 1e6, 27
        expected = (math.sqrt(n) / (k * math.log(n))) ** 0.25
        assert f_n(n, k) == pytest.approx(expected)

    def test_bias_cap_exceeds_sqrt_n_log_n_in_regime(self):
        """The cap is f(n)·√(n log n) with f > 1 inside the regime, so
        the lower bound covers biases ω(√(n log n)) — the paper's
        'interestingly' remark."""
        n, k = 1e8, 50
        assert f_n(n, k) > 1.0
        assert max_initial_bias(n, k) > math.sqrt(n * math.log(n))

    def test_f_increases_with_n_at_fixed_k(self):
        assert f_n(1e8, 20) > f_n(1e6, 20)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(RegimeError):
            f_n(2, 5)
        with pytest.raises(RegimeError):
            f_n(100, 1)


class TestRegime:
    def test_ratio_definition(self):
        n, k = 1e6, 27
        assert regime_ratio(n, k) == pytest.approx(k * math.log(n) / math.sqrt(n))


class TestTheorem35:
    def test_epoch_is_kn_over_25(self):
        assert theorem35_epoch_interactions(1000, 10) == 400.0

    def test_num_epochs_shrinks_with_bias(self):
        n, k = 1e8, 20
        small = theorem35_num_epochs(n, k, bias=1000)
        large = theorem35_num_epochs(n, k, bias=100_000)
        assert small > large

    def test_num_epochs_never_negative(self):
        assert theorem35_num_epochs(1e4, 30, bias=1e4) == 0.0

    def test_num_epochs_default_bias_is_cap(self):
        n, k = 1e8, 20
        assert theorem35_num_epochs(n, k) == pytest.approx(
            theorem35_num_epochs(n, k, bias=max_initial_bias(n, k))
        )

    def test_num_epochs_rejects_bad_bias(self):
        with pytest.raises(RegimeError):
            theorem35_num_epochs(1e6, 10, bias=0)

    def test_lower_bound_composition(self):
        n, k = 1e8, 20
        assert lower_bound_interactions(n, k) == pytest.approx(
            theorem35_epoch_interactions(n, k) * theorem35_num_epochs(n, k)
        )
        assert lower_bound_parallel_time(n, k) == pytest.approx(
            lower_bound_interactions(n, k) / n
        )

    def test_lower_bound_grows_with_n(self):
        """At fixed k the log factor grows with n."""
        k = 20
        assert lower_bound_parallel_time(1e10, k) > lower_bound_parallel_time(1e8, k)

    def test_lower_below_upper_in_regime(self):
        """The sandwich must be consistent: LB ≤ Amir UB (with constant 1)."""
        for n, k in ((1e6, 10), (1e8, 30), (1e10, 100)):
            assert lower_bound_parallel_time(n, k) <= amir_upper_bound_parallel_time(
                n, k
            )


class TestContextBounds:
    def test_amir_bound(self):
        assert amir_upper_bound_parallel_time(1e6, 27) == pytest.approx(
            27 * math.log(1e6)
        )

    def test_trivial_bound(self):
        assert trivial_lower_bound_parallel_time(1e6) == pytest.approx(math.log(1e6))
        with pytest.raises(RegimeError):
            trivial_lower_bound_parallel_time(1)

    def test_paper_k_schedule_matches_figure1(self):
        """The paper states k = 27 at n = 10⁶ for Figure 1."""
        assert paper_k_schedule(1_000_000) in (27, 28)

    def test_paper_k_schedule_monotone(self):
        values = [paper_k_schedule(n) for n in (1e4, 1e5, 1e6, 1e7, 1e8)]
        assert values == sorted(values)
