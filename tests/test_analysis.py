"""Unit tests for repro.analysis (stats, trajectories, stabilization, scaling)."""

import numpy as np
import pytest

from repro import Configuration, ReproError, Trace
from repro.analysis import (
    compare_scaling_laws,
    doubling_time,
    fit_proportional,
    law_value,
    majority_minority_gap_series,
    minority_band,
    summarize,
    threshold_crossing_time,
    undecided_exceedance,
    usd_stabilization_ensemble,
)
from repro.errors import ExperimentError


def make_trace(times, counts, n=None):
    counts = np.asarray(counts, dtype=np.int64)
    return Trace(
        times=np.asarray(times, dtype=np.int64),
        counts=counts,
        n=n if n is not None else int(counts[0].sum()),
        state_names=tuple(f"s{i}" for i in range(counts.shape[1])),
        protocol_name="usd",
        undecided_index=0,
    )


class TestStats:
    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_summarize_single_value(self):
        summary = summarize([7.0])
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 7.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])

    def test_fit_proportional(self):
        x = np.array([1.0, 2.0, 4.0])
        y = 2.5 * x
        fit = fit_proportional(x, y)
        assert fit.slope == pytest.approx(2.5)
        assert fit.intercept == 0.0
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_validation(self):
        with pytest.raises(ReproError):
            fit_proportional([0.0, 0.0], [1.0, 2.0])


class TestTrajectories:
    def test_threshold_crossing(self):
        times = np.array([0, 10, 20, 30])
        series = np.array([1, 5, 9, 20])
        assert threshold_crossing_time(times, series, 9) == 20.0
        assert threshold_crossing_time(times, series, 100) is None

    def test_threshold_shape_mismatch(self):
        with pytest.raises(ReproError):
            threshold_crossing_time(np.array([0, 1]), np.array([1]), 0)

    def test_doubling_time(self):
        trace = make_trace(
            [0, 100, 200],
            [[50, 20, 30], [40, 30, 30], [20, 45, 35]],
        )
        assert doubling_time(trace, opinion=1) == pytest.approx(2.0)

    def test_doubling_time_none_when_never(self):
        trace = make_trace([0, 100], [[50, 20, 30], [60, 15, 25]])
        assert doubling_time(trace, opinion=1) is None

    def test_doubling_time_requires_support(self):
        trace = make_trace([0], [[50, 0, 50]])
        with pytest.raises(ReproError):
            doubling_time(trace, opinion=1)

    def test_gap_series(self):
        trace = make_trace([0, 1], [[10, 50, 40], [10, 60, 30]])
        assert list(majority_minority_gap_series(trace)) == [10, 30]

    def test_minority_band(self):
        trace = make_trace([0], [[0, 50, 30, 20]])
        low, mean, high = minority_band(trace)
        assert low[0] == 20 and high[0] == 30 and mean[0] == 25

    def test_undecided_exceedance(self):
        n = 10_000
        trace = make_trace(
            [0, 1],
            [[0, 6000, 4000], [5200, 2800, 2000]],
            n=n,
        )
        result = undecided_exceedance(trace, k=2)
        assert result.max_undecided == 5200
        assert result.exceedance == pytest.approx(5200 - result.u_tilde)
        assert result.normalized == pytest.approx(
            result.exceedance / np.sqrt(n * np.log(n))
        )


class TestStabilizationEnsemble:
    def test_ensemble_runs_and_summarizes(self):
        config = Configuration([70, 30])
        ensemble = usd_stabilization_ensemble(
            config, num_seeds=5, seed=1, engine="counts", max_parallel_time=10_000
        )
        assert ensemble.runs == 5
        assert ensemble.censored == 0
        assert ensemble.times.size == 5
        assert 0 <= ensemble.majority_win_fraction <= 1
        summary = ensemble.summary()
        assert summary.count == 5

    def test_censoring_counts(self):
        config = Configuration([51, 49])
        ensemble = usd_stabilization_ensemble(
            config, num_seeds=3, seed=2, engine="counts", max_parallel_time=0.01
        )
        assert ensemble.censored == 3
        with pytest.raises(ExperimentError):
            ensemble.summary()

    def test_num_seeds_validated(self):
        with pytest.raises(ExperimentError):
            usd_stabilization_ensemble(Configuration([5, 5]), num_seeds=0)

    def test_missing_winner_stored_as_sentinel_not_zero(self):
        """Regression: the all-undecided absorption used to be stored as
        winner 0, which winner-frequency stats could mistake for an
        opinion; it must be the -1 sentinel with an explicit count."""
        from repro.analysis import UNDETERMINED_WINNER

        ensemble = usd_stabilization_ensemble(
            Configuration([1, 1]),  # one cancellation → all-undecided
            num_seeds=3,
            seed=2,
            engine="counts",
            max_parallel_time=1_000,
        )
        assert UNDETERMINED_WINNER == -1
        assert np.all(ensemble.winners == UNDETERMINED_WINNER)
        assert not np.any(ensemble.winners == 0)
        assert ensemble.num_undetermined == 3
        assert ensemble.majority_win_fraction == 0.0


class TestScaling:
    def test_law_values(self):
        assert law_value("amir_upper", 1e6, 10) == pytest.approx(
            10 * np.log(1e6)
        )
        assert law_value("linear_k", 1e6, 10) == 10
        assert law_value("doubling", 1e6, 10, bias=1000) == pytest.approx(
            10 * np.log2(1e5 / 1000)
        )

    def test_doubling_needs_bias(self):
        with pytest.raises(ExperimentError):
            law_value("doubling", 1e6, 10)

    def test_unknown_law(self):
        with pytest.raises(ExperimentError):
            law_value("quantum", 1e6, 10)

    def test_compare_recovers_planted_law(self):
        """Plant data following the doubling law and check it wins."""
        n, bias = 1e5, 1000
        ks = np.array([4, 8, 12, 16, 24])
        times = np.array(
            [1.3 * law_value("doubling", n, k, bias) for k in ks]
        )
        comparison = compare_scaling_laws([n] * 5, ks, times, [bias] * 5)
        assert comparison.best_law == "doubling"
        assert comparison.fits["doubling"].slope == pytest.approx(1.3)
        assert comparison.lower_bound_ok

    def test_compare_without_bias_skips_doubling(self):
        comparison = compare_scaling_laws(
            [1e5] * 3, [4, 8, 16], [10.0, 20.0, 40.0]
        )
        assert "doubling" not in comparison.fits

    def test_compare_validation(self):
        with pytest.raises(ExperimentError):
            compare_scaling_laws([1e5], [4], [10.0])
