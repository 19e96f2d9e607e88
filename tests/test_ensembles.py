"""Unit tests for repro.analysis.ensembles."""

import numpy as np
import pytest

from repro import Trace
from repro.analysis import ensemble_band_from_series
from repro.analysis.ensembles import BAND_QUANTILE, GRID_POINTS
from repro.errors import ExperimentError


def make_trace(times, counts, n=100):
    return Trace(
        times=np.asarray(times, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        n=n,
        state_names=("⊥", "a", "b"),
        protocol_name="usd",
        undecided_index=0,
    )


@pytest.fixture
def traces():
    first = make_trace(
        [0, 100, 200], [[0, 60, 40], [40, 40, 20], [0, 100, 0]]
    )
    second = make_trace([0, 100], [[0, 55, 45], [20, 60, 20]])
    return [first, second]


def undecided(traces):
    return [(trace.parallel_times, trace.undecided_series()) for trace in traces]


def majority(traces):
    return [(trace.parallel_times, trace.opinion_series(1)) for trace in traces]


class TestAlign:
    def test_interpolation_and_holding(self, traces):
        band = ensemble_band_from_series(undecided(traces))
        grid = band.grid
        assert len(grid) == GRID_POINTS
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(2.0)
        # first trace: interpolate 0→40 over [0,1], 40→0 over [1,2]; the
        # second ends at parallel time 1 and its value is held at 20 after
        first = np.where(grid <= 1, 40 * grid, 40 * (2 - grid))
        second = np.where(grid <= 1, 20 * grid, 20.0)
        low, high = np.minimum(first, second), np.maximum(first, second)
        spread = BAND_QUANTILE * (high - low)
        assert np.allclose(band.mean, (first + second) / 2)
        assert np.allclose(band.lower, low + spread)
        assert np.allclose(band.upper, high - spread)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ensemble_band_from_series([])


class TestEnsembleBand:
    def test_band_contains_mean(self, traces):
        band = ensemble_band_from_series(undecided(traces))
        assert band.runs == 2
        assert band.grid[0] == 0.0
        assert band.grid[-1] == pytest.approx(2.0)
        assert np.all(band.lower <= band.mean + 1e-12)
        assert np.all(band.mean <= band.upper + 1e-12)

    def test_single_trace_band_is_degenerate(self, traces):
        band = ensemble_band_from_series(majority(traces[:1]))
        assert np.allclose(band.lower, band.upper)
        assert np.allclose(band.mean, band.lower)
