"""Unit tests for repro.theory.drift — the proof algebra vs the simulator."""

import numpy as np
import pytest

from repro import Configuration, CountsEngine
from repro.errors import ConfigurationError
from repro.protocols import UndecidedStateDynamics
from repro.rng import spawn_seeds
from repro.theory import (
    expected_undecided_change,
    gap_step_probabilities,
    opinion_step_probabilities,
    undecided_step_probabilities,
)


def opinion_drift(config, opinion):
    p_up, p_down = opinion_step_probabilities(config, opinion)
    return p_up - p_down


def gap_drift(config, i, j):
    p_up, p_down = gap_step_probabilities(config, i, j)
    return p_up - p_down


class TestClosedForms:
    def test_undecided_probabilities_by_hand(self):
        """n=10: x=(4,3), u=3; hand-computed pair weights."""
        config = Configuration([4, 3], undecided=3)
        p_up, p_down = undecided_step_probabilities(config)
        # cancellation: ordered pairs across opinions: 2·4·3 = 24
        assert p_up == pytest.approx(24 / 90)
        # recruitment: 2·u·(decided) = 2·3·7 = 42
        assert p_down == pytest.approx(42 / 90)
        assert expected_undecided_change(config) == pytest.approx(
            (2 * 24 - 42) / 90
        )

    def test_opinion_probabilities_by_hand(self):
        config = Configuration([4, 3], undecided=3)
        p_up, p_down = opinion_step_probabilities(config, 1)
        assert p_up == pytest.approx(2 * 4 * 3 / 90)  # meet undecided
        assert p_down == pytest.approx(2 * 4 * 3 / 90)  # meet opinion 2

    def test_opinion_drift_sign_follows_threshold(self):
        """x_i grows in expectation iff u > (n − x_i)/2 — the §2 threshold."""
        n = 1000
        x_i = 200
        threshold = (n - x_i) / 2  # 400
        above = Configuration([x_i, n - x_i - 500], undecided=500)
        below = Configuration([x_i, n - x_i - 300], undecided=300)
        assert opinion_drift(above, 1) > 0
        assert opinion_drift(below, 1) < 0
        at = Configuration([x_i, n - x_i - int(threshold)], undecided=int(threshold))
        assert opinion_drift(at, 1) == pytest.approx(0.0)

    def test_gap_drift_proportional_to_gap(self):
        """E[ΔΔ_ij] = 2·Δ_ij·(2u − n + x_i + x_j)/(n(n−1)) — Lemma 3.4's
        factorisation."""
        config = Configuration([300, 200, 100], undecided=400)
        n = config.n
        expected = (
            2.0 * (300 - 200) * (2 * 400 - n + 300 + 200) / (n * (n - 1))
        )
        assert gap_drift(config, 1, 2) == pytest.approx(expected)

    def test_gap_antisymmetric(self):
        config = Configuration([300, 200, 100], undecided=400)
        assert gap_drift(config, 1, 2) == pytest.approx(-gap_drift(config, 2, 1))

    def test_gap_needs_distinct_opinions(self):
        with pytest.raises(ConfigurationError):
            gap_step_probabilities(Configuration([5, 5]), 1, 1)

    def test_equal_supports_have_zero_gap_drift(self):
        config = Configuration([250, 250], undecided=500)
        assert gap_drift(config, 1, 2) == pytest.approx(0.0)

    def test_opinion_drift_closed_form(self):
        """P(+1) − P(−1) for x_i is 2·x_i·(2u − n + x_i)/(n(n−1))."""
        config = Configuration([40, 30, 20], undecided=10)
        n = config.n
        for opinion, x_i in ((1, 40), (2, 30), (3, 20)):
            assert opinion_drift(config, opinion) == pytest.approx(
                2.0 * x_i * (2 * 10 - n + x_i) / (n * (n - 1))
            )

    def test_drift_field_conserves_mass(self):
        """E[Δu] + Σ E[Δx_i] = 0: every interaction conserves agents."""
        config = Configuration([40, 30, 20], undecided=10)
        total = expected_undecided_change(config) + sum(
            opinion_drift(config, opinion) for opinion in (1, 2, 3)
        )
        assert total == pytest.approx(0.0, abs=1e-15)


class TestEmpiricalCrossValidation:
    """One-interaction samples of the exact engine must agree with the
    closed forms (within 4 standard errors of the sample mean)."""

    @pytest.fixture(scope="class")
    def config(self):
        return Configuration.equal_minorities_with_bias(n=600, k=4, bias=80)

    @staticmethod
    def one_step_changes(config, read, samples, seed):
        protocol = UndecidedStateDynamics(k=config.k)
        base = protocol.encode_configuration(config)
        changes = []
        for child in spawn_seeds(seed, samples):
            engine = CountsEngine(protocol, base, seed=child)
            before = read(engine.counts)
            engine.step(1)
            changes.append(read(engine.counts) - before)
        return np.asarray(changes, dtype=float)

    @classmethod
    def assert_consistent(cls, config, read, value, seed, samples=2500):
        changes = cls.one_step_changes(config, read, samples, seed)
        std_error = changes.std(ddof=1) / np.sqrt(samples)
        assert abs(changes.mean() - value) <= 4.0 * max(std_error, 1e-15)

    def test_undecided_drift(self, config):
        self.assert_consistent(
            config,
            lambda counts: int(counts[0]),
            expected_undecided_change(config),
            seed=1,
        )

    def test_opinion_drift(self, config):
        self.assert_consistent(
            config,
            lambda counts: int(counts[1]),
            opinion_drift(config, 1),
            seed=2,
        )

    def test_gap_drift(self, config):
        self.assert_consistent(
            config,
            lambda counts: int(counts[1]) - int(counts[2]),
            gap_drift(config, 1, 2),
            seed=3,
        )
