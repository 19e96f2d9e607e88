"""Unit tests for repro.theory.hitting_time (the Oliveto–Witt bound)."""

import math

import pytest

from repro import RegimeError
from repro.theory import lemma31_oliveto_witt_instance, negative_drift_bound


class TestOlivetoWitt:
    def test_exponent_formula(self):
        bound = negative_drift_bound(interval_length=1320.0, drift=0.1, step_scale=1.0)
        assert bound.exponent == pytest.approx(0.1 * 1320 / 132)

    def test_validation(self):
        with pytest.raises(RegimeError):
            negative_drift_bound(-1.0, 0.1, 1.0)
        with pytest.raises(RegimeError):
            negative_drift_bound(10.0, 0.0, 1.0)
        with pytest.raises(RegimeError):
            negative_drift_bound(10.0, 0.1, 0.5)

    def test_lemma31_instance_gives_n4(self):
        """The paper's instantiation yields exactly exp(4 log n) = n⁴."""
        for n in (1e4, 1e6, 1e8):
            bound = lemma31_oliveto_witt_instance(n)
            assert bound.exponent == pytest.approx(4 * math.log(n))
            assert bound.survives_at_least(n**4)
            assert not bound.survives_at_least(n**4 * 10)

    def test_lemma31_conditions_hold_at_scale(self):
        assert lemma31_oliveto_witt_instance(1e6).conditions_hold

    def test_survives_at_least_monotone(self):
        bound = negative_drift_bound(1320.0, 0.1, 1.0)
        assert bound.survives_at_least(1.0)
        assert bound.survives_at_least(math.e)
        assert not bound.survives_at_least(math.e**2)
