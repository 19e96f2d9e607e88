"""Unit tests for the mean-field (fluid-limit) substrate."""

import numpy as np
import pytest

from repro import Configuration, SimulationError
from repro.meanfield import (
    USDMeanField,
    classify_fixed_point,
    consensus_fixed_point,
    jacobian,
    predict_timescales,
    symmetric_interior_fixed_point,
    timescales_from_solution,
    undecided_fixed_point_fraction,
)
from repro.theory import undecided_plateau


def _grid(t_end: float) -> np.ndarray:
    """The 500-point grid the tests integrate on."""
    return np.linspace(0.0, t_end, 500)


class TestFixedPointFormulas:
    def test_fixed_point_fraction(self):
        assert undecided_fixed_point_fraction(1) == 0.0
        assert undecided_fixed_point_fraction(2) == pytest.approx(1 / 3)
        assert undecided_fixed_point_fraction(1000) == pytest.approx(0.5, abs=1e-3)

    def test_plateau_is_large_k_expansion(self):
        for k in (50, 200, 1000):
            exact = undecided_fixed_point_fraction(k)
            approx = undecided_plateau(1, k)
            assert abs(exact - approx) < 1.0 / k**2

    def test_rejects_bad_k(self):
        with pytest.raises(SimulationError):
            undecided_fixed_point_fraction(0)

    def test_symmetric_point_is_valid_state(self):
        y = symmetric_interior_fixed_point(5)
        assert y.sum() == pytest.approx(1.0)
        assert np.all(y >= 0)
        assert np.allclose(y[1:], y[1])

    def test_consensus_point(self):
        y = consensus_fixed_point(4)
        assert y[1] == 1.0
        assert y.sum() == 1.0

    def test_consensus_winner_range(self):
        # the winner is opinion 1, which k = 0 does not have
        with pytest.raises(SimulationError):
            consensus_fixed_point(0)


class TestDynamics:
    def test_rhs_zero_at_fixed_points(self):
        model = USDMeanField(k=6)
        for point in (
            symmetric_interior_fixed_point(6),
            consensus_fixed_point(6),
        ):
            assert np.abs(model.rhs(0.0, point)).max() < 1e-12

    def test_rhs_conserves_total_mass(self):
        """d/dt (v + Σa_i) = 0: the population is conserved."""
        model = USDMeanField(k=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.random(5)
            y = raw / raw.sum()
            assert model.rhs(0.0, y).sum() == pytest.approx(0.0, abs=1e-12)

    def test_integration_reaches_consensus_from_bias(self):
        model = USDMeanField(k=4)
        config = Configuration.equal_minorities_with_bias(10_000, 4, 800)
        solution = model.integrate(config, t_end=60.0, t_eval=_grid(60.0))
        assert solution.opinions[-1][0] == pytest.approx(1.0, abs=1e-3)
        assert solution.undecided[-1] == pytest.approx(0.0, abs=1e-3)

    def test_undecided_visits_plateau(self):
        """On the way to consensus, v(τ) passes close to the interior
        fixed point (the Figure 1 plateau)."""
        k = 8
        model = USDMeanField(k=k)
        config = Configuration.equal_minorities_with_bias(100_000, k, 1500)
        solution = model.integrate(config, t_end=80.0, t_eval=_grid(80.0))
        target = undecided_fixed_point_fraction(k)
        assert np.abs(solution.undecided - target).min() < 0.01

    def test_initial_state_validation(self):
        model = USDMeanField(k=2)
        with pytest.raises(SimulationError):
            model.initial_state([0.5, 0.5, 0.5])  # sums to 1.5
        with pytest.raises(SimulationError):
            model.initial_state([0.5, 0.5])  # wrong shape

    def test_initial_state_k_mismatch(self):
        model = USDMeanField(k=2)
        with pytest.raises(SimulationError):
            model.initial_state(Configuration([1, 2, 3]))

    def test_t_end_validation(self):
        model = USDMeanField(k=2)
        with pytest.raises(SimulationError):
            model.integrate(Configuration([5, 5]), t_end=0.0, t_eval=_grid(0.0))


class TestLinearization:
    def test_jacobian_matches_finite_differences(self):
        model = USDMeanField(k=3)
        rng = np.random.default_rng(1)
        raw = rng.random(4)
        y = raw / raw.sum()
        analytic = jacobian(y)
        eps = 1e-7
        for j in range(4):
            bumped = y.copy()
            bumped[j] += eps
            numeric = (model.rhs(0.0, bumped) - model.rhs(0.0, y)) / eps
            assert np.allclose(analytic[:, j], numeric, atol=1e-5)

    def test_interior_point_is_unstable_in_difference_directions(self):
        """The symmetric interior fixed point has exactly k−1 unstable
        directions: any opinion imbalance grows (the consensus drive)."""
        for k in (3, 6, 10):
            classification = classify_fixed_point(symmetric_interior_fixed_point(k))
            assert not classification.stable
            assert classification.unstable_directions == k - 1

    def test_consensus_is_stable(self):
        for k in (2, 5):
            classification = classify_fixed_point(consensus_fixed_point(k))
            assert classification.stable


class TestEdgeCases:
    def test_k1_absorbs_all_undecided(self):
        """k = 1: v* = 0 and the single opinion swallows everyone."""
        assert undecided_fixed_point_fraction(1) == 0.0
        model = USDMeanField(k=1)
        solution = model.integrate(
            Configuration([500], undecided=500), t_end=30.0, t_eval=_grid(30.0)
        )
        assert solution.undecided[-1] == pytest.approx(0.0, abs=1e-4)
        assert solution.opinions[-1, 0] == pytest.approx(1.0, abs=1e-4)

    def test_exactly_zero_bias_conserves_the_tie(self):
        """A perfectly symmetric start never breaks symmetry in the
        ODE (the stochastic system does, by noise — the documented
        divergence between the fluid limit and the paper's system)."""
        model = USDMeanField(k=2)
        solution = model.integrate(
            Configuration([1000, 1000]), t_end=100.0, t_eval=_grid(100.0)
        )
        assert np.allclose(
            solution.opinions[:, 0], solution.opinions[:, 1], atol=1e-9
        )
        # the undecided fraction still settles on the interior plateau
        assert solution.undecided[-1] == pytest.approx(
            undecided_fixed_point_fraction(2), abs=1e-6
        )
        times = timescales_from_solution(solution)
        assert times.consensus is None
        assert times.plateau_entry is not None

    def test_near_unanimous_initial_skips_the_plateau(self):
        """Starting at the brink of consensus: no plateau visit, an
        immediate finish, and doubling is impossible (a_1 > 1/2)."""
        model = USDMeanField(k=2)
        solution = model.integrate(
            Configuration([1995, 5]), t_end=50.0, t_eval=_grid(50.0)
        )
        times = timescales_from_solution(solution)
        assert times.consensus is not None and times.consensus < 10.0
        assert times.majority_doubling is None
        assert np.abs(
            solution.undecided - undecided_fixed_point_fraction(2)
        ).min() > 0.05

    def test_classification_matches_jacobian_sign_structure(self):
        """classify_fixed_point is exactly the sign pattern of the
        mass-conserving projection of the Jacobian."""
        for point in (
            symmetric_interior_fixed_point(4),
            consensus_fixed_point(4),
        ):
            classification = classify_fixed_point(point)
            from repro.meanfield.fixed_points import _simplex_tangent_basis

            basis = _simplex_tangent_basis(point.shape[0])
            projected = basis.T @ jacobian(point) @ basis
            eigenvalues = np.linalg.eigvals(projected)
            assert classification.stable == bool(
                np.all(eigenvalues.real < -1e-9)
            )
            assert classification.unstable_directions == int(
                np.sum(eigenvalues.real > 1e-9)
            )
            assert np.allclose(
                np.sort(classification.eigenvalues.real),
                np.sort(eigenvalues.real),
            )


class TestTimescalesFromSolution:
    def test_matches_predict_timescales(self):
        config = Configuration.equal_minorities_with_bias(10_000, 4, 800)
        direct = predict_timescales(config, horizon=60.0)
        model = USDMeanField(k=4)
        grid = np.linspace(0.0, 60.0, 4000)
        solution = model.integrate(config, t_end=60.0, t_eval=grid)
        derived = timescales_from_solution(solution)
        assert derived == direct

    def test_empty_solution_rejected(self):
        from repro.meanfield.ode import MeanFieldSolution

        empty = MeanFieldSolution(
            times=np.array([]),
            undecided=np.array([]),
            opinions=np.empty((0, 2)),
        )
        with pytest.raises(SimulationError, match="empty"):
            timescales_from_solution(empty)

    def test_tolerance_validated(self):
        model = USDMeanField(k=2)
        solution = model.integrate(
            Configuration([6, 4]), t_end=1.0, t_eval=_grid(1.0)
        )
        with pytest.raises(SimulationError, match="tolerance"):
            timescales_from_solution(solution, tolerance=0.7)
