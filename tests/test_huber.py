"""Tests for Huber loss pieces, MAD scale, OLS, and the IRLS fitter."""

import numpy as np
import pytest

from robroc.errors import NumericalError
from robroc.huber import (FitConfig, huber_psi, huber_rho, huber_weight,
                          irls_fit, mad_scale, ols_as_robust_fit, ols_fit)

B = 1.345


def orthogonal_residuals(rng, Z, pattern):
    """Project a residual pattern onto the orthogonal complement of col(Z)."""
    q, _ = np.linalg.qr(Z)
    return pattern - q @ (q.T @ pattern)


class TestLossPieces:
    @pytest.mark.parametrize("u,expected", [
        (0.0, 0.0),
        (1.0, 0.5),
        (2.0, 1.7854875),
        (-2.0, 1.7854875),
    ])
    def test_rho_values(self, u, expected):
        assert huber_rho(u, B) == pytest.approx(expected, abs=1e-12)

    def test_rho_continuous_at_threshold(self):
        h = 1e-9
        assert abs(huber_rho(B + h, B) - huber_rho(B - h, B)) < 1e-8

    @pytest.mark.parametrize("u,expected", [
        (0.5, 0.5),
        (3.0, B),
        (-3.0, -B),
    ])
    def test_psi_values(self, u, expected):
        assert huber_psi(u, B) == expected

    def test_psi_is_derivative_of_rho(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for u in rng.uniform(-4, 4, size=40):
            if abs(abs(u) - B) < 1e-3:
                continue  # kink
            numeric = (huber_rho(u + h, B) - huber_rho(u - h, B)) / (2 * h)
            assert numeric == pytest.approx(huber_psi(u, B), abs=1e-5)

    @pytest.mark.parametrize("u,expected", [
        (0.0, 1.0),
        (1.0, 1.0),
        (2.69, 0.5),
        (-2.69, 0.5),
    ])
    def test_weight_values(self, u, expected):
        assert huber_weight(u, B) == pytest.approx(expected, abs=1e-12)

    def test_weight_equals_psi_over_u(self):
        rng = np.random.default_rng(3)
        for u in rng.uniform(0.1, 6, size=40) * rng.choice([-1, 1], size=40):
            assert huber_weight(u, B) == pytest.approx(huber_psi(u, B) / u, abs=1e-12)

    def test_vectorized_shapes(self):
        u = np.array([[0.0, 2.0], [-3.0, 1.0]])
        assert huber_rho(u).shape == (2, 2)
        assert huber_psi(u).shape == (2, 2)
        assert huber_weight(u).shape == (2, 2)
        assert isinstance(huber_rho(1.0), float)


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -2), ("tol", 0.0), ("tol", -1.0),
        ("tol", float("nan")), ("tuning", 0.0), ("truncation", -3.0)])
    def test_nonsense_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_defaults_and_infinite_tuning_accepted(self):
        assert FitConfig().max_iterations == 50
        assert FitConfig(tuning=float("inf"), truncation=float("inf")).tol == 1e-8


class TestMadScale:
    def test_symmetric_integers(self):
        assert mad_scale([-2, -1, 0, 1, 2]) == pytest.approx(1.4826, abs=1e-12)

    def test_all_zero(self):
        assert mad_scale([0.0, 0.0, 0.0]) == 0.0

    def test_even_count_averages_middle_pair(self):
        assert mad_scale([1.0, 3.0]) == pytest.approx(1.4826 * 2.0, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        r = rng.normal(size=31)
        assert mad_scale(2.0 * r) == pytest.approx(2.0 * mad_scale(r), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mad_scale([])


class TestOlsFit:
    def test_exact_linear_data(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 25)
        Z = np.column_stack([np.ones(25), x])
        y = 2.0 - 3.0 * x
        beta, sigma = ols_fit(Z, y)
        np.testing.assert_allclose(beta, [2.0, -3.0], atol=1e-10)
        assert sigma < 1e-10

    def test_intercept_only_mean(self):
        Z = np.ones((5, 1))
        y = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        beta, sigma = ols_fit(Z, y)
        assert beta[0] == pytest.approx(20.0, abs=1e-10)
        assert sigma == pytest.approx(np.sqrt(2000.0), rel=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            Z = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            y = rng.normal(size=n)
            beta, _ = ols_fit(Z, y)
            resid = y - Z @ beta
            assert np.max(np.abs(Z.T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(13)
        n = 40
        Z = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = rng.normal(size=n)
        beta, _ = ols_fit(Z, y)
        expected = np.linalg.lstsq(Z, y, rcond=None)[0]
        np.testing.assert_allclose(beta, expected, atol=1e-10)

    def test_duplicate_column_rejected(self):
        x = np.linspace(0, 1, 20)
        Z = np.column_stack([np.ones(20), x, x])
        with pytest.raises(NumericalError, match="singular"):
            ols_fit(Z, np.ones(20))

    def test_underdetermined_rejected(self):
        Z = np.eye(3)
        with pytest.raises(NumericalError, match="underdetermined"):
            ols_fit(Z, np.ones(3))


class TestIrlsFit:
    def test_equals_ols_when_residuals_inside_threshold(self):
        rng = np.random.default_rng(17)
        n = 16
        x = rng.uniform(0, 1, n)
        Z = np.column_stack([np.ones(n), x])
        pattern = np.tile([1.0, -1.0], n // 2)
        r = orthogonal_residuals(rng, Z, pattern)
        # the construction must keep every standardized residual within b
        assert np.max(np.abs(r)) <= B * mad_scale(r)
        gamma = np.array([1.5, -0.7])
        y = Z @ gamma + r
        fit = irls_fit(Z, y)
        np.testing.assert_allclose(fit.beta, gamma, atol=1e-8)
        np.testing.assert_array_equal(fit.huber_weights, np.ones(n))
        assert fit.converged
        assert fit.iterations == 1

    def test_single_gross_outlier_downweighted(self):
        rng = np.random.default_rng(19)
        n = 200
        x = rng.uniform(0, 1, n)
        Z = np.column_stack([np.ones(n), x])
        y = 1.0 + 2.0 * x + rng.normal(size=n)
        beta_clean, _ = ols_fit(Z, y)
        y_bad = y.copy()
        y_bad[137] += 50.0
        robust = irls_fit(Z, y_bad)
        assert np.max(np.abs(robust.beta - beta_clean)) < 0.05
        assert robust.truncated_weights[137] < 0.1
        beta_ols, _ = ols_fit(Z, y_bad)
        assert np.max(np.abs(beta_ols - beta_clean)) > 0.1

    def test_constant_outcomes_degenerate(self):
        Z = np.ones((10, 1))
        with pytest.raises(NumericalError, match="degenerate scale"):
            irls_fit(Z, np.full(10, 3.3))

    def test_rounding_level_spread_degenerate(self):
        # multi-column designs leave rounding-level residue on constant
        # outcomes; that collapse must also be rejected
        rng = np.random.default_rng(211)
        Z = np.column_stack([np.ones(30), rng.uniform(0, 1, (30, 3))])
        with pytest.raises(NumericalError, match="degenerate scale"):
            irls_fit(Z, np.full(30, 3.3))

    def test_regression_equivariance(self):
        rng = np.random.default_rng(23)
        cfg = FitConfig(tol=1e-12)
        for _ in range(5):
            n = 60
            Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
            y = rng.standard_t(df=3, size=n)
            gamma = rng.normal(size=2) * 5
            base = irls_fit(Z, y, cfg)
            shifted = irls_fit(Z, y + Z @ gamma, cfg)
            np.testing.assert_allclose(shifted.beta, base.beta + gamma, atol=1e-8)
            assert shifted.sigma == pytest.approx(base.sigma, abs=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(29)
        cfg = FitConfig(tol=1e-12)
        n = 60
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = rng.standard_t(df=3, size=n)
        base = irls_fit(Z, y, cfg)
        for c in (0.5, 3.0, 40.0):
            scaled = irls_fit(Z, c * y, cfg)
            np.testing.assert_allclose(scaled.beta, c * base.beta, atol=1e-8 * c)
            assert scaled.sigma == pytest.approx(c * base.sigma, rel=1e-8)
            np.testing.assert_allclose(scaled.std_residuals, base.std_residuals,
                                       atol=1e-8)

    def test_estimating_equations_hold(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = 80
            Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
            y = 1.0 + Z[:, 1] + rng.standard_t(df=2, size=n)
            fit = irls_fit(Z, y)
            score = Z.T @ huber_psi(fit.std_residuals, fit.tuning)
            assert np.max(np.abs(score)) <= 1e-6 * n

    def test_truncated_weight_rule_exact(self):
        rng = np.random.default_rng(37)
        n = 120
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = Z[:, 1] + rng.standard_t(df=2, size=n)
        fit = irls_fit(Z, y)
        inside = np.abs(fit.std_residuals) <= fit.truncation
        assert inside.any() and (~inside).any()
        expected = np.where(inside, 1.0, fit.huber_weights)
        np.testing.assert_array_equal(fit.truncated_weights, expected)
        assert np.all(fit.huber_weights[~inside] < 1.0)

    def test_iteration_cap_flags_nonconvergence(self):
        rng = np.random.default_rng(41)
        n = 60
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = Z[:, 1] + rng.normal(size=n)
        y[:6] += 30.0
        fit = irls_fit(Z, y, FitConfig(max_iterations=1))
        assert not fit.converged
        assert fit.iterations == 1

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(43)
        n = 80
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = 2.0 + Z[:, 1] + rng.standard_t(df=3, size=n)
        cold = irls_fit(Z, y)
        warm = irls_fit(Z, y, beta_init=cold.beta)
        np.testing.assert_allclose(warm.beta, cold.beta, atol=1e-8)
        assert warm.iterations == 1
        far = irls_fit(Z, y, beta_init=np.array([50.0, -50.0]))
        np.testing.assert_allclose(far.beta, cold.beta, atol=1e-6)

    def test_underdetermined_rejected(self):
        Z = np.ones((3, 3))
        with pytest.raises(NumericalError):
            irls_fit(Z, np.ones(3))


class TestOlsAsRobustFit:
    def test_unit_weights_and_classical_scale(self):
        rng = np.random.default_rng(47)
        n = 50
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = Z[:, 1] + rng.normal(size=n)
        fit = ols_as_robust_fit(Z, y)
        beta, sigma = ols_fit(Z, y)
        np.testing.assert_allclose(fit.beta, beta, atol=1e-12)
        assert fit.sigma == sigma
        np.testing.assert_array_equal(fit.huber_weights, np.ones(n))
        np.testing.assert_array_equal(fit.truncated_weights, np.ones(n))
        np.testing.assert_allclose(Z @ beta + sigma * fit.std_residuals, y,
                                   atol=1e-10)
        assert fit.converged

    def test_interpolating_fit_rejected(self):
        x = np.linspace(0, 1, 10)
        Z = np.column_stack([np.ones(10), x])
        with pytest.raises(NumericalError, match="degenerate"):
            ols_as_robust_fit(Z, 1.0 + 2.0 * x)
