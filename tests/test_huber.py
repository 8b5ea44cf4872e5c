"""Tests for Huber loss pieces, MAD scale, OLS, and the IRLS fitter."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_fit
from robroc import bootstrap, huber, splines
from robroc.errors import NumericalError
from robroc.huber import (FitConfig, RobustFit, _row_mad_scales, _scale_floors, huber_psi,
                          huber_weight, irls_fit, irls_refit, ols_refit)
from robroc.simulate import generate, scenario

B = 1.345


def mad_scale(r) -> float:
    """The MAD scale of one residual vector: its one-row _row_mad_scales."""
    return float(_row_mad_scales(np.asarray(r, dtype=float)[None])[0])


def ols_fit(Z, y) -> RobustFit:
    """ols_refit on the one-row stack of y, raising the row's NumericalError."""
    fit = ols_refit(Z, np.asarray(y, dtype=float)[None])[0]
    if isinstance(fit, NumericalError):
        raise fit
    return fit


def huber_rho(u, b: float = B):
    """Huber loss, quadratic inside [-b, b] and linear outside: the loss
    whose derivative huber_psi is tested to be."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    out = np.where(au <= b, 0.5 * u * u, b * au - 0.5 * b * b)
    return float(out) if out.ndim == 0 else out


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

    @pytest.mark.parametrize("b", [B, 0.5, 1e-300, 1e300, np.inf])
    def test_weight_bit_identical_to_min_form(self, b):
        rng = np.random.default_rng(7)
        u = np.concatenate([[0.0, -0.0, b, -b, np.inf, -np.inf, np.nan, 5e-324],
                            np.nextafter(b, [0.0, np.inf]),
                            rng.standard_t(2, size=200) * B])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            expected = np.minimum(1.0, b / np.abs(u))
        with np.errstate(invalid="ignore"):  # inf/inf at an infinite b
            assert np.array_equal(huber_weight(u, b), expected, equal_nan=True)
        assert huber_weight(0.0, b) == 1.0

    @pytest.mark.parametrize("fn", [huber_psi, huber_weight])
    @pytest.mark.parametrize("b", [-1.0, 0.0, -np.inf, np.nan])
    def test_tuning_not_positive_rejected(self, fn, b):
        # unchecked, huber_weight([1.0], -1) gave a weight of -1 and at
        # b = 0 a weight of 0; huber_psi([1.0], -1) gave -1
        with pytest.raises(ValueError, match="tuning constant must be positive"):
            fn([1.0], b)

    def test_vectorized_shapes(self):
        u = np.array([[0.0, 2.0], [-3.0, 1.0]])
        assert huber_rho(u).shape == (2, 2)
        assert huber_psi(u).shape == (2, 2)
        assert huber_weight(u).shape == (2, 2)
        assert isinstance(huber_rho(1.0), float)


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -2), ("max_iterations", 2.5),
        ("max_iterations", 3.0), ("max_iterations", "3"), ("max_iterations", None),
        ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("tuning", 0.0),
        ("truncation", -3.0)])
    def test_nonsense_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_defaults_and_infinite_tuning_accepted(self):
        assert FitConfig().max_iterations == 50
        assert FitConfig(max_iterations=np.int32(3)).max_iterations == 3
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 199, 200, 30000, 30001])
    def test_bit_identical_to_np_median(self, n):
        rng = np.random.default_rng(n)
        cases = [rng.normal(size=n), np.round(rng.normal(size=n)),  # ties
                 rng.integers(-2, 3, size=n).astype(float), np.zeros(n),
                 rng.standard_t(1, size=n) * 1e5]
        if n > 1:
            nan_at = rng.normal(size=n)
            nan_at[rng.integers(n)] = np.nan
            cases.append(nan_at)
        cases.append(np.full(n, np.nan))
        for r in cases:
            expected = 1.4826 * np.median(np.abs(r))
            assert np.array_equal(mad_scale(r), expected, equal_nan=True)
        # stacked rows, each row's scale that of the row alone: the row sort
        # must keep np.median's order statistics and NaN rule row by row
        for m in (1, 2, 7, 60):
            stack = np.array([cases[i] for i in rng.integers(len(cases), size=m)])
            expected = [1.4826 * np.median(np.abs(r)) for r in stack]
            assert np.array_equal(_row_mad_scales(stack), expected, equal_nan=True)

    def test_input_left_unchanged(self):
        r = np.array([3.0, -1.0, 2.0, -5.0])
        mad_scale(r)
        np.testing.assert_array_equal(r, [3.0, -1.0, 2.0, -5.0])


class TestScaleFloors:
    @pytest.mark.parametrize("n", [1, 2, 200, 30000])
    def test_bit_identical_to_the_row_formula(self, n):
        # each row's floor as the one-row formula gave it, where y @ y is finite
        rng = np.random.default_rng(n)
        Y = rng.standard_cauchy((9, n)) * 10.0 ** rng.integers(-10, 140, size=(9, 1))
        Y[0] = 0.0
        expected = [1e-12 * max(float(np.sqrt(y @ y / y.size)), 1.0) for y in Y]
        assert np.array_equal(_scale_floors(Y), expected)

    def test_overflowing_rows_scaled_first(self):
        # y @ y overflows past an RMS of about 1e154; the floor stays 1e-12 RMS
        y = np.array([3.0, -4.0, 0.0, 12.0])
        with np.errstate(over="raise"):
            floors = _scale_floors(np.array([y, y * 1e160, y * 1e300]))
        np.testing.assert_allclose(floors, 1e-12 * np.sqrt(169 / 4) * np.array([1, 1e160, 1e300]),
                                   rtol=1e-15)


class TestOlsFit:
    """Ordinary least squares through ols_refit of one row; an interpolating
    fit, whose scale is zero, is TestOlsAsRobustFit's."""

    def test_intercept_only_mean(self):
        Z = np.ones((5, 1))
        y = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        fit = ols_fit(Z, y)
        assert fit.beta[0] == pytest.approx(20.0, abs=1e-10)
        assert fit.sigma == pytest.approx(np.sqrt(2000.0), rel=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            Z = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            y = rng.normal(size=n)
            beta = ols_fit(Z, y).beta
            resid = y - Z @ beta
            assert np.max(np.abs(Z.T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(13)
        n = 40
        Z = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = rng.normal(size=n)
        beta = ols_fit(Z, y).beta
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


def wrapper_lstsq(Z, y, w):
    """The weighted solve through scipy's QR and triangular-solve wrappers."""
    sw = np.sqrt(w)
    Q, R, piv = scipy.linalg.qr(Z * sw[:, None], mode="economic", pivoting=True)
    beta = np.empty(Z.shape[1])
    beta[piv] = scipy.linalg.solve_triangular(R, Q.T @ (y * sw))
    return beta


def reference_irls(Z, y, cfg, beta_init=None):
    """The IRLS loop before its step was trimmed: np.median scale, min-form
    weights and the scipy-wrapper solve, which checks every scaled system."""
    beta = wrapper_lstsq(Z, y, np.ones(y.size)) if beta_init is None else beta_init.copy()
    resid = y - Z @ beta
    converged, iterations = False, 0
    for _ in range(cfg.max_iterations):
        sigma = 1.4826 * float(np.median(np.abs(resid)))
        with np.errstate(divide="ignore"):
            w = np.minimum(1.0, cfg.tuning / np.abs(resid / sigma))
        beta_new = wrapper_lstsq(Z, y, w)
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        resid = y - Z @ beta
        iterations += 1
        if delta < cfg.tol:
            converged = True
            break
    return beta, iterations, converged


def scaled_stack(Z, W):
    """The row-scaled systems sqrt(W[i]) Z as irls_refit lays them out: a
    stack whose every system is Fortran-ordered."""
    return (Z.T * np.sqrt(W)[:, None, :]).transpose(0, 2, 1)


class TestScaledLstsq:
    """The least-squares step: _stacked_lstsq on row-scaled systems
    sqrt(w) Z, sqrt(w) y."""

    @pytest.mark.parametrize("n, q", [(n, q) for n in (5, 13, 300, 4000, 20000)
                                      for q in (1, 2, 4, 8, 12) if q < n])
    def test_bit_identical_to_scipy_wrappers(self, n, q):
        rng = np.random.default_rng(1000 * n + q)
        # one C-ordered system alone, then a stack of Fortran-ordered ones
        for m, layout in ((1, np.ascontiguousarray), (3, lambda a: a)):
            Z = rng.normal(size=(n, q)) * rng.uniform(0.01, 100.0, size=q)
            Z[:, 0] = 1.0
            Y = rng.standard_t(3, size=(m, n)) * 10.0
            W = huber_weight(rng.standard_t(2, size=(m, n)), B)
            beta, singular = huber._stacked_lstsq(layout(scaled_stack(Z, W)),
                                                  Y * np.sqrt(W))
            assert not singular.any()
            for b, y, w in zip(beta, Y, W):
                assert np.array_equal(b, wrapper_lstsq(Z, y, w))
                assert np.array_equal(ols_fit(Z, y).beta,
                                      wrapper_lstsq(Z, y, np.ones(n)))
        if n > 300:
            return
        # a bootstrap-sized stack of Fortran-ordered systems with one singular
        # system in the middle (weights zero past its first q - 1 rows): each
        # solved system's Q^T y comes from the stacked product, and must match
        Z = rng.normal(size=(n, q)) * rng.uniform(0.01, 100.0, size=q)
        Z[:, 0] = 1.0
        Y = rng.standard_t(3, size=(51, n)) * 10.0
        W = huber_weight(rng.standard_t(2, size=(51, n)), B)
        W[25, q - 1:] = 0.0
        beta, singular = huber._stacked_lstsq(scaled_stack(Z, W), Y * np.sqrt(W))
        assert singular.nonzero()[0].tolist() == [25]
        assert np.isnan(beta[25]).all()
        for i in np.flatnonzero(~singular):
            assert np.array_equal(beta[i], wrapper_lstsq(Z, Y[i], W[i]))

    @pytest.mark.parametrize("column", ["duplicate", "zero"])
    def test_singular_design_rejected(self, column):
        rng = np.random.default_rng(2)
        Z = np.column_stack([np.ones(40), rng.normal(size=40), np.zeros(40)])
        if column == "duplicate":
            Z[:, 2] = Z[:, 1]
        full = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        Y = rng.normal(size=(3, 40))
        beta, singular = huber._stacked_lstsq(np.array([full, Z, full]), Y)
        assert singular.tolist() == [False, True, False]
        assert np.isnan(beta[1]).all()
        # the other systems solve as they would alone
        assert np.array_equal(beta[2], huber._stacked_lstsq(full[None].copy(), Y[2:])[0][0])
        for fit in (ols_fit, irls_fit):
            with pytest.raises(NumericalError, match="^singular design matrix$"):
                fit(Z, Y[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_is_value_error(self, bad):
        rng = np.random.default_rng(3)
        Z = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        y[4] = bad
        for fit in (ols_fit, irls_fit):
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit(Z, y)
        Z[7, 1] = bad
        for fit in (ols_fit, irls_fit):
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit(Z, np.zeros(30))

    def test_workspace_queried_once_per_shape(self):
        rng = np.random.default_rng(4)
        huber._workspace.cache_clear()
        for m in (1, 2, 3):
            huber._stacked_lstsq(rng.normal(size=(m, 50, 3)), rng.normal(size=(m, 50)))
        huber._stacked_lstsq(rng.normal(size=(2, 60, 3)), rng.normal(size=(2, 60)))
        info = huber._workspace.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_fortran_design_left_unchanged(self):
        # _stacked_lstsq factors a Fortran-ordered system in place, so the
        # one-system callers must hand it a copy of the caller's design
        rng = np.random.default_rng(6)
        Z = np.asfortranarray(np.column_stack([np.ones(50), rng.normal(size=(50, 2))]))
        y = rng.normal(size=50)
        kept = Z.copy()
        ols_fit(Z, y)
        irls_fit(Z, y)
        irls_fit(Z, y, beta_init=np.zeros(3))
        assert np.array_equal(Z, kept)


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
        beta_clean = ols_fit(Z, y).beta
        y_bad = y.copy()
        y_bad[137] += 50.0
        robust = irls_fit(Z, y_bad)
        assert np.max(np.abs(robust.beta - beta_clean)) < 0.05
        assert robust.truncated_weights[137] < 0.1
        beta_ols = ols_fit(Z, y_bad).beta
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

    def test_residual_exactly_at_truncation_gets_unit_weight(self):
        # truncation does not enter the IRLS loop, so refitting with v set to
        # a downweighted |e_k| reproduces every residual and puts e_k exactly
        # at v, where the rule |e| <= v gives the truncated weight 1
        rng = np.random.default_rng(37)
        n = 120
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = Z[:, 1] + rng.standard_t(df=2, size=n)
        fit = irls_fit(Z, y)
        k = int(np.flatnonzero(fit.huber_weights < 1.0)[0])
        v = abs(float(fit.std_residuals[k]))
        at_v = irls_fit(Z, y, FitConfig(truncation=v))
        assert np.array_equal(at_v.std_residuals, fit.std_residuals)
        assert at_v.huber_weights[k] < 1.0
        assert at_v.truncated_weights[k] == 1.0
        expected = np.where(np.abs(fit.std_residuals) <= v, 1.0, fit.huber_weights)
        np.testing.assert_array_equal(at_v.truncated_weights, expected)

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

    @pytest.mark.parametrize("name", ["I", "III", "IV"])
    def test_fixed_point_does_not_depend_on_the_start(self, name):
        # irls_fit's docstring: the fixed point does not depend on the
        # start.  A tight tolerance takes every start to the same beta and
        # sigma up to rounding, for both groups at 0 and 2 knots.
        cfg = FitConfig(tol=1e-13, max_iterations=200)
        for seed in range(8):
            for sample in generate(scenario(name, contamination=0.05), 200, 100, seed=seed):
                for knots in (0, 2):
                    Z = splines.design_stack(sample.covariates[None], knots)[1][0]
                    y = sample.outcomes
                    cold = irls_fit(Z, y, cfg)
                    ols = np.linalg.lstsq(Z, y, rcond=None)[0]
                    perturbed = ols + 0.1 * np.random.default_rng(seed).normal(size=ols.size)
                    for start in (perturbed, np.zeros(ols.size), ols + 3.0):
                        warm = irls_fit(Z, y, cfg, beta_init=start)
                        assert cold.converged and warm.converged
                        assert (np.max(np.abs(warm.beta - cold.beta))
                                <= 1e-12 * np.max(np.abs(cold.beta)))
                        assert abs(warm.sigma - cold.sigma) <= 1e-12 * cold.sigma

    def test_underdetermined_rejected(self):
        Z = np.ones((3, 3))
        with pytest.raises(NumericalError):
            irls_fit(Z, np.ones(3))

    @pytest.mark.parametrize("shape", [(30,), (1, 30, 2)])
    def test_design_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="2-d design"):
            irls_fit(np.ones(shape), np.ones(30))

    @pytest.mark.parametrize("n, q, tuning, cap", [
        (200, 4, B, 50), (300, 7, B, 50), (150, 13, B, 50), (60, 2, 0.7, 50),
        (200, 4, B, 3), (40, 3, np.inf, 50)])
    def test_bit_identical_to_reference_loop(self, n, q, tuning, cap):
        rng = np.random.default_rng(100 * n + q)
        cfg = FitConfig(tuning=tuning, max_iterations=cap)
        for _ in range(3):
            Z = np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, (n, q - 1)) ** 2])
            y = Z @ rng.normal(size=q) + rng.standard_t(3, size=n)
            y[rng.choice(n, n // 20, replace=False)] += 15.0
            cold = irls_fit(Z, y, cfg)
            start = cold.beta + rng.normal(scale=0.3, size=q)
            for fit, beta_init in ((cold, None), (irls_fit(Z, y, cfg, start), start)):
                beta, iterations, converged = reference_irls(Z, y, cfg, beta_init)
                assert np.array_equal(fit.beta, beta)
                assert (fit.iterations, fit.converged) == (iterations, converged)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf / inf scale
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_warm_start_is_value_error(self, bad):
        rng = np.random.default_rng(5)
        Z = np.column_stack([np.ones(30), rng.normal(size=30)])
        with pytest.raises(ValueError, match="infs or NaNs"):
            irls_fit(Z, rng.normal(size=30), beta_init=np.array([0.0, bad]))


class TestOlsAsRobustFit:
    def test_unit_weights_and_classical_scale(self):
        rng = np.random.default_rng(47)
        n = 50
        Z = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
        y = Z[:, 1] + rng.normal(size=n)
        fit = ols_fit(Z, y)
        beta = np.linalg.lstsq(Z, y, rcond=None)[0]
        resid = y - Z @ fit.beta
        np.testing.assert_allclose(fit.beta, beta, atol=1e-12)
        assert fit.sigma == pytest.approx(np.sqrt(resid @ resid / (n - 2)), rel=1e-14)
        np.testing.assert_array_equal(fit.huber_weights, np.ones(n))
        np.testing.assert_array_equal(fit.truncated_weights, np.ones(n))
        np.testing.assert_allclose(Z @ fit.beta + fit.sigma * fit.std_residuals, y,
                                   atol=1e-10)
        assert fit.converged

    def test_interpolating_fit_rejected(self):
        x = np.linspace(0, 1, 10)
        Z = np.column_stack([np.ones(10), x])
        with pytest.raises(NumericalError, match="degenerate"):
            ols_fit(Z, 1.0 + 2.0 * x)


def assert_rows_equal_irls_fit(Z, Y, cfg, beta_init):
    """Each row of irls_refit equals irls_fit on that row and its design
    (Z, or Z[i] of a stack): the same fit bit for bit, or a NumericalError
    with the same message.  irls_fit is irls_refit on a one-row stack, so
    this checks that a row's fit does not depend on the other rows in its
    batch; test_bit_identical_to_reference_loop holds irls_fit itself to
    an independent loop."""
    fits = irls_refit(Z, Y, cfg, beta_init)
    assert len(fits) == len(Y)
    designs = Z if np.ndim(Z) == 3 else [Z] * len(Y)
    for Zi, y, fit in zip(designs, Y, fits):
        try:
            ref = irls_fit(Zi, y, cfg, beta_init)
        except NumericalError as err:
            assert isinstance(fit, NumericalError)
            assert str(fit) == str(err)
            continue
        assert isinstance(fit, RobustFit)
        assert np.array_equal(fit.beta, ref.beta)
        assert fit.sigma == ref.sigma
        for field in ("std_residuals", "huber_weights", "truncated_weights"):
            assert np.array_equal(getattr(fit, field), getattr(ref, field))
        assert fit.iterations == ref.iterations
        assert fit.converged == ref.converged
        assert (fit.tuning, fit.truncation) == (ref.tuning, ref.truncation)
    return fits


@st.composite
def refit_batches(draw):
    """A design, a warm start near the truth, and a stack of outcome rows:
    t(3) noise, some rows contaminated, and optionally one row on the warm
    start's line, whose MAD is zero at the first step."""
    n = draw(st.integers(8, 120))
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chunk = max(1, bootstrap.REFIT_CHUNK_VALUES // n)
    m = draw(st.sampled_from([1, 2, 7, chunk + 1]))
    Z = np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, (n, q - 1)) ** 2])
    if draw(st.booleans()):
        Z = np.asfortranarray(Z)
    truth = rng.normal(size=q)
    Y = Z @ truth + rng.standard_t(3, size=(m, n))
    contaminated = rng.random(m) < 0.3
    Y[contaminated, :max(1, n // 10)] += draw(st.sampled_from([8.0, 40.0]))
    beta_init = truth + rng.normal(scale=0.2, size=q)
    if m > 1 and draw(st.booleans()):
        Y[rng.integers(m)] = Z @ beta_init
    cfg = FitConfig(tuning=draw(st.sampled_from([B, 0.7])),
                    max_iterations=draw(st.sampled_from([2, 50])))
    return Z, Y, cfg, beta_init


class TestIrlsRefit:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(refit_batches())
    def test_rows_equal_irls_fit(self, batch):
        assert_rows_equal_irls_fit(*batch)

    def test_collapsed_row_fails_alone(self):
        rng = np.random.default_rng(8)
        n, q = 50, 3
        Z = np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, (n, q - 1))])
        beta_init = np.array([1.0, -2.0, 0.5])
        Y = Z @ beta_init + rng.standard_t(3, size=(6, n))
        Y[2] = Z @ beta_init
        fits = assert_rows_equal_irls_fit(Z, Y, FitConfig(), beta_init)
        assert str(fits[2]) == "degenerate scale: MAD of residuals is zero"
        rest = irls_refit(Z, np.delete(Y, 2, axis=0), FitConfig(), beta_init)
        for fit, alone in zip(fits[:2] + fits[3:], rest):
            assert np.array_equal(fit.beta, alone.beta)
            assert fit.iterations == alone.iterations

    def test_iteration_cap_leaves_rows_unconverged(self):
        rng = np.random.default_rng(9)
        n = 80
        Z = np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, n)])
        Y = Z @ [1.0, 2.0] + rng.standard_t(2, size=(12, n))
        Y[:, :8] += 30.0
        fits = assert_rows_equal_irls_fit(Z, Y, FitConfig(max_iterations=2), np.zeros(2))
        assert not any(f.converged for f in fits)
        assert all(f.iterations == 2 for f in fits)

    @pytest.mark.parametrize("column", ["duplicate", "zero", "none at all"])
    def test_singular_design_fails_every_row(self, column):
        rng = np.random.default_rng(10)
        Z = np.column_stack([np.ones(40), rng.normal(size=40), np.zeros(40)])
        if column == "duplicate":
            Z[:, 2] = Z[:, 1]
        elif column == "none at all":
            Z = Z[:, :0]
        fits = assert_rows_equal_irls_fit(Z, rng.normal(size=(3, 40)), None,
                                          np.zeros(Z.shape[1]))
        assert all(str(f) == "singular design matrix" for f in fits)

    def test_underdetermined_fails_every_row(self):
        fits = assert_rows_equal_irls_fit(np.ones((3, 3)), np.ones((2, 3)), None, np.zeros(3))
        assert all(str(f).startswith("underdetermined fit") for f in fits)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf / inf scale
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_warm_start_is_value_error(self, bad):
        rng = np.random.default_rng(5)
        Z = np.column_stack([np.ones(30), rng.normal(size=30)])
        with pytest.raises(ValueError, match="infs or NaNs"):
            irls_refit(Z, rng.normal(size=(4, 30)), None, np.array([0.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_outcome_is_value_error(self, bad):
        rng = np.random.default_rng(6)
        Z = np.column_stack([np.ones(30), rng.normal(size=30)])
        Y = rng.normal(size=(4, 30))
        Y[3, 7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            irls_refit(Z, Y, None, np.zeros(2))

    def test_shape_mismatches_rejected(self):
        Z = np.ones((10, 2))
        with pytest.raises(ValueError, match="10 design rows but 9 outcomes"):
            irls_refit(Z, np.zeros((3, 9)), None, np.zeros(2))
        with pytest.raises(ValueError, match="beta_init has 3 entries for 2 parameters"):
            irls_refit(Z, np.zeros((3, 10)), None, np.zeros(3))


@st.composite
def design_stacks(draw):
    """A stack of designs of one shape, each on its own covariates, and one
    outcome row per design: t(3) noise, some rows contaminated, and
    optionally one row on its design's line (MAD zero at the least-squares
    start) and one design with a duplicated column (singular)."""
    n = draw(st.integers(8, 120))
    q = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.sampled_from([1, 2, 7, max(1, bootstrap.REFIT_CHUNK_VALUES // n) + 1]))
    Z = np.concatenate([np.ones((m, n, 1)), rng.uniform(0.0, 1.0, (m, n, q - 1)) ** 2], axis=2)
    truth = rng.normal(size=q)
    Y = Z @ truth + rng.standard_t(3, size=(m, n))
    contaminated = rng.random(m) < 0.3
    Y[contaminated, :max(1, n // 10)] += draw(st.sampled_from([8.0, 40.0]))
    if m > 1 and draw(st.booleans()):
        i = rng.integers(m)
        Y[i] = Z[i] @ truth
    if m > 1 and q > 2 and draw(st.booleans()):
        i = rng.integers(m)
        Z[i, :, 2] = Z[i, :, 1]
    cfg = FitConfig(tuning=draw(st.sampled_from([B, 0.7])),
                    max_iterations=draw(st.sampled_from([2, 50])))
    return Z, Y, cfg


def design_stack(rng, m, n, q):
    Z = np.concatenate([np.ones((m, n, 1)), rng.uniform(0.0, 1.0, (m, n, q - 1))], axis=2)
    return Z, Z @ rng.normal(size=q) + rng.standard_t(3, size=(m, n))


class TestIrlsRefitDesignStack:
    """irls_refit on a stack of designs from least-squares starts: each row
    is irls_fit on its own design, and a row that fails leaves the batch
    without stopping the others."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(design_stacks())
    def test_rows_equal_irls_fit(self, stack):
        Z, Y, cfg = stack
        assert_rows_equal_irls_fit(Z, Y, cfg, None)

    def test_shared_design_cold_start(self):
        Z, Y = design_stack(np.random.default_rng(11), 9, 60, 3)
        assert_rows_equal_irls_fit(Z[0], Y, None, None)

    def test_row_singular_at_start_fails_alone(self):
        Z, Y = design_stack(np.random.default_rng(12), 5, 50, 3)
        Z[3, :, 2] = 2.0 * Z[3, :, 1]
        fits = assert_rows_equal_irls_fit(Z, Y, None, None)
        assert str(fits[3]) == "singular design matrix"
        assert all(isinstance(f, RobustFit) for i, f in enumerate(fits) if i != 3)

    def test_collapsed_row_fails_alone(self):
        Z, Y = design_stack(np.random.default_rng(13), 6, 50, 3)
        Y[1] = Z[1] @ [1.0, -2.0, 0.5]
        fits = assert_rows_equal_irls_fit(Z, Y, FitConfig(), None)
        assert str(fits[1]) == "degenerate scale: MAD of residuals is zero"
        assert all(isinstance(f, RobustFit) for i, f in enumerate(fits) if i != 1)

    def test_underdetermined_fails_every_row(self):
        Z, Y = design_stack(np.random.default_rng(14), 4, 5, 5)
        fits = assert_rows_equal_irls_fit(Z, Y, None, None)
        assert all(str(f).startswith("underdetermined fit") for f in fits)

    def test_iteration_cap_row_leaves_others_converging(self):
        # these rows need 9 to 17 iterations from their least-squares starts
        Z, Y = design_stack(np.random.default_rng(15), 8, 80, 2)
        fits = assert_rows_equal_irls_fit(Z, Y, FitConfig(max_iterations=12), None)
        assert {f.converged for f in fits} == {True, False}
        assert all(f.iterations == 12 for f in fits if not f.converged)

    def test_one_row_stack_is_not_copied(self):
        # the systems buffer is one stack-sized allocation; a copy of the
        # stack after the least-squares start would be a second
        Z, Y = design_stack(np.random.default_rng(17), 1, 20000, 12)
        irls_refit(Z, Y, None)
        tracemalloc.start()
        try:
            (fit,) = irls_refit(Z, Y, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and peak < 2 * Z.nbytes

    def test_design_count_must_match_rows(self):
        Z, Y = design_stack(np.random.default_rng(16), 3, 20, 2)
        with pytest.raises(ValueError, match="3 designs for 2 outcome rows"):
            irls_refit(Z, Y[:2], None)
        with pytest.raises(ValueError, match="20 design rows but 19 outcomes"):
            irls_refit(Z, Y[:, :19], None)


def reference_ols(Z, y):
    """The least-squares fit as the one-row least-squares fits computed it
    before ols_refit: scipy's QR solve, residuals y - Z @ beta and the scale
    sqrt(SSR / (n - Q))."""
    beta = wrapper_lstsq(Z, y, np.ones(y.size))
    resid = y - Z @ beta
    sigma = float(np.sqrt(resid @ resid / (y.size - Z.shape[1])))
    return beta, sigma, resid / sigma


def assert_rows_equal_ols_fit(Z, Y):
    """Each row of ols_refit equals ols_refit of that row and its design
    alone, bit for bit, or the same NumericalError; each fit also
    equals the reference computation."""
    fits = ols_refit(Z, Y)
    assert len(fits) == len(Y)
    designs = Z if np.ndim(Z) == 3 else [Z] * len(Y)
    for Zi, y, fit in zip(designs, Y, fits):
        try:
            ref = ols_fit(Zi, y)
        except NumericalError as err:
            assert isinstance(fit, NumericalError)
            assert str(fit) == str(err)
            continue
        assert_same_fit(fit, ref)
        beta, sigma, eps = reference_ols(Zi, y)
        assert np.array_equal(fit.beta, beta) and fit.sigma == sigma
        assert np.array_equal(fit.std_residuals, eps)
        assert (fit.iterations, fit.converged) == (0, True)
        assert (fit.tuning, fit.truncation) == (np.inf, np.inf)
        assert np.array_equal(fit.huber_weights, np.ones(y.size))
        assert np.array_equal(fit.truncated_weights, np.ones(y.size))
    return fits


class TestOlsRefit:
    """ols_refit on a shared design or a stack: each row is its one-row
    fit, and a failed row leaves the others."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(design_stacks())
    def test_rows_equal_ols_fit(self, stack):
        Z, Y, _ = stack
        assert_rows_equal_ols_fit(Z, Y)
        assert_rows_equal_ols_fit(Z[0], Y)

    def test_singular_and_interpolating_rows_fail_alone(self):
        Z, Y = design_stack(np.random.default_rng(18), 6, 40, 3)
        Z[1, :, 2] = Z[1, :, 1]
        Y[4] = Z[4] @ [1.0, -2.0, 0.5]
        fits = assert_rows_equal_ols_fit(Z, Y)
        assert str(fits[1]) == "singular design matrix"
        assert str(fits[4]) == "degenerate scale: zero residual variance"
        assert all(isinstance(f, RobustFit) for i, f in enumerate(fits) if i not in (1, 4))
        # on the shared design the same rows fail, and only the line
        fits = assert_rows_equal_ols_fit(Z[4], Y)
        assert [i for i, f in enumerate(fits) if isinstance(f, NumericalError)] == [4]

    def test_underdetermined_fails_every_row(self):
        Z, Y = design_stack(np.random.default_rng(19), 3, 4, 4)
        for design in (Z, Z[0]):
            fits = assert_rows_equal_ols_fit(design, Y)
            assert all(str(f) == "underdetermined fit: n=4 rows for 4 parameters" for f in fits)

    def test_no_rows(self):
        assert ols_refit(np.ones((5, 2)), np.empty((0, 5))) == []

    def test_checks_are_irls_refits(self):
        Z, Y = design_stack(np.random.default_rng(20), 3, 20, 2)
        for refit in (ols_refit, lambda Z, Y: irls_refit(Z, Y, None)):
            with pytest.raises(ValueError, match="3 designs for 2 outcome rows"):
                refit(Z, Y[:2])
            with pytest.raises(ValueError, match="20 design rows but 19 outcomes"):
                refit(Z, Y[:, :19])
            Y[1, 3] = np.nan
            with pytest.raises(ValueError, match="infs or NaNs"):
                refit(Z, Y)
            Y[1, 3] = 0.0
