"""Tests for Huber loss pieces, MAD scale, OLS, and the IRLS fitter."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from robroc import bootstrap, huber
from robroc.errors import NumericalError
from robroc.huber import (FitConfig, RobustFit, huber_psi, huber_weight, irls_fit,
                          irls_refit, mad_scale, ols_as_robust_fit, ols_fit)

B = 1.345


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
            assert isinstance(mad_scale(r), float)

    def test_input_left_unchanged(self):
        r = np.array([3.0, -1.0, 2.0, -5.0])
        mad_scale(r)
        np.testing.assert_array_equal(r, [3.0, -1.0, 2.0, -5.0])


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


class TestScaledLstsq:
    """The IRLS step: _lstsq on the row-scaled system sqrt(w) Z, sqrt(w) y."""

    @pytest.mark.parametrize("n, q", [(n, q) for n in (5, 13, 300, 4000, 20000)
                                      for q in (1, 2, 4, 8, 12) if q < n])
    def test_bit_identical_to_scipy_wrappers(self, n, q):
        rng = np.random.default_rng(1000 * n + q)
        for _ in range(3):
            Z = rng.normal(size=(n, q)) * rng.uniform(0.01, 100.0, size=q)
            Z[:, 0] = 1.0
            y = rng.standard_t(3, size=n) * 10.0
            w = huber_weight(rng.standard_t(2, size=n), B)
            sw = np.sqrt(w)
            assert np.array_equal(huber._lstsq(Z * sw[:, None], y * sw),
                                  wrapper_lstsq(Z, y, w))
            assert np.array_equal(ols_fit(Z, y)[0], wrapper_lstsq(Z, y, np.ones(n)))

    @pytest.mark.parametrize("column", ["duplicate", "zero"])
    def test_singular_design_rejected(self, column):
        rng = np.random.default_rng(2)
        Z = np.column_stack([np.ones(40), rng.normal(size=40), np.zeros(40)])
        if column == "duplicate":
            Z[:, 2] = Z[:, 1]
        with pytest.raises(NumericalError, match="singular"):
            huber._lstsq(Z, rng.normal(size=40))

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
        for _ in range(3):
            huber._lstsq(rng.normal(size=(50, 3)), rng.normal(size=50))
        huber._lstsq(rng.normal(size=(60, 3)), rng.normal(size=60))
        info = huber._workspace.cache_info()
        assert (info.misses, info.hits) == (2, 2)


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


def assert_rows_equal_irls_fit(Z, Y, cfg, beta_init):
    """Each row of irls_refit equals irls_fit on that row: the same fit bit
    for bit, or a NumericalError with the same message."""
    fits = irls_refit(Z, Y, cfg, beta_init)
    assert len(fits) == len(Y)
    for y, fit in zip(Y, fits):
        try:
            ref = irls_fit(Z, y, cfg, beta_init)
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
