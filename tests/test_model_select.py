"""Tests for the robust AIC and exhaustive knot-count selection."""

import numpy as np
import pytest

from robroc.data import GroupSample
from robroc.errors import NumericalError
from robroc.huber import FitConfig, RobustFit, irls_fit
from robroc.model_select import (default_candidates, knot_grid, raic,
                                 raic_penalty, select_knots)
from robroc.splines import SplineSpec


def hand_fit(u, sigma=1.0, q=1) -> RobustFit:
    u = np.asarray(u, dtype=float)
    n = u.size
    return RobustFit(beta=np.zeros(q), sigma=sigma, std_residuals=u,
                     huber_weights=np.ones(n), truncated_weights=np.ones(n),
                     iterations=1, converged=True)


def noise_sample(rng, n, p=1, label="nondiseased") -> GroupSample:
    """Covariates carry no signal: the smallest model is correct."""
    x = rng.uniform(0.0, 1.0, size=(n, p))
    y = rng.normal(2.0, 1.0, size=n)
    return GroupSample(outcomes=y, covariates=x, label=label)


class TestRaicValues:
    def test_perfect_fit_scores_zero(self):
        rng = np.random.default_rng(101)
        Z = rng.normal(size=(8, 3))
        fit = hand_fit(np.zeros(8), sigma=1.0, q=3)
        assert raic_penalty(fit, Z) == 0.0
        assert raic(fit, Z) == (0.0, 0.0)

    def test_common_residual_magnitude(self):
        # all |u| = c inside the band: U = c^2 J, so the trace is c^2 Q
        rng = np.random.default_rng(103)
        Z = rng.normal(size=(10, 4))
        u = 0.5 * np.array([1, -1] * 5, dtype=float)
        fit = hand_fit(u, sigma=1.0, q=4)
        assert raic_penalty(fit, Z) == pytest.approx(0.25 * 4, abs=1e-10)
        assert raic(fit, Z)[0] == pytest.approx(4.0, abs=1e-10)

    def test_scalar_design_by_hand(self):
        # J = (1 + 0)/2, U = (0.5^2 + 1.345^2)/2, trace = U/J
        fit = hand_fit([0.5, 3.0], sigma=1.0, q=1)
        Z = np.ones((2, 1))
        assert raic_penalty(fit, Z) == pytest.approx(2.059025, abs=1e-12)
        assert raic(fit, Z)[0] == pytest.approx(8.2361, abs=1e-12)

    def test_sigma_enters_only_through_log_term(self):
        rng = np.random.default_rng(107)
        Z = rng.normal(size=(12, 3))
        u = rng.uniform(-1.2, 1.2, size=12)
        base = hand_fit(u, sigma=1.0, q=3)
        scaled = hand_fit(u, sigma=2.0, q=3)
        assert raic_penalty(scaled, Z) == pytest.approx(raic_penalty(base, Z),
                                                        rel=1e-12)
        assert raic(scaled, Z)[0] == pytest.approx(
            raic(base, Z)[0] + 2.0 * 12 * np.log(2.0), rel=1e-12)

    def test_all_residuals_outside_band(self):
        fit = hand_fit([3.0, 4.0], sigma=1.0, q=1)
        with pytest.raises(NumericalError, match="information matrix singular"):
            raic_penalty(fit, np.ones((2, 1)))

    def test_collinear_design_rejected(self):
        Z = np.column_stack([np.ones(6), np.ones(6)])
        fit = hand_fit(np.full(6, 0.5), sigma=1.0, q=2)
        with pytest.raises(NumericalError, match="information matrix singular"):
            raic_penalty(fit, Z)

    def test_nearly_collinear_design_rejected(self):
        # the factor exists, but its last pivot is below 1e-10 of J's diagonal
        x = np.linspace(0.0, 1.0, 20)
        Z = np.column_stack([np.ones(20), 1.0 + 1e-7 * x])
        np.linalg.cholesky(Z.T @ Z)
        fit = hand_fit(np.full(20, 0.5), sigma=1.0, q=2)
        with pytest.raises(NumericalError, match="information matrix singular"):
            raic_penalty(fit, Z)

    @pytest.mark.parametrize("q", range(1, 14))
    def test_penalty_matches_explicit_inverse(self, q):
        # q = 7 and 13 are the shapes of the study workload's candidates
        rng = np.random.default_rng(200 + q)
        n = 150
        Z = np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, (n, q - 1)) ** 3])
        u = rng.standard_t(3, size=n)
        fit = hand_fit(u, sigma=0.7, q=q)
        inside = (np.abs(u) <= fit.tuning).astype(float)
        psi = np.clip(u, -fit.tuning, fit.tuning)
        J = (Z * inside[:, None]).T @ Z / (n * 0.49)
        U = (Z * (psi ** 2)[:, None]).T @ Z / (n * 0.49)
        expected = np.trace(np.linalg.inv(J) @ U)
        assert raic_penalty(fit, Z) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(109)
        Z = rng.normal(size=(12, 3))
        u = rng.uniform(-2.0, 2.0, size=12)
        fit = hand_fit(u, sigma=1.3, q=3)
        perm = rng.permutation(12)
        fit_perm = hand_fit(u[perm], sigma=1.3, q=3)
        assert raic(fit_perm, Z[perm])[0] == pytest.approx(raic(fit, Z)[0], rel=1e-10)


class TestCandidateGrids:
    def test_knot_grid_is_lexicographic(self):
        assert knot_grid([[0, 1], [0, 2]]) == [(0, 0), (0, 2), (1, 0), (1, 2)]

    def test_default_candidates(self):
        cands = default_candidates(2, max_interior=1)
        assert cands == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(default_candidates(1)) == 5


class TestSelectKnots:
    def test_singleton_candidate(self):
        rng = np.random.default_rng(113)
        sample = noise_sample(rng, 60)
        report = select_knots(sample, [0])
        assert report.selected == 0
        best = report.best
        assert best.n_interior == (0,)
        assert best.error is None
        assert np.isfinite(best.raic)
        assert best.penalty > 0.0
        assert best.sigma == best.fit.sigma

    def test_report_matches_direct_raic(self):
        rng = np.random.default_rng(127)
        sample = noise_sample(rng, 80)
        report = select_knots(sample, [0, 1, 2])
        for cand in report.candidates:
            Z = cand.spec.matrix(sample.covariates)
            assert (cand.raic, cand.penalty) == raic(cand.fit, Z)

    def test_int_broadcasts_across_covariates(self):
        rng = np.random.default_rng(131)
        sample = noise_sample(rng, 70, p=2)
        report = select_knots(sample, [0, 3])
        assert [c.n_interior for c in report.candidates] == [(0, 0), (3, 3)]

    def test_wrong_length_vector_rejected(self):
        rng = np.random.default_rng(137)
        sample = noise_sample(rng, 40, p=2)
        with pytest.raises(ValueError):
            select_knots(sample, [(0, 1, 2)])
        with pytest.raises(ValueError):
            select_knots(sample, [])

    def test_failed_candidate_recorded(self):
        rng = np.random.default_rng(139)
        sample = noise_sample(rng, 25)
        report = select_knots(sample, [0, 30])  # 30 knots need 34 rows
        assert report.best.n_interior == (0,)
        failed = report.candidates[1]
        assert failed.error is not None
        assert "underdetermined" in failed.error
        assert np.isnan(failed.raic)

    def test_all_candidates_failing(self):
        rng = np.random.default_rng(149)
        sample = noise_sample(rng, 5)
        with pytest.raises(NumericalError, match="every candidate fit failed"):
            select_knots(sample, [10, 20])

    def test_candidate_order_does_not_change_winner(self):
        rng = np.random.default_rng(151)
        sample = noise_sample(rng, 90)
        forward = select_knots(sample, [0, 1, 2, 3])
        backward = select_knots(sample, [3, 2, 1, 0])
        assert forward.best.n_interior == backward.best.n_interior
        assert forward.best.raic == pytest.approx(backward.best.raic, rel=1e-12)

    def test_prefers_small_model_on_pure_noise(self):
        rng = np.random.default_rng(157)
        wins = 0
        for _ in range(50):
            sample = noise_sample(rng, 120)
            report = select_knots(sample, [0, 2])
            wins += report.best.n_interior == (0,)
        assert wins > 25

    def test_custom_config_is_used(self):
        rng = np.random.default_rng(163)
        sample = noise_sample(rng, 60)
        report = select_knots(sample, [0], config=FitConfig(max_iterations=1))
        assert report.best.fit.iterations == 1
