"""Tests for ROC curves, closed-form and integrated AUC, and Youden index."""

import numpy as np
import pytest

from conftest import (assert_same_group, binary_samples, point_auc, point_roc, point_youden,
                      reference_fit_pair, row_means)
from robroc.data import GroupSample
from robroc.errors import NumericalError
from robroc.huber import FitConfig, RobustFit, irls_fit
from robroc.roc import (GroupStack, PopulationPair, auc_closed_form, auc_grid, auc_simpson,
                        composite_simpson, evaluate, evaluate_stack, fit_pair, GroupFit,
                        robust_unconditional_auc, roc_curve, roc_values,
                        unconditional_auc, youden_index)
from robroc.simulate import generate, scenario
from robroc.splines import SplineSpec
from robroc.wecdf import WeightedEcdf

X0 = np.array([0.0])


def hand_group(values, weights=None, sigma=1.0) -> GroupFit:
    """Group whose adjusted values at x=0 are exactly the given values (for
    the default sigma)."""
    v = np.asarray(values, dtype=float)
    n = v.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    fit = RobustFit(beta=np.zeros(2), sigma=sigma, std_residuals=v,
                    huber_weights=np.ones(n), truncated_weights=w,
                    iterations=1, converged=True)
    return GroupFit(fit, SplineSpec((None,)))


def hand_pair(nd_values, d_values, nd_weights=None, d_weights=None):
    return PopulationPair(
        nondiseased=hand_group(nd_values, nd_weights),
        diseased=hand_group(d_values, d_weights),
    )


def linear_samples(rng, n_nd, n_d):
    """One draw of linear location-scale data in both groups."""
    x_nd = rng.uniform(0, 1, n_nd)
    y_nd = 0.5 + x_nd + rng.normal(0, 1.5, n_nd)
    x_d = rng.uniform(0, 1, n_d)
    y_d = 2.0 + 4.0 * x_d + rng.normal(0, 2.0, n_d)
    nd = GroupSample(outcomes=y_nd, covariates=x_nd[:, None], label="nondiseased")
    d = GroupSample(outcomes=y_d, covariates=x_d[:, None], label="diseased")
    return nd, d


def predict_mean(fit, design, x) -> float:
    """The fitted mean at one covariate point: its design row's 1-D product
    with the coefficients."""
    return float(design.matrix(np.atleast_1d(np.asarray(x, dtype=float))[None])[0] @ fit.beta)


def adjusted_values(pair, x):
    """Each group's values mu_hat(x) + sigma_hat * eps_hat_i, computed from
    the fitted mean and the residual support."""
    return [predict_mean(g.fit, g.design, x) + g.fit.sigma * g.ecdf.support
            for g in (pair.nondiseased, pair.diseased)]


def brute_force_auc(nd_vals, nd_w, d_vals, d_w):
    total = 0.0
    for vj, wj in zip(d_vals, d_w):
        for vi, wi in zip(nd_vals, nd_w):
            if vi <= vj:
                total += wi * wj
    return total / (np.sum(nd_w) * np.sum(d_w))


def exact_step_integral(pair, x):
    """Integrate ROC(. | x) exactly: it is constant between the points where
    the nondiseased quantile jumps, i.e. at t = 1 - (cumulative fraction)."""
    fr = pair.nondiseased.ecdf.cum_weights / pair.nondiseased.ecdf.total
    breaks = np.unique(np.concatenate([[0.0, 1.0], 1.0 - fr]))
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    return float(np.diff(breaks) @ roc_values(pair, x, mids))


class TestPredictMean:
    def test_constant_model(self):
        fit = RobustFit(beta=np.array([4.2, 0.0]), sigma=1.0,
                        std_residuals=np.zeros(3), huber_weights=np.ones(3),
                        truncated_weights=np.ones(3), iterations=1,
                        converged=True)
        design = SplineSpec((None,))
        for x in (-5.0, 0.0, 17.3):
            assert predict_mean(fit, design, [x]) == 4.2

    def test_training_row_identity(self):
        rng = np.random.default_rng(51)
        nd, _ = linear_samples(rng, 40, 40)
        pair = fit_pair(nd, nd, 1)
        gf = pair.nondiseased
        for j in range(nd.n):
            fitted = predict_mean(gf.fit, gf.design, nd.covariates[j])
            assert fitted == pytest.approx(
                nd.outcomes[j] - gf.fit.sigma * gf.fit.std_residuals[j],
                abs=1e-10)

    def test_recovers_linear_truth(self):
        # average over replicates: a single cubic fit has edge noise ~0.08
        rng = np.random.default_rng(53)
        grid = np.linspace(0.1, 0.9, 21)
        curves = []
        for _ in range(60):
            nd, _ = linear_samples(rng, 500, 10)
            gf = fit_pair(nd, nd, 0).nondiseased
            curves.append([predict_mean(gf.fit, gf.design, [x]) for x in grid])
        mean_curve = np.mean(curves, axis=0)
        assert np.max(np.abs(mean_curve - (0.5 + grid))) < 0.05


def with_binary_column(sample, seed):
    rng = np.random.default_rng(seed)
    cat = (rng.random(sample.n) < 0.4).astype(float)
    return GroupSample(outcomes=sample.outcomes, label=sample.label,
                       covariates=np.column_stack([sample.covariates, cat]))


X_LINE = np.linspace(0.0, 1.0, 30)


class TestFitPairEqualsReference:
    """fit_pair, the one-row stack of design_stack and irls_refit, equals the
    per-sample route it replaced bit for bit: each group's fit, spec,
    residual distribution and label, or the same error."""

    @pytest.mark.parametrize("knots", [0, 1, 2])
    @pytest.mark.parametrize("name", ["I", "III", "IV"])
    def test_scenarios(self, name, knots):
        samples = generate(scenario(name, contamination=0.05), 150, 90, seed=knots)
        got = fit_pair(*samples, knots)
        want = reference_fit_pair(*samples, knots)
        for g, w in zip((got.nondiseased, got.diseased), (want.nondiseased, want.diseased)):
            assert_same_group(g, w)

    @pytest.mark.parametrize("knots, config", [
        ((2, None), None), ((None, None), None), ((0, None), FitConfig(tuning=0.7)),
        ((1, None), FitConfig(max_iterations=2)),
    ], ids=["cat-2-knots", "all-passthrough", "cat-tuning", "cat-iteration-cap"])
    def test_passthrough_column_and_config(self, knots, config):
        nd, d = (with_binary_column(s, seed) for seed, s in
                 enumerate(generate(scenario("III", contamination=0.1), 120, 80, seed=4)))
        got = fit_pair(nd, d, knots, config)
        want = reference_fit_pair(nd, d, knots, config)
        for g, w in zip((got.nondiseased, got.diseased), (want.nondiseased, want.diseased)):
            assert_same_group(g, w)

    @pytest.mark.parametrize("samples, knots, message", [
        (generate(scenario("IV"), 60, 8, seed=1), 2, "underdetermined"),
        ((GroupSample(outcomes=1.0 + 2.0 * X_LINE, covariates=X_LINE),) * 2, 0,
         "degenerate scale"),
        ((GroupSample(outcomes=X_LINE, covariates=np.ones(30)),) * 2, 1, "constant covariate"),
        (generate(scenario("IV"), 40, 30, seed=2), [1, 2, 3], "3 knot counts"),
    ], ids=["underdetermined", "collapsed-scale", "constant-column", "knot-count-mismatch"])
    def test_errors(self, samples, knots, message):
        with pytest.raises(Exception, match=message) as want:
            reference_fit_pair(*samples, knots)
        with pytest.raises(want.type) as got:
            fit_pair(*samples, knots)
        assert got.type is want.type and str(got.value) == str(want.value)


class TestRocAndClosedFormAuc:
    def test_two_point_groups(self):
        pair = hand_pair([0.0, 2.0], [1.0, 3.0])
        assert auc_closed_form(pair, X0) == pytest.approx(0.75, abs=1e-12)

    def test_complete_separation(self):
        pair = hand_pair([0.0, 1.0], [5.0, 6.0])
        assert auc_closed_form(pair, X0) == 1.0
        t = np.linspace(0.01, 1.0, 50)
        np.testing.assert_array_equal(roc_values(pair, X0, t), np.ones(50))

    def test_complete_reversal(self):
        pair = hand_pair([5.0, 6.0], [0.0, 1.0])
        assert auc_closed_form(pair, X0) == 0.0
        t = np.linspace(0.0, 0.99, 50)
        np.testing.assert_array_equal(roc_values(pair, X0, t), np.zeros(50))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_identical_groups(self, n):
        values = np.arange(1.0, n + 1.0)
        pair = hand_pair(values, values)
        assert auc_closed_form(pair, X0) == pytest.approx((n + 1) / (2 * n),
                                                          abs=1e-12)

    def test_weighted_brute_force_oracle(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            n, m = rng.integers(2, 12, size=2)
            # integer support forces ties within and across groups
            nd_vals = rng.integers(0, 6, size=n).astype(float)
            d_vals = rng.integers(0, 6, size=m).astype(float)
            nd_w = rng.uniform(0.1, 2.0, size=n)
            d_w = rng.uniform(0.1, 2.0, size=m)
            pair = hand_pair(nd_vals, d_vals, nd_w, d_w)
            expected = brute_force_auc(nd_vals, nd_w, d_vals, d_w)
            assert auc_closed_form(pair, X0) == pytest.approx(expected, abs=1e-12)

    def test_curve_monotone_within_bounds(self):
        rng = np.random.default_rng(61)
        nd, d = linear_samples(rng, 35, 30)
        pair = fit_pair(nd, d, 0)
        result = roc_curve(pair, [0.4])
        assert result.t_grid.size == 201
        assert np.all(np.diff(result.roc_values) >= 0)
        assert result.roc_values.min() >= 0.0
        assert result.roc_values.max() <= 1.0
        assert 0.0 <= result.auc_closed_form <= 1.0
        np.testing.assert_array_equal(result.x, [0.4])

    def test_bad_t_rejected(self):
        pair = hand_pair([0.0, 1.0], [1.0, 2.0])
        for t in ([-0.2], [1.2], [np.nan], [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"t values must lie in \[0, 1\]"):
                roc_values(pair, X0, t)

    def test_location_scale_invariance_of_auc(self):
        rng = np.random.default_rng(63)
        cfg = FitConfig(tol=1e-12)
        nd, d = linear_samples(rng, 45, 40)
        base = fit_pair(nd, d, 0, config=cfg)
        x = np.array([0.5])
        for a, s in ((10.0, 3.0), (-4.0, 0.25)):
            nd2 = GroupSample(outcomes=a + s * nd.outcomes,
                              covariates=nd.covariates, label=nd.label)
            d2 = GroupSample(outcomes=a + s * d.outcomes,
                             covariates=d.covariates, label=d.label)
            moved = fit_pair(nd2, d2, 0, config=cfg)
            assert auc_closed_form(moved, x) == pytest.approx(
                auc_closed_form(base, x), abs=1e-10)

    def test_covariate_affine_invariance_of_auc(self):
        rng = np.random.default_rng(67)
        cfg = FitConfig(tol=1e-12)
        nd, d = linear_samples(rng, 45, 40)
        base = fit_pair(nd, d, 2, config=cfg)
        shift, scale = 3.0, 2.0
        nd2 = GroupSample(outcomes=nd.outcomes,
                          covariates=(nd.covariates - shift) / scale,
                          label=nd.label)
        d2 = GroupSample(outcomes=d.outcomes,
                         covariates=(d.covariates - shift) / scale,
                         label=d.label)
        moved = fit_pair(nd2, d2, 2, config=cfg)
        x = np.array([0.5])
        assert auc_closed_form(moved, (x - shift) / scale) == pytest.approx(
            auc_closed_form(base, x), abs=1e-10)


def tied_samples(scn, n_nd, n_d, seed):
    """A scenario draw with outcomes rounded to integers, so adjusted values
    tie within and across groups at many points."""
    return [GroupSample(outcomes=np.round(s.outcomes), covariates=s.covariates, label=s.label)
            for s in generate(scn, n_nd, n_d, seed=seed)]


class TestEvaluate:
    T = np.linspace(0.0, 1.0, 51)

    @pytest.mark.parametrize("contamination", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize("name", ["I", "III", "IV"])
    def test_equals_per_point_reference(self, name, contamination):
        # every point of a grid with repeated points, on fits with 0-2 knots
        # and with integer-tied outcomes, gives the per-point evaluators'
        # AUC, ROC and Youden bit for bit
        scn = scenario(name, contamination=contamination)
        for knots in (0, 1, 2):
            for tied in (False, True):
                seed = 10 * knots + tied
                samples = (tied_samples(scn, 200, 100, seed) if tied
                           else generate(scn, 200, 100, seed=seed))
                pair = fit_pair(*samples, knots)
                grid = scn.default_grid(21)
                grid = grid[pair.nondiseased.design.covers(grid) & pair.diseased.design.covers(grid)]
                grid = np.concatenate([grid, grid[::3], grid[:1]])
                rows = pair.design_rows(grid)
                auc, roc, youden = evaluate(pair, *rows, self.T, youden=True)
                assert auc.shape == (len(grid),)
                assert roc.shape == (len(grid), self.T.size)
                assert youden.shape == (len(grid), 2)
                for k, mu in enumerate(zip(*(row_means(g.fit, r) for g, r in
                                             zip((pair.nondiseased, pair.diseased), rows)))):
                    assert auc[k] == point_auc(pair, *mu)
                    assert np.array_equal(roc[k], point_roc(pair, *mu, self.T))
                    assert tuple(youden[k]) == point_youden(pair, *mu)

    @pytest.mark.parametrize("name, knots", [("I", 0), ("III", 2), ("IV", [1, 0])])
    def test_auc_against_double_loop_over_observations(self, name, knots):
        scn = scenario(name, contamination=0.05)
        pair = fit_pair(*tied_samples(scn, 60, 40, 3), knots)
        grid = scn.default_grid(5)
        grid = grid[pair.nondiseased.design.covers(grid) & pair.diseased.design.covers(grid)]
        auc = evaluate(pair, *pair.design_rows(grid))[0]
        groups = (pair.nondiseased, pair.diseased)
        for k, x in enumerate(grid):
            nd_vals, d_vals = (predict_mean(g.fit, g.design, x) + g.fit.sigma * g.fit.std_residuals
                               for g in groups)
            expected = brute_force_auc(nd_vals, pair.nondiseased.fit.truncated_weights,
                                       d_vals, pair.diseased.fit.truncated_weights)
            assert auc[k] == pytest.approx(expected, abs=1e-12)

    def test_zero_points(self):
        for pair in (hand_pair([0.0, 2.0, 2.0], [1.0, 3.0]),
                     fit_pair(*generate(scenario("I"), 40, 30, seed=2), 1)):
            auc, roc, youden = evaluate(pair, *pair.design_rows(np.empty((0, 1))), self.T,
                                        youden=True)
            assert auc.shape == (0,) and roc.shape == (0, self.T.size) and youden.shape == (0, 2)
            assert auc.dtype == roc.dtype == youden.dtype == np.float64

    def test_requested_parts_only(self):
        pair = hand_pair([0.0, 2.0], [1.0, 3.0])
        auc, roc, youden = evaluate(pair, *pair.design_rows(np.zeros((3, 1))))
        assert np.array_equal(auc, [0.75, 0.75, 0.75])
        assert roc is None and youden is None

    def test_error_order(self):
        rows = np.zeros((2, 2))
        for sigma in (1.0, 0.0, -1.0):
            pair = PopulationPair(hand_group([0.0, 1.0]), hand_group([1.0, 2.0], sigma=sigma))
            # point counts that differ are a usage error before anything else
            for t, youden in ((None, False), (self.T, False), (None, True), ([1.5], True)):
                for k_nd, k_d in ((5, 3), (0, 2)):
                    with pytest.raises(ValueError, match=f"^{k_nd} nondiseased design rows "
                                       f"but {k_d} diseased$"):
                        evaluate(pair, np.zeros((k_nd, 2)), np.zeros((k_d, 2)), t, youden=youden)
            if sigma > 0.0:
                continue
            # a bad t is a usage error before the scale is looked at
            with pytest.raises(ValueError, match=r"t values must lie in \[0, 1\]"):
                evaluate(pair, rows, rows, [0.5, 1.5], youden=True)
            for t, youden in ((None, False), (self.T, False), (None, True)):
                with pytest.raises(NumericalError, match="degenerate scale in fitted pair"):
                    evaluate(pair, rows, rows, t, youden=youden)
            with pytest.raises(NumericalError, match="degenerate scale in fitted pair"):
                auc_closed_form(pair, X0)

    def test_stack_equals_each_pair_alone(self):
        # pairs with tied and untied outcomes, so their residual supports
        # differ in length, each at its own design rows and at shared ones
        pairs = [fit_pair(*binary_samples(seed, 70, 50, tied=seed % 2), [None])
                 for seed in range(5)]
        grid = np.array([[0.0], [1.0], [1.0]])
        groups = [GroupStack.from_fits([getattr(p, g).fit for p in pairs])
                  for g in ("nondiseased", "diseased")]
        assert len({p.nondiseased.ecdf.support.size for p in pairs}) > 1
        own = [np.array(rows) for rows in zip(*(p.design_rows(grid) for p in pairs))]
        shared = pairs[0].design_rows(grid)
        for rows, rows_of in ((own, lambda i: [r[i] for r in own]), (shared, lambda i: shared)):
            values = evaluate_stack(*groups, *rows, self.T, youden=True)
            for i, pair in enumerate(pairs):
                for got, want in zip(values, evaluate(pair, *rows_of(i), self.T, youden=True)):
                    assert got[i].tobytes() == want.tobytes()

    def test_stack_of_hand_fits_equals_each_pair_alone(self):
        # non-unit weights and supports of unequal lengths, so that a dot or
        # sum over a padded row would round differently.  The first pair's
        # top nondiseased value does not survive the round trip
        # (mu + sigma * e - mu) / sigma, so all its Youden objectives are
        # negative and a padding candidate, whose objective is 0, must not count
        rng = np.random.default_rng(83)
        mu, sigma, top = 2.132715515343598, 7.322015953741584, 0.261749948792537
        assert ((mu + sigma * top) - mu) / sigma < top

        def fit(intercept, scale, residuals):
            n = residuals.size
            return RobustFit(beta=np.array([intercept, 0.0]), sigma=scale,
                             std_residuals=residuals, huber_weights=np.ones(n),
                             truncated_weights=rng.uniform(0.2, 1.8, n), iterations=1,
                             converged=True)

        nd = [fit(mu, sigma, np.tile([-1.0, -0.5, top], 10)), fit(0.5, 1.3, rng.normal(size=30)),
              fit(0.5, 1.3, rng.normal(size=30))]
        d = [fit(-100.0, 1.0, rng.integers(-10, 11, 45).astype(float)),
             fit(1.5, 0.8, rng.normal(size=45)),
             fit(1.5, 0.3, rng.integers(-10, 11, 45).astype(float))]
        rows = np.array([[1.0, 0.0], [1.0, 0.4]])
        values = evaluate_stack(GroupStack.from_fits(nd), GroupStack.from_fits(d), rows, rows,
                                self.T, youden=True)
        assert values[2][0, 0, 0] < 0.0
        for i in range(3):
            pair = PopulationPair(*(GroupFit(f, SplineSpec((None,))) for f in (nd[i], d[i])))
            for got, want in zip(values, evaluate(pair, rows, rows, self.T, youden=True)):
                assert got[i].tobytes() == want.tobytes()

    def test_roc_curve_equals_its_parts(self):
        nd, d = generate(scenario("III", contamination=0.05), 80, 60, seed=5)
        pair = fit_pair(nd, d, 1)
        x = np.array([0.3])
        result = roc_curve(pair, x, self.T, n_panels=40)
        assert np.array_equal(result.roc_values, roc_values(pair, x, self.T))
        assert result.auc_closed_form == auc_closed_form(pair, x)
        assert result.auc_simpson == auc_simpson(pair, x, 40)


class TestExactIntegralIdentity:
    def test_hand_pairs_tie_free(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            n, m = rng.integers(2, 21, size=2)
            vals = rng.normal(size=n + m)
            assert np.unique(vals).size == n + m
            pair = hand_pair(vals[:n], vals[n:],
                             rng.uniform(0.2, 2.0, size=n),
                             rng.uniform(0.2, 2.0, size=m))
            diff = abs(exact_step_integral(pair, X0) - auc_closed_form(pair, X0))
            assert diff <= 1e-10

    def test_fitted_pairs_tie_free(self):
        rng = np.random.default_rng(73)
        for _ in range(8):
            nd, d = linear_samples(rng, 18, 15)
            pair = fit_pair(nd, d, 0)
            union = np.concatenate([pair.nondiseased.ecdf.support,
                                    pair.diseased.ecdf.support])
            assert np.unique(union).size == union.size
            x = np.array([0.5])
            diff = abs(exact_step_integral(pair, x) - auc_closed_form(pair, x))
            assert diff <= 1e-10


class TestSimpson:
    def test_exact_on_low_degree_polynomials(self):
        t = np.linspace(0.0, 1.0, 11)
        assert composite_simpson(t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert composite_simpson(t ** 2, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-15)
        assert composite_simpson(t ** 3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_general_interval(self):
        x = np.linspace(2.0, 4.0, 21)
        assert composite_simpson(x, 2.0, 4.0) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_odd_or_missing_panels_rejected(self, size):
        with pytest.raises(ValueError):
            composite_simpson(np.zeros(size), 0.0, 1.0)

    def test_minimal_panel_count(self):
        t = np.array([0.0, 0.5, 1.0])
        assert composite_simpson(t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_agreement_with_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            nd, d = linear_samples(rng, 45, 35)
            pair = fit_pair(nd, d, 0)
            x = np.array([0.5])
            assert abs(auc_simpson(pair, x, 2000)
                       - auc_closed_form(pair, x)) < 1e-3


class TestYouden:
    def test_two_point_groups(self):
        yi, c = youden_index(hand_pair([0.0, 2.0], [1.0, 3.0]), X0)
        assert yi == pytest.approx(0.5, abs=1e-12)
        assert c == 0.0

    def test_identical_distributions(self):
        values = [1.0, 2.0, 5.0]
        yi, c = youden_index(hand_pair(values, values), X0)
        assert yi == 0.0
        assert c == 1.0  # smallest candidate attains the all-zero objective

    def test_complete_separation(self):
        yi, c = youden_index(hand_pair([0.0, 1.0], [5.0, 6.0]), X0)
        assert yi == 1.0
        assert c == 1.0  # smallest candidate where the gap reaches 1

    def test_dense_grid_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            n, m = rng.integers(2, 10, size=2)
            pair = hand_pair(rng.normal(size=n), rng.normal(size=m),
                             rng.uniform(0.2, 2, size=n),
                             rng.uniform(0.2, 2, size=m))
            yi, c = youden_index(pair, X0)
            grid = np.union1d(*adjusted_values(pair, X0))
            assert c in grid
            dense = np.unique(np.concatenate(
                [grid, (grid[:-1] + grid[1:]) / 2, grid - 1e-6, grid + 1e-6]))
            objective = (pair.nondiseased.ecdf.cdf(dense)
                         - pair.diseased.ecdf.cdf(dense))
            assert yi == pytest.approx(objective.max(), abs=1e-12)
            attained = dense[np.abs(objective - objective.max()) < 1e-12]
            assert c <= attained.min() + 1e-9

    def test_threshold_is_an_adjusted_value_of_a_fit(self):
        nd, d = linear_samples(np.random.default_rng(59), 30, 30)
        pair = fit_pair(nd, d, 0)
        x = np.array([0.5])
        assert youden_index(pair, x)[1] in np.union1d(*adjusted_values(pair, x))


class TestUnconditionalAuc:
    def test_single_tied_pair(self):
        assert unconditional_auc([1.0], [1.0]) == 0.5

    def test_half_credit_for_ties(self):
        assert unconditional_auc([0.0, 1.0], [1.0, 2.0]) == pytest.approx(
            0.875, abs=1e-12)

    def test_complete_separation(self):
        assert unconditional_auc([0.0, 1.0], [2.0, 3.0]) == 1.0

    def test_brute_force_oracle_with_ties(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            n, m = rng.integers(2, 16, size=2)
            y_nd = rng.integers(0, 5, size=n).astype(float)
            y_d = rng.integers(0, 5, size=m).astype(float)
            w_nd = rng.uniform(0.1, 2, size=n)
            w_d = rng.uniform(0.1, 2, size=m)
            total = 0.0
            for yj, wj in zip(y_d, w_d):
                for yi, wi in zip(y_nd, w_nd):
                    if yi < yj:
                        total += wi * wj
                    elif yi == yj:
                        total += 0.5 * wi * wj
            expected = total / (w_nd.sum() * w_d.sum())
            assert unconditional_auc(y_nd, y_d, w_nd, w_d) == pytest.approx(
                expected, abs=1e-12)

    def test_unit_weights_match_classical_statistic(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            n, m = rng.integers(2, 16, size=2)
            y_nd = rng.normal(size=n)
            y_d = rng.normal(size=m)
            u = sum(1.0 for yj in y_d for yi in y_nd if yi < yj)
            assert unconditional_auc(y_nd, y_d) == pytest.approx(
                u / (n * m), abs=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            unconditional_auc([], [1.0])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unconditional_auc([1.0, 2.0], [1.0], w_nondiseased=[1.0])

    @pytest.mark.parametrize("y_nd, y_d", [([1.0, np.nan], [2.0]), ([1.0, 3.0], [np.inf]),
                                           ([-np.inf, 3.0], [2.0])])
    def test_non_finite_outcomes_rejected(self, y_nd, y_d):
        with pytest.raises(ValueError, match="outcomes must be finite"):
            unconditional_auc(y_nd, y_d)

    @pytest.mark.parametrize("w_nd, w_d", [([1.0, -5.0], None), ([1.0, 0.0], None),
                                           (None, [np.nan]), (None, [np.inf])])
    def test_weights_not_positive_and_finite_rejected(self, w_nd, w_d):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            unconditional_auc([1.0, 3.0], [2.0], w_nd, w_d)

    def test_robust_weights_downweight_outliers(self):
        rng = np.random.default_rng(97)
        y_nd = rng.normal(0.0, 1.0, 80)
        y_d = rng.normal(1.0, 1.0, 80)
        y_nd[0] = 60.0  # gross outlier in the nondiseased group
        auc, pair = robust_unconditional_auc(y_nd, y_d)
        fit_nd = pair.nondiseased.fit
        expected_nd = irls_fit(np.ones((80, 1)), y_nd)
        np.testing.assert_array_equal(fit_nd.truncated_weights,
                                      expected_nd.truncated_weights)
        assert fit_nd.truncated_weights[0] < 0.1
        unweighted = unconditional_auc(y_nd, y_d)
        assert auc > unweighted  # the high nondiseased outlier drags plain AUC down
        assert 0.0 <= auc <= 1.0


class TestRobustUnconditionalAucTies:
    def test_integer_outcomes_match_half_tie_double_loop(self):
        # integer scores tie across groups; the robust statistic must give
        # each tie half credit under both fits' truncated weights
        rng = np.random.default_rng(101)
        y_nd = rng.integers(0, 6, 70).astype(float)
        y_d = rng.integers(2, 9, 60).astype(float)
        y_nd[:3] = [40.0, 45.0, 50.0]
        auc, pair = robust_unconditional_auc(y_nd, y_d)
        w_nd, w_d = pair.nondiseased.fit.truncated_weights, pair.diseased.fit.truncated_weights
        assert np.any(w_nd < 1.0)
        assert np.intersect1d(y_nd, y_d).size > 0
        total = 0.0
        for yj, wj in zip(y_d, w_d):
            for yi, wi in zip(y_nd, w_nd):
                if yi < yj:
                    total += wi * wj
                elif yi == yj:
                    total += 0.5 * wi * wj
        assert auc == pytest.approx(total / (w_nd.sum() * w_d.sum()), abs=1e-12)


class TestGroupFit:
    def test_stack_is_the_one_row_stack_of_its_fit(self):
        # evaluate reads the stack, and ecdf is its row: the distribution
        # the truncated weights give the standardized residuals
        pair = fit_pair(*generate(scenario("III", contamination=0.05), 80, 60, seed=5), 1)
        for g in (pair.nondiseased, pair.diseased):
            want = GroupStack.from_fits([g.fit])
            assert g.stack.beta.tobytes() == want.beta.tobytes()
            assert g.stack.sigma.tobytes() == want.sigma.tobytes()
            for name in ("support", "weights", "cum_weights", "sizes", "total"):
                assert getattr(g.stack.ecdf, name).tobytes() == \
                    getattr(want.ecdf, name).tobytes(), name
            ecdf = WeightedEcdf.from_residuals(g.fit.std_residuals, g.fit.truncated_weights)
            for name in ("support", "weights", "cum_weights", "total"):
                assert np.asarray(getattr(g.ecdf, name)).tobytes() == \
                    np.asarray(getattr(ecdf, name)).tobytes(), name


class TestPairCarriesItsInputs:
    """A fitted pair holds the samples and the FitConfig its fits came
    from, so a bootstrap needs nothing else."""

    @pytest.mark.parametrize("config", [None, FitConfig(tuning=0.9, max_iterations=4)])
    def test_fit_pair(self, config):
        nd, d = generate(scenario("I"), 60, 50, seed=3)
        pair = fit_pair(nd, d, 1, config)
        assert pair.nondiseased.sample is nd and pair.diseased.sample is d
        assert (pair.nondiseased.sample.label, pair.diseased.sample.label) == ("nondiseased", "diseased")
        assert pair.config == (config or FitConfig())

    @pytest.mark.parametrize("config", [None, FitConfig(max_iterations=2)])
    def test_robust_unconditional_auc_is_intercept_only(self, config):
        rng = np.random.default_rng(5)
        y_nd, y_d = rng.normal(0.0, 1.0, 40), rng.normal(1.0, 1.0, 30)
        auc, pair = robust_unconditional_auc(y_nd, y_d, config)
        assert pair.config == (config or FitConfig())
        for g, y, label in ((pair.nondiseased, y_nd, "nondiseased"),
                            (pair.diseased, y_d, "diseased")):
            assert g.design == SplineSpec(()) and g.sample.label == label
            assert g.sample.covariates.shape == (y.size, 0)
            assert np.array_equal(g.sample.outcomes, y)
            ones = np.ones((y.size, 1))
            assert g.design.matrix(g.sample.covariates).tobytes() == ones.tobytes()
            want = irls_fit(ones, y, config)
            assert g.fit.beta.tobytes() == want.beta.tobytes()
            assert g.fit.truncated_weights.tobytes() == want.truncated_weights.tobytes()
        assert auc == unconditional_auc(y_nd, y_d, pair.nondiseased.fit.truncated_weights,
                                        pair.diseased.fit.truncated_weights)


class TestRowPermutationInvariance:
    """Permuting one group's rows, outcomes and covariates together, moves
    neither group's fit nor the AUC beyond rounding."""

    @pytest.mark.parametrize("name, knots", [("I", 2), ("III", 2), ("IV", [1, 1])])
    @pytest.mark.parametrize("seed", [4, 29])
    @pytest.mark.parametrize("group", [0, 1])
    def test_fit_and_auc_unchanged(self, name, knots, seed, group):
        scn = scenario(name, contamination=0.05)
        samples = list(generate(scn, 200, 100, seed=seed))
        s = samples[group]
        order = np.random.default_rng(seed).permutation(s.outcomes.size)
        shuffled = list(samples)
        shuffled[group] = GroupSample(outcomes=s.outcomes[order],
                                      covariates=s.covariates[order], label=s.label)
        pair, pair_shuffled = fit_pair(*samples, knots), fit_pair(*shuffled, knots)
        for g, g_shuffled in ((pair.nondiseased, pair_shuffled.nondiseased),
                              (pair.diseased, pair_shuffled.diseased)):
            beta = g.fit.beta
            assert (np.max(np.abs(g_shuffled.fit.beta - beta))
                    <= 1e-10 * np.max(np.abs(beta)))
            assert g_shuffled.fit.sigma == pytest.approx(g.fit.sigma, rel=1e-10, abs=0)
        grid = scn.default_grid(21)
        covered = pair.nondiseased.design.covers(grid) & pair.diseased.design.covers(grid)
        assert covered.any()
        np.testing.assert_allclose(auc_grid(pair_shuffled, grid[covered]),
                                   auc_grid(pair, grid[covered]), rtol=0, atol=1e-10)
