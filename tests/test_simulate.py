"""Tests for the synthetic scenarios, contamination, and the study driver."""

import math
import warnings

import numpy as np
import pytest
from dataclasses import replace

from conftest import assert_same_group
from robroc import simulate
from robroc.data import GroupSample
from robroc.errors import DataError, NumericalError
from robroc.huber import ols_refit
from robroc.model_select import select_knots
from robroc.roc import (GroupFit, PopulationPair, auc_closed_form, auc_grid, auc_simpson,
                        fit_pair)
from robroc.simulate import (ESTIMATORS, Scenario, _contaminated_count,
                             comparator_fit, generate, run_study, scenario,
                             true_auc)
from robroc.splines import SplineSpec, design_stack


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class TestScenarioRegistry:
    def test_scenario_one_shape(self):
        scn = scenario("I")
        assert scn.covariate_ranges == ((0.0, 1.0),)
        assert scn.n_covariates == 1
        assert (scn.kappa_nd, scn.kappa_d) == (15.0, 20.0)
        assert scn.contamination_nd == scn.contamination_d == 0.0
        X = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(scn.mean_nd(X), [0.5, 1.5])
        np.testing.assert_allclose(scn.mean_d(X), [2.0, 6.0])
        np.testing.assert_allclose(scn.scale_nd(X), [1.5, 1.5])
        np.testing.assert_allclose(scn.scale_d(X), [2.0, 2.0])

    def test_scenario_four_has_two_covariates(self):
        scn = scenario("IV")
        assert scn.covariate_ranges == ((0.0, 1.0), (0.0, 2.0))
        assert scn.n_covariates == 2

    def test_lookup_is_case_insensitive(self):
        assert scenario("ii").name == "II"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("V")

    def test_contamination_overrides(self):
        scn = scenario("I", contamination=0.05)
        assert scn.contamination_nd == scn.contamination_d == 0.05
        scn = scenario("I", contamination=(0.02, 0.1), kappa=(50.0, 50.0),
                       outlier_kind="radial")
        assert (scn.contamination_nd, scn.contamination_d) == (0.02, 0.1)
        assert (scn.kappa_nd, scn.kappa_d) == (50.0, 50.0)
        assert scn.outlier_kind == "radial"

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            scenario("I", contamination=1.5)
        with pytest.raises(ValueError):
            scenario("I", outlier_kind="vertical")

    @pytest.mark.parametrize("kappa", [(np.nan, 5.0), (5.0, np.inf), (-np.inf, 5.0)])
    @pytest.mark.parametrize("kind", ["location", "radial"])
    def test_nonfinite_kappa_rejected(self, kappa, kind):
        with pytest.raises(ValueError, match="not finite"):
            scenario("I", contamination=0.1, kappa=kappa, outlier_kind=kind)

    def test_negative_kappa_only_for_location_outliers(self):
        with pytest.raises(ValueError, match="radial outliers need kappa >= 0"):
            scenario("I", contamination=0.1, kappa=(-5.0, 5.0), outlier_kind="radial")
        # a negative location shift moves outliers below the mean
        scn = scenario("I", contamination=0.2, kappa=(-15.0, 5.0))
        nd, _ = generate(scn, 200, 10, seed=3)
        shift = scn.mean_nd(nd.covariates) - nd.outcomes
        assert np.all(shift[nd.contaminated] > 5.0 * 1.5)

    def test_default_grid(self):
        grid = scenario("I").default_grid()
        assert grid.shape == (21, 1)
        assert grid[0, 0] == pytest.approx(0.05)
        assert grid[-1, 0] == pytest.approx(0.95)
        grid4 = scenario("IV").default_grid(11)
        assert grid4.shape == (11, 2)
        np.testing.assert_array_equal(grid4[:, 1], np.ones(11))


class TestGenerate:
    def test_deterministic_under_tuple_seed(self):
        scn = scenario("I", contamination=0.1)
        nd1, d1 = generate(scn, 50, 40, seed=(3, 7))
        nd2, d2 = generate(scn, 50, 40, seed=(3, 7))
        np.testing.assert_array_equal(nd1.outcomes, nd2.outcomes)
        np.testing.assert_array_equal(d1.covariates, d2.covariates)
        np.testing.assert_array_equal(nd1.contaminated, nd2.contaminated)
        nd3, _ = generate(scn, 50, 40, seed=(3, 8))
        assert not np.array_equal(nd1.outcomes, nd3.outcomes)

    def test_shapes_labels_and_ranges(self):
        nd, d = generate(scenario("IV"), 30, 25, seed=5)
        assert (nd.n, d.n) == (30, 25)
        assert (nd.label, d.label) == ("nondiseased", "diseased")
        assert nd.covariates.shape == (30, 2)
        assert nd.covariates[:, 0].min() >= 0.0
        assert nd.covariates[:, 0].max() <= 1.0
        assert nd.covariates[:, 1].max() <= 2.0
        assert nd.contaminated.sum() == 0

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate(scenario("I"), 0, 10)

    @pytest.mark.parametrize("fraction,n,expected", [
        (0.05, 10, 1), (0.025, 100, 3), (0.05, 100, 5),
        (0.004, 100, 0), (0.0, 50, 0), (1.0, 7, 7),
    ])
    def test_contaminated_count_rounds_half_up(self, fraction, n, expected):
        assert _contaminated_count(fraction, n) == expected

    def test_contaminated_mask_matches_count(self):
        scn = scenario("I", contamination=(0.05, 0.025))
        nd, d = generate(scn, 10, 100, seed=9)
        assert nd.contaminated.sum() == 1
        assert d.contaminated.sum() == 3

    def test_location_outliers_shift_the_mean(self):
        scn = scenario("I", contamination=(1.0, 0.0))  # every nd row an outlier
        nd, _ = generate(scn, 20000, 1, seed=13)
        X = nd.covariates
        shift = np.mean(nd.outcomes - (0.5 + X[:, 0]))
        assert abs(shift - 15.0 * 1.5) < 0.1

    def test_radial_outliers_inflate_the_scale(self):
        scn = scenario("I", contamination=(1.0, 0.0), outlier_kind="radial")
        nd, _ = generate(scn, 20000, 1, seed=17)
        resid = nd.outcomes - (0.5 + nd.covariates[:, 0])
        assert abs(np.mean(resid)) < 0.5
        assert 21.0 < np.std(resid) < 24.0

    def test_clean_rows_keep_model_scale(self):
        scn = scenario("I", contamination=(0.5, 0.0))
        nd, _ = generate(scn, 20000, 1, seed=19)
        clean = ~nd.contaminated
        resid = nd.outcomes[clean] - (0.5 + nd.covariates[clean, 0])
        assert 1.4 < np.std(resid) < 1.6


class TestTrueAuc:
    def test_scenario_one_against_erf(self):
        for x in (0.0, 0.3, 1.0):
            expected = normal_cdf((1.5 + 3.0 * x) / 2.5)
            assert true_auc(scenario("I"), x) == pytest.approx(expected,
                                                               abs=1e-12)

    def test_grid_input_matches_pointwise(self):
        xs = np.linspace(0.0, 1.0, 7)
        values = true_auc(scenario("I"), xs)
        assert values.shape == (7,)
        for x, v in zip(xs, values):
            assert v == pytest.approx(true_auc(scenario("I"), x), abs=1e-15)

    def test_two_covariate_point(self):
        # delta = (2 + 0.5 + 1.5) - (0.5 + 0.5 + 1) = 2, spread = 2.5
        value = true_auc(scenario("IV"), [0.5, 1.0])
        assert isinstance(value, float)
        assert value == pytest.approx(normal_cdf(0.8), abs=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(23)
        n = 1_000_000
        y_nd = rng.normal(1.0, 1.5, n)
        y_d = rng.normal(4.0, 2.0, n)
        estimate = np.mean(y_d >= y_nd)
        assert abs(true_auc(scenario("I"), 0.5) - estimate) < 0.002

    def test_equal_groups_score_half(self):
        scn = replace(scenario("I"), mean_d=scenario("I").mean_nd,
                      scale_d=scenario("I").scale_nd)
        assert true_auc(scn, 0.4) == pytest.approx(0.5, abs=1e-15)

    def test_huge_separation_saturates(self):
        scn = replace(scenario("I"), mean_d=lambda X: 100.0 + X[:, 0])
        assert true_auc(scn, 0.5) > 0.9999


class TestComparatorFit:
    def test_linear_comparator_recovers_coefficients(self):
        nd, _ = generate(scenario("I"), 8000, 1, seed=29)
        gf = comparator_fit("ols_linear", nd)
        np.testing.assert_allclose(gf.fit.beta, [0.5, 1.0], atol=0.2)
        assert gf.fit.sigma == pytest.approx(1.5, abs=0.1)
        np.testing.assert_array_equal(gf.fit.truncated_weights, np.ones(8000))
        assert gf.ecdf.total == pytest.approx(8000.0)
        assert gf.sample.label == "nondiseased"

    def test_bspline_comparator_matches_linear_on_linear_truth(self):
        nd, _ = generate(scenario("I"), 8000, 1, seed=31)
        linear = comparator_fit("ols_linear", nd)
        spline = comparator_fit("ols_bspline", nd, n_interior=0)
        for x in np.linspace(0.2, 0.8, 13):
            a, b = (g.design.matrix([[x]])[0] @ g.fit.beta for g in (linear, spline))
            assert abs(a - b) < 0.08

    def test_unknown_kind_rejected(self):
        nd, _ = generate(scenario("I"), 50, 1, seed=37)
        for kind in ("ridge", "robust"):
            with pytest.raises(ValueError, match="unknown comparator"):
                comparator_fit(kind, nd)


def reference_comparator(kind, sample, n_interior=0):
    """comparator_fit as the per-sample route it replaced: the spec of the
    one-row design stack (or the all-passthrough spec), its matrix and
    ols_refit of the one outcome row."""
    spec = (SplineSpec((None,) * sample.n_covariates) if kind == "ols_linear"
            else design_stack(sample.covariates[None], n_interior)[0][0])
    fit = ols_refit(spec.matrix(sample.covariates), sample.outcomes[None])[0]
    if isinstance(fit, NumericalError):
        raise fit
    return GroupFit(fit, spec, sample)


def fitted_or_error(fn, *args):
    try:
        return fn(*args)
    except NumericalError as exc:
        return str(exc)


class TestComparatorEqualsReference:
    """comparator_fit equals the per-sample route bit for bit: fit, design,
    residual distribution and label, or the same NumericalError."""

    X_LINE = np.linspace(0.0, 1.0, 30)

    @pytest.mark.parametrize("sample, n_interior", [
        (generate(scenario("IV", contamination=0.05), 200, 100, seed=3)[1], 0),
        (generate(scenario("IV", contamination=0.05), 200, 100, seed=3)[0], (1, 3)),
        (generate(scenario("I"), 60, 1, seed=9)[0], 3),
        (generate(scenario("IV"), 5, 1, seed=11)[0], 0),
        (GroupSample(outcomes=1.0 + 2.0 * X_LINE, covariates=X_LINE, label="diseased"), 1),
    ], ids=["scenario-iv", "knot-vector", "scenario-i", "underdetermined", "exact-line"])
    @pytest.mark.parametrize("kind", ["ols_linear", "ols_bspline"])
    def test_equals_reference(self, kind, sample, n_interior):
        got = fitted_or_error(comparator_fit, kind, sample, n_interior)
        want = fitted_or_error(reference_comparator, kind, sample, n_interior)
        if isinstance(want, str):
            assert got == want
            return
        assert_same_group(got, want)

    def test_failures_are_covered(self):
        # the underdetermined and exact-line cases above fail for some kinds
        n5 = generate(scenario("IV"), 5, 1, seed=11)[0]
        line = GroupSample(outcomes=1.0 + 2.0 * self.X_LINE, covariates=self.X_LINE)
        assert "underdetermined" in fitted_or_error(comparator_fit, "ols_bspline", n5, 0)
        assert "degenerate scale" in fitted_or_error(comparator_fit, "ols_linear", line)


class TestRunStudy:
    def test_single_replicate_shapes_and_determinism(self):
        scn = scenario("I")
        report = run_study(scn, 60, 50, 3, seed=41,
                           estimators=("robust", "ols_linear"))
        assert report.n_replicates == 3
        assert report.x_grid.shape == (21, 1)
        assert report.true_auc.shape == (21,)
        assert set(report.estimators) == {"robust", "ols_linear"}
        for summary in report.estimators.values():
            assert summary.mean.shape == (21,)
            assert summary.lower.shape == (21,)
            assert summary.upper.shape == (21,)
            assert np.all(summary.n_ok <= 3)
            assert summary.n_failed_fits == 0
        again = run_study(scn, 60, 50, 3, seed=41,
                          estimators=("robust", "ols_linear"))
        np.testing.assert_array_equal(report.estimators["robust"].mean,
                                      again.estimators["robust"].mean)

    def test_repeated_estimator_counted_once(self):
        report = run_study(scenario("IV"), 5, 5, 3, estimators=("robust", "robust"))
        assert list(report.estimators) == ["robust"]
        assert report.estimators["robust"].n_failed_fits == 3
        once = run_study(scenario("I", contamination=0.05), 40, 40, 3, seed=7,
                         estimators=("ols_linear", "robust"))
        twice = run_study(scenario("I", contamination=0.05), 40, 40, 3, seed=7,
                          estimators=("ols_linear", "robust", "ols_linear", "robust"))
        assert list(twice.estimators) == ["ols_linear", "robust"]
        for kind, summary in once.estimators.items():
            for name in ("mean", "lower", "upper", "n_ok", "n_failed_fits"):
                np.testing.assert_array_equal(getattr(twice.estimators[kind], name),
                                              getattr(summary, name))

    def test_estimator_names_validated(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_study(scenario("I"), 30, 30, 1, estimators=("lasso",))

    @pytest.mark.parametrize("n_replicates", [0, -1])
    def test_fewer_than_one_replicate_rejected(self, n_replicates):
        with pytest.raises(ValueError, match="at least one replicate"):
            run_study(scenario("I"), 30, 30, n_replicates)

    def test_grid_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            run_study(scenario("IV"), 30, 30, 1,
                      x_grid=np.linspace(0.1, 0.9, 5))

    def test_custom_grid_and_simpson_agree_with_closed_form(self):
        # the study's means on a custom grid, against Simpson integration of
        # the ROC curves fitted to the same replicate draws (seed, r)
        grid = np.array([0.3, 0.5, 0.7])
        closed = run_study(scenario("I"), 80, 80, 2, seed=43, x_grid=grid)
        np.testing.assert_array_equal(closed.x_grid, grid[:, None])
        pairs = [fit_pair(*generate(scenario("I"), 80, 80, seed=(43, r)), 0)
                 for r in range(2)]
        simpson = [np.mean([auc_simpson(p, [x], 2000) for p in pairs]) for x in grid]
        np.testing.assert_allclose(simpson, closed.estimators["robust"].mean, atol=1e-3)

    # the mark covers only the reference np.nanmean below; run_study itself
    # must stay silent on a grid point that no replicate covers
    @pytest.mark.filterwarnings("ignore:Mean of empty slice")
    def test_grid_points_outside_knots_are_nan_cells(self):
        # the same cells as a per-point loop that leaves NaN wherever
        # auc_closed_form refuses a point outside the boundary knots
        scn = scenario("IV", contamination=0.05)
        # points hugging the edges of x1 and of x2, covered by some replicates
        grid = np.array([[-0.1, 1.0], [0.01, 1.0], [0.02, 1.0], [0.04, 1.0],
                         [0.5, 0.02], [0.5, 0.05], [0.5, 1.0], [0.5, 1.95],
                         [0.5, 1.98], [0.96, 1.0], [0.98, 1.0], [0.99, 1.0]])
        kinds = ("robust", "ols_linear", "ols_bspline")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_study(scn, 40, 40, 8, seed=61, x_grid=grid, estimators=kinds,
                               n_interior=1)
        for kind in kinds:
            cells = np.full((8, grid.shape[0]), np.nan)
            for r in range(8):
                pair = parent_fit_estimator(kind, *generate(scn, 40, 40, seed=(61, r)), 1, None)
                for i, x in enumerate(grid):
                    try:
                        cells[r, i] = auc_closed_form(pair, x)
                    except DataError:
                        pass
            summary = report.estimators[kind]
            np.testing.assert_array_equal(summary.n_ok, np.isfinite(cells).sum(axis=0))
            np.testing.assert_array_equal(summary.mean, np.nanmean(cells, axis=0))
        n_ok = report.estimators["robust"].n_ok
        assert n_ok[0] == 0 and n_ok[6] == 8 and np.all((0 < n_ok[1:6]) & (n_ok[1:6] < 8))

    def test_knot_counts_tallied_per_group(self):
        report = run_study(scenario("I"), 60, 60, 4, seed=47,
                           select_candidates=[0, 2])
        assert report.knot_counts is not None
        for key in ("nondiseased", "diseased"):
            tally = report.knot_counts[key]
            assert sum(tally.values()) == 4
            assert set(tally) <= {(0,), (2,)}

    def test_knot_counts_absent_without_selection(self):
        report = run_study(scenario("I"), 40, 40, 1, seed=53)
        assert report.knot_counts is None

    def test_estimator_list_constant(self):
        assert ESTIMATORS == ("robust", "ols_linear", "ols_bspline")

    def test_robust_beats_ols_under_contamination(self):
        scn = scenario("I", contamination=0.05)
        report = run_study(scn, 100, 100, 10, seed=59,
                           estimators=("robust", "ols_linear"))
        robust_bias = np.abs(report.estimators["robust"].mean - report.true_auc)
        ols_bias = np.abs(report.estimators["ols_linear"].mean - report.true_auc)
        assert robust_bias.max() < ols_bias.max()


def parent_fit_estimator(kind, nd, d, n_interior, config):
    """One estimator's fitted pair, as run_study fitted it replicate by
    replicate before its fits were batched."""
    if kind == "robust":
        return fit_pair(nd, d, n_interior, config=config)
    return PopulationPair(nondiseased=comparator_fit(kind, nd, n_interior),
                          diseased=comparator_fit(kind, d, n_interior))


def parent_study(scn, n_nd, n_d, n_replicates, seed, x_grid, estimators, n_interior,
                 select_candidates, config=None):
    """run_study's replicate loop before its fits were batched: per
    replicate, select_knots on each group, then one fit per estimator and
    group.  Returns the AUC cells (replicates x grid points) per estimator,
    the failed-fit counts and the knot tallies."""
    aucs = {kind: np.full((n_replicates, x_grid.shape[0]), np.nan) for kind in estimators}
    failed = {kind: 0 for kind in estimators}
    counts = {"nondiseased": {}, "diseased": {}}
    for r in range(n_replicates):
        nd, d = generate(scn, n_nd, n_d, seed=(seed, r))
        if select_candidates is not None:
            for sample, key in ((nd, "nondiseased"), (d, "diseased")):
                try:
                    report = select_knots(sample, select_candidates, config)
                except NumericalError:
                    continue
                chosen = report.best.n_interior
                counts[key][chosen] = counts[key].get(chosen, 0) + 1
        for kind in estimators:
            try:
                pair = parent_fit_estimator(kind, nd, d, n_interior, config)
            except NumericalError:
                failed[kind] += 1
                continue
            inside = pair.nondiseased.design.covers(x_grid) & pair.diseased.design.covers(x_grid)
            try:
                aucs[kind][r, inside] = auc_grid(pair, x_grid[inside])
            except NumericalError:
                pass
    return aucs, failed, counts


class TestEqualsParentLoop:
    """run_study equals the replicate-by-replicate loop bit for bit: every
    summary array, failed-fit count and knot tally."""

    def assert_equal_studies(self, scn, n_nd, n_d, n_replicates, seed, estimators,
                             n_interior, select_candidates, config=None):
        report = run_study(scn, n_nd, n_d, n_replicates, seed=seed, estimators=estimators,
                           n_interior=n_interior, select_candidates=select_candidates,
                           config=config)
        aucs, failed, counts = parent_study(scn, n_nd, n_d, n_replicates, seed,
                                            report.x_grid, estimators, n_interior,
                                            select_candidates, config)
        assert list(report.estimators) == list(estimators)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            for kind, summary in report.estimators.items():
                np.testing.assert_array_equal(summary.mean, np.nanmean(aucs[kind], axis=0))
                np.testing.assert_array_equal(summary.lower,
                                              np.nanquantile(aucs[kind], 0.025, axis=0))
                np.testing.assert_array_equal(summary.upper,
                                              np.nanquantile(aucs[kind], 0.975, axis=0))
                np.testing.assert_array_equal(summary.n_ok, np.isfinite(aucs[kind]).sum(axis=0))
                assert summary.n_failed_fits == failed[kind]
        assert report.knot_counts == (counts if select_candidates is not None else None)
        return report

    def test_study_workload_case(self):
        # 25 replicates of 200: one chunk of 20 and a remainder of 5
        assert simulate.REFIT_CHUNK_VALUES // 200 == 20
        self.assert_equal_studies(scenario("IV", contamination=0.05), 200, 100, 25, 0,
                                  ("robust", "ols_linear"), 0, [0, 3])

    def test_robust_layout_not_a_candidate(self, monkeypatch):
        monkeypatch.setattr(simulate, "REFIT_CHUNK_VALUES", 4 * 80)
        self.assert_equal_studies(scenario("IV", contamination=0.05), 80, 60, 6, 3,
                                  ("robust", "ols_linear"), (0, 3), [0, 3])

    def test_no_estimators(self, monkeypatch):
        monkeypatch.setattr(simulate, "REFIT_CHUNK_VALUES", 5 * 100)
        report = self.assert_equal_studies(scenario("I"), 100, 100, 12, 204, (), 0, [0, 3])
        assert report.estimators == {}

    def test_no_selection(self, monkeypatch):
        monkeypatch.setattr(simulate, "REFIT_CHUNK_VALUES", 3 * 70)
        self.assert_equal_studies(scenario("I", contamination=0.05), 70, 50, 7, 5,
                                  ESTIMATORS, 1, None)

    def test_failed_fits_and_tallies(self, monkeypatch):
        # nine and eight rows for scenario IV's seven robust coefficients:
        # some replicates' robust fits and candidate fits fail, some do not
        monkeypatch.setattr(simulate, "REFIT_CHUNK_VALUES", 5 * 9)
        report = self.assert_equal_studies(scenario("IV", contamination=0.2), 9, 8, 12, 11,
                                           ("robust", "ols_bspline"), 0, [0, 1, 3])
        assert 0 < report.estimators["robust"].n_failed_fits < 12
        assert 0 < sum(report.knot_counts["diseased"].values()) < 12

    def test_every_fit_failing(self):
        report = self.assert_equal_studies(scenario("IV"), 5, 5, 3, 0,
                                           ("robust", "ols_linear"), 0, [0, 3])
        assert report.estimators["robust"].n_failed_fits == 3
        assert report.knot_counts == {"nondiseased": {}, "diseased": {}}

    def test_robust_reuses_the_candidate_fit(self, monkeypatch):
        # one batched fit per layout, chunk and group: the candidates (0, 0)
        # and (3, 3), with the robust estimator's (0, 0) among them
        rows = []
        refit = simulate.irls_refit

        def counted(Z, Y, config, beta_init=None):
            rows.append(len(Y))
            return refit(Z, Y, config, beta_init)

        monkeypatch.setattr(simulate, "irls_refit", counted)
        monkeypatch.setattr(simulate, "REFIT_CHUNK_VALUES", 4 * 60)
        run_study(scenario("IV"), 60, 50, 6, estimators=("robust",), select_candidates=[0, 3])
        assert rows == [4, 4, 4, 4, 2, 2, 2, 2]

    def test_shared_layout_built_once(self, monkeypatch):
        # robust and ols_bspline share the (2,) layout: one design stack and
        # one grid stack per layout, chunk and group, fitted once each way
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[1] if name == "design_stack" else len(args[0])))
                return fn(*args, **kwargs)
            monkeypatch.setattr(simulate, name, wrapper)

        for name in ("design_stack", "grid_stack", "irls_refit", "ols_refit"):
            counted(name, getattr(simulate, name))
        monkeypatch.setattr(simulate, "REFIT_CHUNK_VALUES", 4 * 60)
        # test_no_selection holds these estimators to the parent loop
        report = run_study(scenario("I", contamination=0.05), 60, 50, 4, seed=9,
                           estimators=("robust", "ols_bspline", "ols_linear"), n_interior=2)
        per_group = [("design_stack", (2,)), ("grid_stack", 4), ("irls_refit", 4),
                     ("ols_refit", 4), ("design_stack", (None,)), ("grid_stack", 4),
                     ("ols_refit", 4)]
        assert calls == per_group * 2
        assert list(report.estimators) == ["robust", "ols_bspline", "ols_linear"]
