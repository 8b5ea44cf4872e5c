"""Tests for the weighted residual bootstrap and percentile intervals."""

import numpy as np
import pytest

from robroc import bootstrap
from robroc.bootstrap import (BootstrapConfig, BootstrapResult, BootstrapTarget,
                              _resample_indices, _resampling_cdf,
                              percentile_interval, residual_bootstrap,
                              unconditional_auc_bootstrap)
from robroc.data import GroupSample
from robroc.errors import NumericalError
from robroc.huber import FitConfig, RobustFit, irls_fit
from robroc.roc import (GroupFit, PopulationPair, auc_closed_form, fit_pair,
                        roc_values, youden_index)
from robroc.simulate import generate, scenario, true_auc
from robroc.splines import SplineSpec

X0 = np.array([0.5])


def linear_pair(rng, n_nd=35, n_d=35):
    nd, d = generate(scenario("I"), n_nd, n_d, seed=rng.integers(2 ** 31))
    return nd, d, fit_pair(nd, d, 0)


def hand_pair(nd_residuals, d_residuals, x):
    """Pair over the linear design [1, x] whose refit inputs are fully
    controlled."""
    def group(res, label):
        res = np.asarray(res, dtype=float)
        n = res.size
        fit = RobustFit(beta=np.array([0.0, 1.0]), sigma=1.0,
                        std_residuals=res, huber_weights=np.ones(n),
                        truncated_weights=np.ones(n), iterations=1,
                        converged=True)
        return GroupFit.from_fit(fit, SplineSpec((None,)), label)

    x = np.asarray(x, dtype=float)
    nd = GroupSample(outcomes=x + np.asarray(nd_residuals, dtype=float),
                     covariates=x[:, None], label="nondiseased")
    d = GroupSample(outcomes=x + np.asarray(d_residuals, dtype=float),
                    covariates=x[:, None], label="diseased")
    pair = PopulationPair(nondiseased=group(nd_residuals, "nondiseased"),
                          diseased=group(d_residuals, "diseased"))
    return pair, nd, d


class TestPercentileInterval:
    def test_nearest_rank_on_thousand(self):
        values = np.arange(1.0, 1001.0)
        assert percentile_interval(values, 0.05) == (25.0, 975.0)

    def test_nearest_rank_on_two_hundred(self):
        values = np.arange(1.0, 201.0)
        assert percentile_interval(values, 0.05) == (5.0, 195.0)

    def test_unsorted_input(self):
        rng = np.random.default_rng(11)
        values = rng.permutation(np.arange(1.0, 201.0))
        assert percentile_interval(values, 0.05) == (5.0, 195.0)

    def test_single_value(self):
        assert percentile_interval([3.5], 0.05) == (3.5, 3.5)

    def test_brackets_center(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=501)
        lo, hi = percentile_interval(values, 0.05)
        assert lo < np.median(values) < hi

    @pytest.mark.parametrize("n_replicates", [1, 2, 199, 1000])
    def test_band_equals_column_by_column(self, n_replicates):
        rng = np.random.default_rng(n_replicates)
        band = rng.normal(size=(n_replicates, 6))
        band[:, 2] = np.round(band[:, 2])  # ties
        band[:, 3] = 0.25  # one value throughout
        for alpha in (0.05, 0.1, 0.5):
            lo, hi = percentile_interval(band, alpha)
            columns = [percentile_interval(band[:, j], alpha) for j in range(band.shape[1])]
            assert lo.shape == hi.shape == (band.shape[1],)
            assert np.array_equal(lo, [c[0] for c in columns])
            assert np.array_equal(hi, [c[1] for c in columns])


class TestBootstrapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(n_replicates=0)
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=1.0)
        cfg = BootstrapConfig(n_replicates=10, alpha=0.1, seed=4)
        assert (cfg.n_replicates, cfg.alpha, cfg.seed) == (10, 0.1, 4)


class TestResampleIndices:
    def test_uniform_weights_reduce_to_plain_resampling(self):
        w = np.ones(20)
        idx_unit = _resample_indices(np.random.default_rng((9, 0)), _resampling_cdf(w))
        idx_scaled = _resample_indices(np.random.default_rng((9, 0)), _resampling_cdf(5.0 * w))
        np.testing.assert_array_equal(idx_unit, idx_scaled)
        assert idx_unit.shape == (20,)
        assert idx_unit.min() >= 0 and idx_unit.max() < 20
        assert np.unique(idx_unit).size > 1

    def test_heavy_weight_dominates(self):
        cdf = _resampling_cdf(np.array([1000.0, 1.0, 1.0, 1.0]))
        draws = np.concatenate([
            _resample_indices(np.random.default_rng((17, b)), cdf)
            for b in range(500)])
        assert np.mean(draws == 0) > 0.95

    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("kind", ["spread", "tied", "near_zero"])
    def test_equals_generator_choice(self, n, kind):
        # the cdf built once per call and one searchsorted per draw give the
        # indices Generator.choice(n, p=w / w.sum()) gives on the same stream
        rng = np.random.default_rng(n)
        w = rng.uniform(0.05, 1.0, n)
        if kind == "tied":
            w = np.round(w, 1) + 0.1
        elif kind == "near_zero":
            w[::2] = 1e-300
        cdf = _resampling_cdf(w)
        for b in range(2000):
            expected = np.random.default_rng((7, b)).choice(n, size=n, replace=True, p=w / w.sum())
            got = _resample_indices(np.random.default_rng((7, b)), cdf)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


class TestResidualBootstrap:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(19)
        nd, d, pair = linear_pair(rng)
        target = BootstrapTarget(x=X0, t_grid=np.linspace(0.0, 1.0, 11))

        def band(seed):
            res = residual_bootstrap(pair, nd, d, [target],
                                     BootstrapConfig(n_replicates=40, seed=seed))
            t = res.targets[0]
            return np.concatenate([[t.auc_lower, t.auc_upper], t.roc_lower, t.roc_upper])

        np.testing.assert_array_equal(band(7), band(7))
        assert not np.array_equal(band(7), band(8))

    def test_bare_x_targets_are_wrapped(self):
        rng = np.random.default_rng(23)
        nd, d, pair = linear_pair(rng)
        res = residual_bootstrap(pair, nd, d, [0.25, 0.75],
                                 BootstrapConfig(n_replicates=10, seed=1))
        assert len(res.targets) == 2
        np.testing.assert_array_equal(res.targets[0].x, [0.25])
        np.testing.assert_array_equal(res.targets[1].x, [0.75])

    def test_empty_targets_rejected(self):
        rng = np.random.default_rng(29)
        nd, d, pair = linear_pair(rng)
        with pytest.raises(ValueError, match="no bootstrap targets"):
            residual_bootstrap(pair, nd, d, [])

    def test_band_and_youden_outputs(self):
        rng = np.random.default_rng(31)
        nd, d, pair = linear_pair(rng)
        t_grid = np.linspace(0.0, 1.0, 21)
        target = BootstrapTarget(x=X0, t_grid=t_grid, youden=True)
        res = residual_bootstrap(pair, nd, d, [target],
                                 BootstrapConfig(n_replicates=30, seed=2))
        assert res.n_replicates == 30
        assert res.n_failed == 0
        assert res.unreliable is False
        tgt = res.targets[0]
        assert tgt.auc_lower <= tgt.auc_upper
        for arr in (tgt.roc, tgt.roc_lower, tgt.roc_upper):
            assert arr.shape == (21,)
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert np.all(tgt.roc_lower <= tgt.roc_upper)
        yi, threshold = tgt.youden
        assert 0.0 <= yi <= 1.0
        assert np.isfinite(threshold)
        assert tgt.youden_lower <= tgt.youden_upper

    def test_frozen_rows_equal_per_point_functions(self, monkeypatch):
        # the replicate values, computed from target rows built once, equal
        # the per-point functions on the same refits bit for bit
        nd, d = generate(scenario("I", contamination=0.05), 90, 80, seed=37)
        pair = fit_pair(nd, d, 2)
        t_grid = np.linspace(0.0, 1.0, 41)
        targets = [BootstrapTarget(x=np.array([x]), t_grid=t_grid, youden=True)
                   for x in (0.12, 0.3, 0.5, 0.71, 0.88)]
        seen = []
        replicates = bootstrap._replicates

        def recording(fits, designs, cfg, fit_config, statistic):
            def record(refits, ys):
                seen.append((refits, statistic(refits, ys)))
                return seen[-1][1]
            return replicates(fits, designs, cfg, fit_config, record)

        monkeypatch.setattr(bootstrap, "_replicates", recording)
        res = residual_bootstrap(pair, nd, d, targets,
                                 BootstrapConfig(n_replicates=24, seed=5))
        assert len(seen) == 24
        groups = (pair.nondiseased, pair.diseased)
        for refits, values in seen:
            rep = PopulationPair(*(GroupFit.from_fit(f, g.design) for f, g in zip(refits, groups)))
            for tgt, (auc, band, youden) in zip(targets, values):
                assert auc == auc_closed_form(rep, tgt.x)
                assert np.array_equal(band, roc_values(rep, tgt.x, t_grid))
                assert youden == youden_index(rep, tgt.x)
        for tgt, out in zip(targets, res.targets):
            assert out.auc == auc_closed_form(pair, tgt.x)
            assert np.array_equal(out.roc, roc_values(pair, tgt.x, t_grid))
            assert out.youden == youden_index(pair, tgt.x)

    def test_single_distinct_residual_fails_every_replicate(self):
        # constant residuals put every refit outcome exactly on the fitted
        # line, so each replicate dies on a zero MAD
        x = np.linspace(0.0, 1.0, 6)
        pair, nd, d = hand_pair(np.full(6, 0.3), np.full(6, -0.2), x)
        with pytest.raises(NumericalError,
                           match="every bootstrap replicate failed"):
            residual_bootstrap(pair, nd, d, [np.array([0.5])],
                               BootstrapConfig(n_replicates=20, seed=3))

    def test_partial_failures_set_unreliable_flag(self):
        # five of six residuals are zero: a resample that misses the sixth
        # row refits interpolating data and fails, the rest succeed
        x = np.linspace(0.0, 1.0, 6)
        nd_res = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0])
        d_res = np.array([0.4, -0.4, 0.8, -0.8, 1.2, -1.2])
        pair, nd, d = hand_pair(nd_res, d_res, x)
        res = residual_bootstrap(pair, nd, d, [np.array([0.5])],
                                 BootstrapConfig(n_replicates=40, seed=5))
        assert 0 < res.n_failed < 40
        assert res.unreliable is True

    def test_interval_covers_truth_at_nominal_rate(self):
        scn = scenario("I")
        truth = true_auc(scn, 0.5)
        covered = 0
        for r in range(60):
            nd, d = generate(scn, 100, 100, seed=(37, r))
            pair = fit_pair(nd, d, 0)
            res = residual_bootstrap(pair, nd, d, [X0],
                                     BootstrapConfig(n_replicates=100, seed=r))
            tgt = res.targets[0]
            covered += tgt.auc_lower <= truth <= tgt.auc_upper
        assert 0.85 <= covered / 60 <= 1.0


class TestReplicateTallies:
    # one warm-started IRLS step never meets the tolerance, so every
    # replicate that does not fail is a non-converged one
    def test_residual_bootstrap_counts_nonconverged(self):
        nd, d, pair = linear_pair(np.random.default_rng(61))
        res = residual_bootstrap(pair, nd, d, [X0],
                                 BootstrapConfig(n_replicates=25, seed=4),
                                 FitConfig(max_iterations=1))
        assert res.n_replicates == 25
        assert res.n_nonconverged == res.n_replicates - res.n_failed > 0

    def test_unconditional_bootstrap_counts_nonconverged(self):
        rng = np.random.default_rng(67)
        *_, summary = unconditional_auc_bootstrap(
            rng.normal(0.0, 1.0, 60), rng.normal(1.0, 1.0, 60),
            BootstrapConfig(n_replicates=25, seed=4), FitConfig(max_iterations=1))
        assert summary.n_replicates == 25
        assert summary.n_nonconverged == summary.n_replicates - summary.n_failed > 0


class TestUnconditionalAucBootstrap:
    def test_interval_and_determinism(self):
        rng = np.random.default_rng(41)
        y_nd = rng.normal(0.0, 1.0, 80)
        y_d = rng.normal(1.0, 1.0, 80)
        cfg = BootstrapConfig(n_replicates=60, seed=6)
        auc, lo, hi, summary = unconditional_auc_bootstrap(y_nd, y_d, cfg)
        assert 0.6 < auc < 0.9
        assert 0.0 <= lo < hi <= 1.0
        assert summary.n_replicates == 60
        auc2, lo2, hi2, _ = unconditional_auc_bootstrap(y_nd, y_d, cfg)
        assert (auc, lo, hi) == (auc2, lo2, hi2)


def parent_replicates(fits, designs, cfg, fit_config, statistic):
    """The replicate loop before refits were batched: one Generator.choice
    draw and one irls_fit per group and replicate."""
    means = [Z @ fit.beta for Z, fit in zip(designs, fits)]
    values = []
    n_failed = 0
    n_nonconverged = 0
    for b in range(cfg.n_replicates):
        rng = np.random.default_rng((cfg.seed, b))
        ys = [mu + fit.sigma * fit.std_residuals[
                  rng.choice(fit.truncated_weights.size, size=fit.truncated_weights.size,
                             replace=True, p=fit.truncated_weights / fit.truncated_weights.sum())]
              for mu, fit in zip(means, fits)]
        try:
            refits = [irls_fit(Z, y, fit_config, beta_init=fit.beta)
                      for Z, y, fit in zip(designs, ys, fits)]
            value = statistic(refits, ys)
        except NumericalError:
            n_failed += 1
            continue
        if not all(f.converged for f in refits):
            n_nonconverged += 1
        values.append(value)
    if not values:
        raise NumericalError("every bootstrap replicate failed")
    return values, BootstrapResult(
        targets=[], n_replicates=cfg.n_replicates, n_failed=n_failed,
        n_nonconverged=n_nonconverged,
        unreliable=n_failed > bootstrap.FAILURE_WARNING_FRACTION * cfg.n_replicates)


def assert_same(a, b):
    """Replicate values equal bit for bit: floats, arrays, and tuples or
    lists of them."""
    if isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b


class TestEqualsParentLoop:
    """Every replicate loop the bootstraps run equals the unbatched loop:
    the same replicate values bit for bit and the same tallies."""

    @pytest.fixture(params=["default_chunks", "chunks_of_three"])
    def compared(self, request, monkeypatch):
        runs = []
        batched = bootstrap._replicates

        def both(fits, designs, cfg, fit_config, statistic):
            if request.param == "chunks_of_three":
                monkeypatch.setattr(bootstrap, "REFIT_CHUNK_VALUES",
                                    3 * max(Z.shape[0] for Z in designs))
            values, result = batched(fits, designs, cfg, fit_config, statistic)
            expected, parent = parent_replicates(fits, designs, cfg, fit_config, statistic)
            assert_same(values, expected)
            assert ((result.n_failed, result.n_nonconverged, result.unreliable)
                    == (parent.n_failed, parent.n_nonconverged, parent.unreliable))
            runs.append(result)
            return values, result

        monkeypatch.setattr(bootstrap, "_replicates", both)
        return runs

    def test_band_and_youden(self, compared):
        nd, d = generate(scenario("I", contamination=0.05), 90, 70, seed=41)
        pair = fit_pair(nd, d, 2)
        targets = [BootstrapTarget(x=np.array([x]), t_grid=np.linspace(0.0, 1.0, 21), youden=True)
                   for x in (0.2, 0.6)]
        residual_bootstrap(pair, nd, d, targets, BootstrapConfig(n_replicates=13, seed=3))
        assert len(compared) == 1

    def test_unconditional_auc(self, compared):
        rng = np.random.default_rng(43)
        unconditional_auc_bootstrap(rng.standard_t(3, 50), rng.standard_t(3, 40) + 1.0,
                                    BootstrapConfig(n_replicates=11, seed=2))
        assert len(compared) == 1

    def test_failed_replicates(self, compared):
        x = np.linspace(0.0, 1.0, 6)
        pair, nd, d = hand_pair(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0]),
                                np.array([0.4, -0.4, 0.8, -0.8, 1.2, -1.2]), x)
        residual_bootstrap(pair, nd, d, [np.array([0.5])],
                           BootstrapConfig(n_replicates=40, seed=5))
        assert 0 < compared[0].n_failed < 40

    def test_nonconverged_replicates(self, compared):
        nd, d, pair = linear_pair(np.random.default_rng(61))
        residual_bootstrap(pair, nd, d, [BootstrapTarget(x=X0, youden=True)],
                           BootstrapConfig(n_replicates=10, seed=4), FitConfig(max_iterations=2))
        assert compared[0].n_nonconverged > 0
