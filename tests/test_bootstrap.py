"""Tests for the weighted residual bootstrap and percentile intervals."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import (binary_samples, per_replicate_statistic, point_auc, point_roc,
                      point_youden, row_means)
from robroc import bootstrap
from robroc.bootstrap import (BootstrapConfig, _resample_indices, _resampling_cdf,
                              percentile_interval, residual_bootstrap,
                              unconditional_auc_bootstrap)
from robroc.data import GroupSample
from robroc.errors import NumericalError
from robroc.huber import FitConfig, RobustFit, irls_fit
from robroc.roc import (GroupFit, PopulationPair, auc_closed_form, fit_pair,
                        robust_unconditional_auc, roc_values, unconditional_auc,
                        youden_index)
from robroc.simulate import generate, scenario, true_auc
from robroc.splines import SplineSpec

X0 = np.array([0.5])


def linear_pair(rng, n_nd=35, n_d=35):
    nd, d = generate(scenario("I"), n_nd, n_d, seed=rng.integers(2 ** 31))
    return fit_pair(nd, d, 0)


def hand_pair(nd_residuals, d_residuals, x):
    """Pair over the linear design [1, x] whose refit inputs are fully
    controlled."""
    def group(res, sample):
        res = np.asarray(res, dtype=float)
        n = res.size
        fit = RobustFit(beta=np.array([0.0, 1.0]), sigma=1.0,
                        std_residuals=res, huber_weights=np.ones(n),
                        truncated_weights=np.ones(n), iterations=1,
                        converged=True)
        return GroupFit(fit, SplineSpec((None,)), sample)

    x = np.asarray(x, dtype=float)
    nd = GroupSample(outcomes=x + np.asarray(nd_residuals, dtype=float),
                     covariates=x[:, None], label="nondiseased")
    d = GroupSample(outcomes=x + np.asarray(d_residuals, dtype=float),
                    covariates=x[:, None], label="diseased")
    return PopulationPair(nondiseased=group(nd_residuals, nd),
                          diseased=group(d_residuals, d))


def replicate_inputs(pair):
    """The fits, design matrices and refit settings that the bootstraps
    passed to the replicate loop before a pair carried its samples and fit
    settings."""
    groups = (pair.nondiseased, pair.diseased)
    return ([g.fit for g in groups], [g.design.matrix(g.sample.covariates) for g in groups],
            pair.config)


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

    def test_nearest_rank_rounds_a_fractional_rank_up(self):
        # B = 101 at alpha 0.05: the ranks 2.525 and 98.475 round up to 3
        # and 99, where a floor would give 2 and 98
        assert percentile_interval(np.arange(101.0), 0.05) == (2.0, 98.0)

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
        pair = linear_pair(rng)

        def band(seed):
            res = residual_bootstrap(pair, X0, BootstrapConfig(n_replicates=40, seed=seed),
                                     t_grid=np.linspace(0.0, 1.0, 11))
            return np.concatenate([res.auc_lower, res.auc_upper, res.roc_lower[0],
                                   res.roc_upper[0]])

        np.testing.assert_array_equal(band(7), band(7))
        assert not np.array_equal(band(7), band(8))

    def test_bare_x_targets_are_wrapped(self):
        rng = np.random.default_rng(23)
        pair = linear_pair(rng)
        # a 1-d x holds points of one covariate
        res = residual_bootstrap(pair, [0.25, 0.75], BootstrapConfig(n_replicates=10, seed=1))
        np.testing.assert_array_equal(res.x, [[0.25], [0.75]])
        assert res.auc.shape == res.auc_lower.shape == res.auc_upper.shape == (2,)
        assert res.roc is None and res.youden is None

    def test_empty_targets_rejected(self):
        rng = np.random.default_rng(29)
        pair = linear_pair(rng)
        with pytest.raises(ValueError, match="no covariate points"):
            residual_bootstrap(pair, [])

    def test_band_and_youden_outputs(self):
        rng = np.random.default_rng(31)
        pair = linear_pair(rng)
        t_grid = np.linspace(0.0, 1.0, 21)
        res = residual_bootstrap(pair, X0, BootstrapConfig(n_replicates=30, seed=2),
                                 t_grid=t_grid, youden=True)
        assert res.n_replicates == 30
        assert res.n_failed == 0
        assert res.unreliable is False
        assert res.auc_lower[0] <= res.auc_upper[0]
        for arr in (res.roc, res.roc_lower, res.roc_upper):
            assert arr.shape == (1, 21)
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert np.all(res.roc_lower <= res.roc_upper)
        for arr in (res.youden, res.threshold, res.youden_lower, res.youden_upper):
            assert arr.shape == (1,)
        assert 0.0 <= res.youden[0] <= 1.0
        assert np.isfinite(res.threshold[0])
        assert res.youden_lower[0] <= res.youden_upper[0]

    def test_frozen_rows_equal_per_point_functions(self, monkeypatch):
        # the replicate values, computed from target rows built once, equal
        # the per-point functions on the same refits bit for bit
        nd, d = generate(scenario("I", contamination=0.05), 90, 80, seed=37)
        pair = fit_pair(nd, d, 2)
        t_grid = np.linspace(0.0, 1.0, 41)
        points = np.array([[0.12], [0.3], [0.5], [0.71], [0.88]])
        seen = []
        replicates = bootstrap._replicates

        def recording(pair, cfg, statistic):
            def record(refits, ys):
                values = statistic(refits, ys)
                seen.extend(zip(zip(*refits), zip(*values)))
                return values
            return replicates(pair, cfg, record)

        monkeypatch.setattr(bootstrap, "_replicates", recording)
        res = residual_bootstrap(pair, points, BootstrapConfig(n_replicates=24, seed=5),
                                 t_grid=t_grid, youden=True)
        assert len(seen) == 24
        groups = (pair.nondiseased, pair.diseased)
        for refits, (auc, band, youden) in seen:
            rep = PopulationPair(*(GroupFit(f, g.design) for f, g in zip(refits, groups)))
            for k, x in enumerate(points):
                assert auc[k] == auc_closed_form(rep, x)
                assert np.array_equal(band[k], roc_values(rep, x, t_grid))
                assert tuple(youden[k]) == youden_index(rep, x)
        for k, x in enumerate(points):
            assert res.auc[k] == auc_closed_form(pair, x)
            assert np.array_equal(res.roc[k], roc_values(pair, x, t_grid))
            assert (res.youden[k], res.threshold[k]) == youden_index(pair, x)

    def test_pair_without_samples_rejected(self):
        pair = hand_pair(np.full(6, 0.3), np.full(6, -0.2), np.linspace(0.0, 1.0, 6))
        uauc_pair = robust_unconditional_auc(np.arange(6.0), np.arange(6.0) + 0.5)[1]
        cfg = BootstrapConfig(n_replicates=2)
        calls = ((pair, lambda bare: residual_bootstrap(bare, [0.5], cfg)),
                 (uauc_pair, lambda bare: unconditional_auc_bootstrap(bare, cfg)))
        for p, call in calls:
            for bare in (replace(p, nondiseased=replace(p.nondiseased, sample=None)),
                         replace(p, diseased=replace(p.diseased, sample=None))):
                with pytest.raises(ValueError, match="without its samples"):
                    call(bare)
        # a pair with covariates is not the unconditional AUC's pair
        with pytest.raises(ValueError, match="intercept-only pair"):
            unconditional_auc_bootstrap(pair, BootstrapConfig(n_replicates=2))

    def test_single_distinct_residual_fails_every_replicate(self):
        # constant residuals put every refit outcome exactly on the fitted
        # line, so each replicate dies on a zero MAD
        x = np.linspace(0.0, 1.0, 6)
        pair = hand_pair(np.full(6, 0.3), np.full(6, -0.2), x)
        with pytest.raises(NumericalError,
                           match="every bootstrap replicate failed"):
            residual_bootstrap(pair, [np.array([0.5])], BootstrapConfig(n_replicates=20, seed=3))

    def test_partial_failures_set_unreliable_flag(self):
        # five of six residuals are zero: a resample that misses the sixth
        # row refits interpolating data and fails, the rest succeed
        x = np.linspace(0.0, 1.0, 6)
        nd_res = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0])
        d_res = np.array([0.4, -0.4, 0.8, -0.8, 1.2, -1.2])
        pair = hand_pair(nd_res, d_res, x)
        res = residual_bootstrap(pair, [np.array([0.5])], BootstrapConfig(n_replicates=40, seed=5))
        assert 0 < res.n_failed < 40
        assert res.unreliable is True

    @pytest.mark.parametrize("n_forced, unreliable", [(1, False), (2, True)])
    def test_unreliable_only_above_five_percent(self, monkeypatch, n_forced, unreliable):
        # B = 20: one failed replicate is exactly 5% of B and leaves the
        # result reliable; a second one makes it unreliable
        refit = bootstrap.irls_refit
        calls = []

        def failing(Z, Y, config, beta_init=None):
            fits = refit(Z, Y, config, beta_init)
            calls.append(len(fits))
            if len(calls) == 1:  # the nondiseased refits of the first chunk
                fits[:n_forced] = [NumericalError("forced")] * n_forced
            return fits

        monkeypatch.setattr(bootstrap, "irls_refit", failing)
        pair = linear_pair(np.random.default_rng(71))
        res = residual_bootstrap(pair, [X0], BootstrapConfig(n_replicates=20, seed=1))
        assert calls[0] == 20
        assert res.n_failed == n_forced
        assert res.unreliable is unreliable

    def test_interval_covers_truth_at_nominal_rate(self):
        scn = scenario("I")
        truth = true_auc(scn, 0.5)
        covered = 0
        for r in range(60):
            nd, d = generate(scn, 100, 100, seed=(37, r))
            pair = fit_pair(nd, d, 0)
            res = residual_bootstrap(pair, [X0], BootstrapConfig(n_replicates=100, seed=r))
            covered += res.auc_lower[0] <= truth <= res.auc_upper[0]
        assert 0.85 <= covered / 60 <= 1.0


class TestReplicateTallies:
    # one warm-started IRLS step never meets the tolerance, so every
    # replicate that does not fail is a non-converged one
    def test_residual_bootstrap_counts_nonconverged(self):
        pair = replace(linear_pair(np.random.default_rng(61)), config=FitConfig(max_iterations=1))
        res = residual_bootstrap(pair, [X0], BootstrapConfig(n_replicates=25, seed=4))
        assert res.n_replicates == 25
        assert res.n_nonconverged == res.n_replicates - res.n_failed > 0

    def test_unconditional_bootstrap_counts_nonconverged(self):
        rng = np.random.default_rng(67)
        _, pair = robust_unconditional_auc(rng.normal(0.0, 1.0, 60), rng.normal(1.0, 1.0, 60),
                                           FitConfig(max_iterations=1))
        summary = unconditional_auc_bootstrap(pair, BootstrapConfig(n_replicates=25, seed=4))
        assert summary.n_replicates == 25
        assert summary.n_nonconverged == summary.n_replicates - summary.n_failed > 0


class TestUnconditionalAucBootstrap:
    def test_interval_and_determinism(self):
        rng = np.random.default_rng(41)
        y_nd = rng.normal(0.0, 1.0, 80)
        y_d = rng.normal(1.0, 1.0, 80)
        cfg = BootstrapConfig(n_replicates=60, seed=6)
        _, pair = robust_unconditional_auc(y_nd, y_d)
        res = unconditional_auc_bootstrap(pair, cfg)
        # one point with no covariates
        assert res.x.shape == (1, 0)
        assert res.auc.shape == res.auc_lower.shape == res.auc_upper.shape == (1,)
        assert res.roc is None and res.youden is None
        (auc,), (lo,), (hi,) = res.auc, res.auc_lower, res.auc_upper
        assert 0.6 < auc < 0.9
        assert 0.0 <= lo < hi <= 1.0
        assert res.n_replicates == 60
        again = unconditional_auc_bootstrap(pair, cfg)
        assert (auc, lo, hi) == (again.auc[0], again.auc_lower[0], again.auc_upper[0])


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
    return values, {"n_replicates": cfg.n_replicates, "n_failed": n_failed,
                    "n_nonconverged": n_nonconverged,
                    "unreliable": n_failed > bootstrap.FAILURE_WARNING_FRACTION * cfg.n_replicates}


def one_replicate(statistic):
    """A chunk statistic as a per-replicate one: the chunk of one replicate,
    each array's one row."""
    return lambda refits, ys: [None if v is None else v[0] for v in
                               statistic([[f] for f in refits], [y[None] for y in ys])]


def stacked(values):
    """Per-replicate values as the chunk statistics' arrays, a row per
    replicate."""
    return tuple(None if v[0] is None else np.array(v) for v in zip(*values))


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

        def both(pair, cfg, statistic):
            fits, designs, fit_config = replicate_inputs(pair)
            if request.param == "chunks_of_three":
                monkeypatch.setattr(bootstrap, "REFIT_CHUNK_VALUES",
                                    3 * max(Z.shape[0] for Z in designs))
            values, counts = batched(pair, cfg, statistic)
            expected, parent = parent_replicates(fits, designs, cfg, fit_config,
                                                 one_replicate(statistic))
            assert_same(values, stacked(expected))
            assert counts == parent
            runs.append(counts)
            return values, counts

        monkeypatch.setattr(bootstrap, "_replicates", both)
        return runs

    def test_band_and_youden(self, compared):
        nd, d = generate(scenario("I", contamination=0.05), 90, 70, seed=41)
        pair = fit_pair(nd, d, 2)
        residual_bootstrap(pair, [0.2, 0.6], BootstrapConfig(n_replicates=13, seed=3),
                           t_grid=np.linspace(0.0, 1.0, 21), youden=True)
        assert len(compared) == 1

    def test_unconditional_auc(self, compared):
        rng = np.random.default_rng(43)
        _, pair = robust_unconditional_auc(rng.standard_t(3, 50), rng.standard_t(3, 40) + 1.0)
        unconditional_auc_bootstrap(pair, BootstrapConfig(n_replicates=11, seed=2))
        assert len(compared) == 1

    def test_failed_replicates(self, compared):
        x = np.linspace(0.0, 1.0, 6)
        pair = hand_pair(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0]),
                         np.array([0.4, -0.4, 0.8, -0.8, 1.2, -1.2]), x)
        residual_bootstrap(pair, [np.array([0.5])], BootstrapConfig(n_replicates=40, seed=5))
        assert 0 < compared[0]["n_failed"] < 40

    def test_nonconverged_replicates(self, compared):
        pair = replace(linear_pair(np.random.default_rng(61)), config=FitConfig(max_iterations=2))
        residual_bootstrap(pair, X0, BootstrapConfig(n_replicates=10, seed=4), youden=True)
        assert compared[0]["n_nonconverged"] > 0


class TestChunkStatisticEqualsPerReplicate:
    """residual_bootstrap's chunk statistic equals the per-replicate route,
    a GroupFit, PopulationPair and evaluate per replicate, bit for bit on the
    same refits; the counts equal the unbatched loop's."""

    @pytest.fixture(params=[1, 3, 7])
    def compare(self, request, monkeypatch):
        def run(pair, x, cfg, t_grid=None, youden=False):
            runs = []
            batched = bootstrap._replicates
            reference = per_replicate_statistic((pair.nondiseased, pair.diseased),
                                                pair.design_rows(np.asarray(x)), t_grid, youden)

            def both(pair, cfg, statistic):
                fits, designs, fit_config = replicate_inputs(pair)
                monkeypatch.setattr(bootstrap, "REFIT_CHUNK_VALUES",
                                    request.param * max(Z.shape[0] for Z in designs))
                got = batched(pair, cfg, statistic)
                assert_same(got, batched(pair, cfg, reference))
                values, counts = parent_replicates(fits, designs, cfg, fit_config,
                                                   one_replicate(reference))
                assert_same(got, (stacked(values), counts))
                runs.append(got[1])
                return got

            monkeypatch.setattr(bootstrap, "_replicates", both)
            residual_bootstrap(pair, x, cfg, t_grid=t_grid, youden=youden)
            (counts,) = runs
            return counts

        return run

    def test_chunk_boundaries(self, compare):
        nd, d = generate(scenario("I", contamination=0.05), 90, 70, seed=43)
        compare(fit_pair(nd, d, 2), [[0.2], [0.5], [0.8]],
                BootstrapConfig(n_replicates=17, seed=4), t_grid=np.linspace(0.0, 1.0, 11),
                youden=True)

    def test_degenerate_scale_inside_a_chunk(self, compare):
        # a resample that misses the sixth row refits interpolating data and
        # fails on a zero MAD, between replicates that succeed
        x = np.linspace(0.0, 1.0, 6)
        pair = hand_pair(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0]),
                         np.array([0.4, -0.4, 0.8, -0.8, 1.2, -1.2]), x)
        counts = compare(pair, [[0.3], [0.5]], BootstrapConfig(n_replicates=40, seed=5),
                         t_grid=np.linspace(0.0, 1.0, 5), youden=True)
        assert 0 < counts["n_failed"] < 40 and counts["unreliable"]

    def test_nonconverged_refits(self, compare):
        pair = replace(linear_pair(np.random.default_rng(61)), config=FitConfig(max_iterations=2))
        counts = compare(pair, [X0], BootstrapConfig(n_replicates=10, seed=4), youden=True)
        assert counts["n_nonconverged"] > 0

    def test_tied_residuals(self, compare):
        # a 0/1 covariate with integer outcomes: residual supports shorter
        # than the sample, by a different count in each replicate
        nd, d = binary_samples(29, 60, 45, tied=True)
        pair = fit_pair(nd, d, [None])
        assert pair.nondiseased.ecdf.support.size < 60
        compare(pair, [[0.0], [1.0]], BootstrapConfig(n_replicates=19, seed=6),
                t_grid=np.linspace(0.0, 1.0, 9), youden=True)


@dataclass
class ParentTarget:
    x: np.ndarray
    t_grid: np.ndarray | None = None
    youden: bool = False


@dataclass
class ParentTargetResult:
    x: np.ndarray
    auc: float
    auc_lower: float
    auc_upper: float
    roc: np.ndarray | None = None
    roc_lower: np.ndarray | None = None
    roc_upper: np.ndarray | None = None
    youden: tuple[float, float] | None = None
    youden_lower: float | None = None
    youden_upper: float | None = None


def parent_residual_bootstrap(pair, nondiseased, diseased, targets, config, fit_config=None):
    """The bootstrap before it took a grid of points: one option record per
    target, one packed result per target, over the unbatched replicate loop.
    Returns the per-target results and the replicate counts."""
    fcfg = fit_config or FitConfig(tuning=pair.nondiseased.fit.tuning,
                                   truncation=pair.nondiseased.fit.truncation)
    targets = [t if isinstance(t, ParentTarget) else ParentTarget(x=np.atleast_1d(np.asarray(t, dtype=float)))
               for t in targets]
    groups = (pair.nondiseased, pair.diseased)
    rows = [g.design.matrix(np.vstack([tgt.x for tgt in targets])) for g in groups]

    def evaluate(p):
        means = zip(*(row_means(g.fit, r) for g, r in zip((p.nondiseased, p.diseased), rows)))
        return [(point_auc(p, *mu),
                 point_roc(p, *mu, tgt.t_grid) if tgt.t_grid is not None else None,
                 point_youden(p, *mu) if tgt.youden else None)
                for tgt, mu in zip(targets, means)]

    reps, counts = parent_replicates(
        [g.fit for g in groups],
        [g.design.matrix(s.covariates) for g, s in zip(groups, (nondiseased, diseased))],
        config, fcfg,
        lambda refits, _: evaluate(PopulationPair(*(GroupFit(f, g.design, g.sample)
                                                    for f, g in zip(refits, groups)))))
    results = []
    for k, (tgt, (auc, band_hat, youden)) in enumerate(zip(targets, evaluate(pair))):
        a_lo, a_hi = percentile_interval([r[k][0] for r in reps], config.alpha)
        res = ParentTargetResult(x=tgt.x, auc=auc, auc_lower=a_lo, auc_upper=a_hi)
        if tgt.t_grid is not None:
            res.roc = band_hat
            res.roc_lower, res.roc_upper = percentile_interval(
                np.vstack([r[k][1] for r in reps]), config.alpha)
        if tgt.youden:
            res.youden = youden
            res.youden_lower, res.youden_upper = percentile_interval(
                [r[k][2][0] for r in reps], config.alpha)
        results.append(res)
    return results, counts


def parent_unconditional_auc_bootstrap(y_nondiseased, y_diseased, config, fit_config=None):
    """The unconditional bootstrap's (auc, lower, upper, counts) 4-tuple,
    from its own intercept-only fits on columns of ones."""
    y_nd = np.asarray(y_nondiseased, dtype=float).ravel()
    y_d = np.asarray(y_diseased, dtype=float).ravel()
    fit_nd = irls_fit(np.ones((y_nd.size, 1)), y_nd, fit_config)
    fit_d = irls_fit(np.ones((y_d.size, 1)), y_d, fit_config)
    auc_hat = unconditional_auc(y_nd, y_d, fit_nd.truncated_weights, fit_d.truncated_weights)
    reps, counts = parent_replicates(
        [fit_nd, fit_d], [np.ones((y_nd.size, 1)), np.ones((y_d.size, 1))],
        config, fit_config,
        lambda refits, ys: unconditional_auc(ys[0], ys[1], refits[0].truncated_weights,
                                             refits[1].truncated_weights))
    lo, hi = percentile_interval(reps, config.alpha)
    return auc_hat, lo, hi, counts


class TestEqualsParentBootstrap:
    """A grid of points in one call gives, row by row, the per-target
    results of the bootstrap that took one option record per point, bit for
    bit, with the same counts."""

    @staticmethod
    def assert_rows_equal(res, parent, counts, t_grid=None, youden=False):
        assert np.array_equal(res.x, np.vstack([p.x for p in parent]))
        for name in ("auc", "auc_lower", "auc_upper"):
            assert np.array_equal(getattr(res, name), [getattr(p, name) for p in parent])
        if t_grid is None:
            assert res.roc is res.roc_lower is res.roc_upper is None
        else:
            for name in ("roc", "roc_lower", "roc_upper"):
                assert np.array_equal(getattr(res, name), [getattr(p, name) for p in parent])
        if youden:
            assert np.array_equal(res.youden, [p.youden[0] for p in parent])
            assert np.array_equal(res.threshold, [p.youden[1] for p in parent])
            for name in ("youden_lower", "youden_upper"):
                assert np.array_equal(getattr(res, name), [getattr(p, name) for p in parent])
        else:
            assert res.youden is res.threshold is res.youden_lower is res.youden_upper is None
        assert {name: getattr(res, name) for name in counts} == counts

    def compare(self, pair, x, targets, cfg, t_grid=None, youden=False):
        res = residual_bootstrap(pair, x, cfg, t_grid=t_grid, youden=youden)
        parent, counts = parent_residual_bootstrap(pair, pair.nondiseased.sample,
                                                   pair.diseased.sample, targets, cfg, pair.config)
        self.assert_rows_equal(res, parent, counts, t_grid, youden)
        return res

    def test_points_of_one_covariate_with_band_and_youden(self):
        nd, d = generate(scenario("I", contamination=0.05), 90, 70, seed=47)
        pair = fit_pair(nd, d, 2)
        t_grid = np.linspace(0.0, 1.0, 31)
        points = [0.15, 0.4, 0.55, 0.8]
        self.compare(pair, np.array(points)[:, None],
                     [ParentTarget(x=np.array([x]), t_grid=t_grid, youden=True) for x in points],
                     BootstrapConfig(n_replicates=17, seed=8), t_grid=t_grid, youden=True)

    def test_two_covariates(self):
        nd, d = generate(scenario("IV", contamination=0.05), 80, 80, seed=53)
        pair = fit_pair(nd, d, [1, 0])
        t_grid = np.linspace(0.0, 1.0, 11)
        points = np.array([[0.3, 1.0], [0.7, 0.5], [0.5, 1.5]])
        self.compare(pair, points,
                     [ParentTarget(x=x, t_grid=t_grid, youden=True) for x in points],
                     BootstrapConfig(n_replicates=12, seed=2, alpha=0.1),
                     t_grid=t_grid, youden=True)

    def test_one_dimensional_x(self):
        pair = linear_pair(np.random.default_rng(59))
        res = self.compare(pair, [0.2, 0.5, 0.9], [0.2, 0.5, 0.9],
                           BootstrapConfig(n_replicates=15, seed=6))
        assert res.x.shape == (3, 1)

    def test_failed_replicates(self):
        x = np.linspace(0.0, 1.0, 6)
        pair = hand_pair(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0]),
                         np.array([0.4, -0.4, 0.8, -0.8, 1.2, -1.2]), x)
        t_grid = np.linspace(0.0, 1.0, 5)
        res = self.compare(pair, [[0.3], [0.5]],
                           [ParentTarget(x=np.array([v]), t_grid=t_grid, youden=True)
                            for v in (0.3, 0.5)],
                           BootstrapConfig(n_replicates=40, seed=5), t_grid=t_grid, youden=True)
        assert 0 < res.n_failed < 40 and res.unreliable is True

    def test_nonconverged_replicates(self):
        pair = replace(linear_pair(np.random.default_rng(61)), config=FitConfig(max_iterations=2))
        res = self.compare(pair, X0, [ParentTarget(x=X0, youden=True)],
                           BootstrapConfig(n_replicates=10, seed=4), youden=True)
        assert res.n_nonconverged > 0

    def test_pair_refits_with_its_own_fit_settings(self):
        # three warm-started IRLS steps never meet the tolerance here, so a
        # bootstrap that refit with the default settings would count none
        nd, d = generate(scenario("I", contamination=0.05), 120, 120, seed=0)
        pair = fit_pair(nd, d, 1, FitConfig(max_iterations=3))
        assert pair.config == FitConfig(max_iterations=3)
        res = self.compare(pair, X0, [X0], BootstrapConfig(n_replicates=40, seed=0))
        assert res.n_nonconverged == 40 and res.n_failed == 0

    def test_unconditional_auc(self):
        rng = np.random.default_rng(71)
        y_nd, y_d = rng.standard_t(3, 50), rng.standard_t(3, 40) + 1.0
        for fit_config in (None, FitConfig(max_iterations=1)):
            cfg = BootstrapConfig(n_replicates=21, seed=9)
            res = unconditional_auc_bootstrap(robust_unconditional_auc(y_nd, y_d, fit_config)[1],
                                              cfg)
            auc, lo, hi, counts = parent_unconditional_auc_bootstrap(y_nd, y_d, cfg, fit_config)
            assert res.x.shape == (1, 0)
            assert np.array_equal(res.auc, [auc])
            assert np.array_equal(res.auc_lower, [lo]) and np.array_equal(res.auc_upper, [hi])
            assert {name: getattr(res, name) for name in counts} == counts
