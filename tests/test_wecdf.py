"""Tests for the weighted residual ECDF and its generalized inverse."""

import numpy as np
import pytest

from robroc.huber import irls_fit
from robroc.wecdf import WeightedEcdf


class TestConstruction:
    def test_ties_merged_with_summed_weight(self):
        d = WeightedEcdf.from_residuals([1.0, 2.0, 1.0], [0.5, 2.0, 0.5])
        np.testing.assert_array_equal(d.support, [1.0, 2.0])
        np.testing.assert_array_equal(d.weights, [1.0, 2.0])
        assert d.total == 3.0
        assert d.support.size == 2

    def test_default_unit_weights(self):
        d = WeightedEcdf.from_residuals([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(d.support, [1.0, 2.0, 3.0])
        assert d.total == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WeightedEcdf.from_residuals([])

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedEcdf.from_residuals([1.0, np.inf])

    @pytest.mark.parametrize("w", [[1.0, 0.0], [1.0, -1.0], [1.0, np.nan]])
    def test_bad_weights_rejected(self, w):
        with pytest.raises(ValueError, match="weights"):
            WeightedEcdf.from_residuals([1.0, 2.0], w)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedEcdf.from_residuals([1.0, 2.0], [1.0])


class TestCdf:
    def test_weighted_example(self):
        d = WeightedEcdf.from_residuals([-1.0, 0.0, 3.5], [1.0, 1.0, 0.4])
        assert d.cdf(0.0) == pytest.approx(2.0 / 2.4, abs=1e-12)

    def test_uniform_weights_recover_ecdf(self):
        d = WeightedEcdf.from_residuals([1.0, 2.0, 3.0])
        assert d.cdf(2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_boundary_values(self):
        d = WeightedEcdf.from_residuals([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert d.cdf(0.999) == 0.0
        assert d.cdf(3.0) == 1.0
        assert d.cdf(50.0) == 1.0

    def test_right_continuity_steps(self):
        d = WeightedEcdf.from_residuals([0.0, 1.0])
        assert d.cdf(1.0 - 1e-12) == 0.5
        assert d.cdf(1.0) == 1.0

    def test_vectorized(self):
        d = WeightedEcdf.from_residuals([1.0, 2.0, 3.0])
        out = d.cdf([0.0, 1.5, 3.0])
        np.testing.assert_allclose(out, [0.0, 1 / 3, 1.0])
        assert isinstance(d.cdf(1.0), float)

    def test_nondecreasing_range(self):
        rng = np.random.default_rng(9)
        d = WeightedEcdf.from_residuals(rng.normal(size=40),
                                        rng.uniform(0.1, 1, size=40))
        ys = np.sort(rng.normal(size=200))
        vals = d.cdf(ys)
        assert np.all(np.diff(vals) >= 0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestQuantile:
    def test_median_convention(self):
        d = WeightedEcdf.from_residuals([1.0, 2.0, 3.0])
        assert d.quantile(0.5) == 2.0

    def test_edge_probabilities(self):
        d = WeightedEcdf.from_residuals([1.0, 2.0, 3.0])
        assert d.quantile(1.0) == 3.0
        assert d.quantile(0.0) == 1.0

    def test_exact_cumulative_fraction_picks_smallest(self):
        # unit weights, n=4: cumulative fractions 0.25/0.5/0.75/1 are exact
        d = WeightedEcdf.from_residuals([10.0, 20.0, 30.0, 40.0])
        assert d.quantile(0.25) == 10.0
        assert d.quantile(0.5) == 20.0
        assert d.quantile(0.75) == 30.0

    def test_out_of_range_rejected(self):
        d = WeightedEcdf.from_residuals([1.0])
        for t in (-0.1, 1.1, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="must lie in"):
                d.quantile(t)

    def test_quantiles_live_on_support(self):
        rng = np.random.default_rng(15)
        d = WeightedEcdf.from_residuals(rng.normal(size=25),
                                        rng.uniform(0.5, 2, size=25))
        for t in rng.uniform(0, 1, size=50):
            assert d.quantile(t) in d.support

    def test_nondecreasing_in_t(self):
        rng = np.random.default_rng(21)
        d = WeightedEcdf.from_residuals(rng.normal(size=30),
                                        rng.uniform(0.1, 1, size=30))
        ts = np.linspace(0, 1, 101)
        qs = d.quantile(ts)
        assert np.all(np.diff(qs) >= 0)

    def test_galois_property(self):
        # evaluate t strictly between cumulative jumps and y on and between
        # support points, so no comparison sits on a floating-point knife edge
        rng = np.random.default_rng(27)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            d = WeightedEcdf.from_residuals(rng.normal(size=n),
                                            rng.uniform(0.2, 2, size=n))
            fracs = d.cum_weights / d.total
            inner = np.concatenate([[0.0], fracs])
            ts = (inner[:-1] + inner[1:]) / 2.0
            mids = (d.support[:-1] + d.support[1:]) / 2.0
            ys = np.concatenate([d.support, mids,
                                 [d.support[0] - 1, d.support[-1] + 1]])
            for t in ts:
                for y in ys:
                    assert (d.quantile(t) <= y) == (t <= d.cdf(y))

    def test_cdf_of_quantile_covers_t(self):
        rng = np.random.default_rng(33)
        d = WeightedEcdf.from_residuals(rng.normal(size=35),
                                        rng.uniform(0.1, 1, size=35))
        for t in rng.uniform(1e-9, 1.0, size=200):
            assert d.cdf(d.quantile(t)) >= t - 1e-12


class TestResidualDiagnostics:
    def test_weighted_residual_mean_near_zero(self):
        # soft sanity check on a well-specified fit, not a hard identity
        rng = np.random.default_rng(39)
        n = 150
        x = rng.uniform(0, 1, n)
        Z = np.column_stack([np.ones(n), x])
        y = 0.5 + x + rng.normal(scale=1.5, size=n)
        fit = irls_fit(Z, y)
        w = fit.truncated_weights
        assert abs(w @ fit.std_residuals) / w.sum() < 0.2

    def test_total_weight_matches_fit(self):
        rng = np.random.default_rng(45)
        n = 90
        x = rng.uniform(0, 1, n)
        Z = np.column_stack([np.ones(n), x])
        y = x + rng.standard_t(df=2, size=n)
        fit = irls_fit(Z, y)
        d = WeightedEcdf.from_residuals(fit.std_residuals, fit.truncated_weights)
        assert d.total == pytest.approx(fit.truncated_weights.sum(), rel=1e-12)
