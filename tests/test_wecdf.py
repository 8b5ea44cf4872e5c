"""Tests for the weighted residual ECDF and its generalized inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_cdf, reference_ecdf, reference_quantile
from robroc.huber import irls_fit
from robroc.wecdf import EcdfStack, WeightedEcdf


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


@st.composite
def tied_stacks(draw):
    """An (m, n) stack of integer-valued residuals, many of them tied, with
    positive weights that are mostly not 1."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    values = draw(st.lists(st.integers(-4, 4), min_size=m * n, max_size=m * n))
    weights = draw(st.lists(st.one_of(st.sampled_from([0.1, 1.0 / 3.0, 0.7, 1.0, 2.5]),
                                      st.floats(1e-3, 1e3)),
                            min_size=m * n, max_size=m * n))
    return (np.array(values, dtype=float).reshape(m, n),
            np.array(weights, dtype=float).reshape(m, n))


def assert_row_is_reference(row, values, weights):
    want = reference_ecdf(values, weights)
    for name, expected in zip(("support", "weights", "cum_weights", "total"), want):
        got = np.asarray(getattr(row, name))
        assert got.tobytes() == np.asarray(expected).tobytes(), name


class TestEcdfStack:
    """The stacked build and evaluation equal the one-sample ones row by
    row, bit for bit."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tied_stacks())
    def test_rows_equal_the_one_sample_build(self, stack):
        V, W = stack
        ecdfs = EcdfStack.from_residuals(V, W)
        for i, (v, w) in enumerate(zip(V, W)):
            assert_row_is_reference(ecdfs.row(i), v, w)
            assert_row_is_reference(WeightedEcdf.from_residuals(v, w), v, w)
            s = ecdfs.sizes[i]
            assert np.all(ecdfs.support[i, s:] == np.inf)
            assert np.all(ecdfs.weights[i, s:] == 0.0)
            assert np.all(ecdfs.cum_weights[i, s:] == ecdfs.total[i])

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(tied_stacks(), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_cdf_and_quantile_equal_each_row_alone(self, stack, ys, ts):
        V, W = stack
        ecdfs = EcdfStack.from_residuals(V, W)
        # the support values themselves, points between and beyond them,
        # and +inf
        Y = np.column_stack([V, np.tile(ys + [np.inf], (len(V), 1))])
        T = np.tile(ts, (len(V), 1))
        cdfs, quantiles = ecdfs.cdf(Y), ecdfs.quantile(T)
        for i in range(len(V)):
            row = ecdfs.row(i)
            assert cdfs[i].tobytes() == reference_cdf(row, Y[i]).tobytes()
            assert quantiles[i].tobytes() == reference_quantile(row, T[i]).tobytes()

    def test_unit_weights_by_default(self):
        V = np.array([[2.0, 1.0, 2.0], [0.5, 0.5, 0.5]])
        ecdfs = EcdfStack.from_residuals(V)
        np.testing.assert_array_equal(ecdfs.sizes, [2, 1])
        np.testing.assert_array_equal(ecdfs.support, [[1.0, 2.0], [0.5, np.inf]])
        np.testing.assert_array_equal(ecdfs.weights, [[1.0, 2.0], [3.0, 0.0]])
        np.testing.assert_array_equal(ecdfs.total, [3.0, 3.0])

    def test_bad_stacks_rejected(self):
        V = np.ones((2, 3))
        with pytest.raises(ValueError, match="6 values but 3 weights"):
            EcdfStack.from_residuals(V, np.ones((1, 3)))
        with pytest.raises(ValueError, match="weights must be positive"):
            EcdfStack.from_residuals(V, np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            EcdfStack.from_residuals(np.array([[1.0, 2.0], [np.nan, 0.0]]))
        with pytest.raises(ValueError, match="empty"):
            EcdfStack.from_residuals(np.ones((2, 0)))
        with pytest.raises(ValueError, match="must lie in"):
            EcdfStack.from_residuals(V).quantile(np.array([[0.5], [1.5]]))
