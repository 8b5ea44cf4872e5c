"""Tests for the cubic B-spline basis and design-matrix construction."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from conftest import full_basis_row
from robroc.errors import DataError
from robroc.splines import KnotSpec, SplineSpec, knot_sequence


def scipy_basis_matrix(xs, spec):
    """Independent basis evaluation through scipy's design_matrix."""
    lo, hi = spec.boundary
    t = np.concatenate([[lo] * 4, spec.interior, [hi] * 4])
    return BSpline.design_matrix(np.asarray(xs, dtype=float), t, 3).toarray()


def retained_row(x, spec):
    """The K + 3 basis values a one-covariate design keeps after its
    intercept: the full basis without its first function."""
    return SplineSpec((spec,)).row([x])[1:]


class TestKnotSequence:
    def test_quartile_knots_on_one_to_hundred(self):
        spec = knot_sequence(np.arange(1.0, 101.0), 3)
        assert spec.boundary == (1.0, 100.0)
        np.testing.assert_allclose(spec.interior, (25.75, 50.5, 75.25), rtol=0, atol=1e-12)

    def test_matches_quantile_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            col = rng.normal(size=rng.integers(20, 200))
            k = int(rng.integers(1, 5))
            spec = knot_sequence(col, k)
            expected = np.quantile(col, np.arange(1, k + 1) / (k + 1))
            np.testing.assert_allclose(spec.interior, expected, rtol=0, atol=1e-12)
            assert spec.boundary == (col.min(), col.max())

    def test_no_interior_knots(self):
        spec = knot_sequence([3.0, 1.0, 7.5], 0)
        assert spec.interior == ()
        assert spec.boundary == (1.0, 7.5)
        assert spec.n_columns == 3

    def test_single_knot_is_median(self):
        spec = knot_sequence(np.arange(11.0), 1)
        assert spec.interior == (5.0,)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        col = rng.uniform(0, 10, size=60)
        spec = knot_sequence(col, 3)
        for _ in range(5):
            shuffled = rng.permutation(col)
            assert knot_sequence(shuffled, 3) == spec

    def test_empty_column_rejected(self):
        with pytest.raises(DataError, match="empty"):
            knot_sequence([], 2)

    def test_nonfinite_column_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            knot_sequence([1.0, np.nan, 2.0], 0)

    def test_constant_column_rejected(self):
        with pytest.raises(DataError, match="constant"):
            knot_sequence([4.0, 4.0, 4.0], 0)

    def test_tied_quantiles_rejected(self):
        col = np.array([0.0] * 30 + [1.0])
        with pytest.raises(DataError, match="degenerate"):
            knot_sequence(col, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            knot_sequence([1.0, 2.0, 3.0], -1)


class TestBasisRows:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_row_lengths(self, k):
        spec = knot_sequence(np.linspace(0, 1, 50), k)
        assert full_basis_row(0.5, spec).size == k + 4
        assert retained_row(0.5, spec).size == k + 3
        assert spec.n_columns == k + 3

    def test_partition_of_unity(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            col = rng.uniform(-5, 5, size=rng.integers(15, 80))
            k = int(rng.integers(0, 5))
            spec = knot_sequence(col, k)
            lo, hi = spec.boundary
            points = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=25)])
            for x in points:
                row = full_basis_row(x, spec)
                assert np.all(row >= 0.0)
                assert abs(row.sum() - 1.0) <= 1e-12

    def test_left_boundary_row_is_zero_after_drop(self):
        spec = knot_sequence(np.linspace(2, 9, 40), 0)
        np.testing.assert_array_equal(retained_row(2.0, spec), np.zeros(3))
        full = full_basis_row(2.0, spec)
        assert full[0] == 1.0

    def test_right_boundary_mass_on_last_function(self):
        spec = knot_sequence(np.linspace(2, 9, 40), 2)
        full = full_basis_row(9.0, spec)
        assert full[-1] == 1.0
        assert np.all(full[:-1] == 0.0)

    def test_local_support(self):
        rng = np.random.default_rng(31)
        spec = knot_sequence(rng.uniform(0, 1, 100), 4)
        lo, hi = spec.boundary
        for x in rng.uniform(lo, hi, 50):
            row = full_basis_row(x, spec)
            assert np.count_nonzero(row) <= 4

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_extrapolation_rejected(self, x):
        spec = KnotSpec(boundary=(0.0, 1.0))
        with pytest.raises(DataError, match="extrapolate"):
            retained_row(x, spec)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_against_scipy_basis(self, k):
        rng = np.random.default_rng(47)
        col = rng.uniform(-1, 3, size=120)
        spec = knot_sequence(col, k)
        lo, hi = spec.boundary
        xs = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=40)])
        expected = scipy_basis_matrix(xs, spec)
        for x, ref in zip(xs, expected):
            np.testing.assert_allclose(full_basis_row(x, spec), ref,
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(retained_row(x, spec), full_basis_row(x, spec)[1:])


class TestDesigns:
    def test_single_covariate_shape(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(50, 1))
        spec = SplineSpec.from_data(X, 0)
        Z = spec.matrix(X)
        assert Z.shape == (50, 4)
        np.testing.assert_array_equal(Z[:, 0], np.ones(50))

    @pytest.mark.parametrize("counts,q", [((0, 0), 7), ((3, 3), 13)])
    def test_two_covariate_column_counts(self, counts, q):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(80, 2))
        spec = SplineSpec.from_data(X, counts)
        assert spec.n_columns == q
        assert spec.matrix(X).shape == (80, q)

    def test_spline_entries_within_unit_interval(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-2, 2, size=(60, 2))
        Z = SplineSpec.from_data(X, (2, 3)).matrix(X)
        block = Z[:, 1:]
        assert block.min() >= 0.0 and block.max() <= 1.0

    def test_passthrough_column_kept_verbatim(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([rng.uniform(0, 1, 40),
                             rng.integers(0, 2, 40).astype(float)])
        spec = SplineSpec.from_data(X, [0, None])
        assert spec.n_columns == 1 + 3 + 1
        Z = spec.matrix(X)
        np.testing.assert_array_equal(Z[:, -1], X[:, 1])

    def test_row_matches_matrix(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 1, size=(30, 2))
        spec = SplineSpec.from_data(X, (1, 0))
        Z = spec.matrix(X)
        for j in (0, 7, 29):
            np.testing.assert_array_equal(spec.row(X[j]), Z[j])

    def test_linear_design(self):
        # all-passthrough spec: the plain intercept-plus-covariates design
        design = SplineSpec((None, None))
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Z = design.matrix(X)
        assert design.n_columns == 3
        np.testing.assert_array_equal(Z, [[1, 1, 2], [1, 3, 4]])
        np.testing.assert_array_equal(design.row([5.0, 6.0]), [1, 5, 6])

    def test_extrapolating_row_rejected(self):
        X = np.linspace(0, 1, 25)[:, None]
        spec = SplineSpec.from_data(X, 0)
        with pytest.raises(DataError, match="extrapolate"):
            spec.row([1.5])

    def test_wrong_count_length_rejected(self):
        X = np.random.default_rng(29).uniform(size=(20, 2))
        with pytest.raises(ValueError):
            SplineSpec.from_data(X, [0, 1, 2])

    def test_wrong_column_count_rejected(self):
        X = np.random.default_rng(37).uniform(size=(20, 2))
        spec = SplineSpec.from_data(X, 0)
        with pytest.raises(DataError):
            spec.matrix(X[:, :1])
