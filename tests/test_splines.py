"""Tests for the cubic B-spline basis and design-matrix construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from conftest import full_basis_row
from robroc.errors import DataError
from robroc.roc import auc_grid, fit_pair
from robroc.simulate import generate, scenario
from robroc.splines import (KnotSpec, SplineSpec, _full_basis, design_stack, grid_stack,
                            knot_sequence)


def scipy_basis_matrix(xs, spec):
    """Independent basis evaluation through scipy's design_matrix."""
    lo, hi = spec.boundary
    t = np.concatenate([[lo] * 4, spec.interior, [hi] * 4])
    return BSpline.design_matrix(np.asarray(xs, dtype=float), t, 3).toarray()


def retained_row(x, spec):
    """The K + 3 basis values a one-covariate design keeps after its
    intercept: the full basis without its first function."""
    return SplineSpec((spec,)).matrix([[x]])[0, 1:]


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


class TestKnotSpecValidation:
    @pytest.mark.parametrize("boundary, interior", [
        ((0.0, 1.0), (0.9, 0.5, 0.1)),  # unsorted: a negative basis
        ((0.0, 1.0), (1.5,)),  # beyond the boundary: a zero row at x = 1
        ((0.0, 1.0), (0.4, 0.4)),  # tied interior pair
        ((0.0, 1.0), (0.3, np.nan)),  # NaN knot
        ((0.0, 1.0), (0.0, 0.5)),  # on the boundary
        ((0.0, np.inf), ()),
        ((np.nan, 1.0), ()),
        ((1.0, 1.0), ()),
        ((1.0, 0.0), ()),
    ])
    def test_bad_knots_rejected(self, boundary, interior):
        with pytest.raises(DataError, match="knots must be finite"):
            KnotSpec(boundary=boundary, interior=interior)

    def test_increasing_knots_accepted(self):
        spec = KnotSpec(boundary=(-1.0, 2.0), interior=(-0.5, 0.0, 1.999))
        assert spec.n_columns == 6
        basis = _full_basis(np.linspace(-1.0, 2.0, 31)[None], [spec])[0]
        assert basis.min() >= 0.0
        np.testing.assert_allclose(basis.sum(axis=0), 1.0, rtol=0, atol=1e-12)


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
        spec = design_stack(X[None], 0)[0][0]
        Z = spec.matrix(X)
        assert Z.shape == (50, 4)
        np.testing.assert_array_equal(Z[:, 0], np.ones(50))

    @pytest.mark.parametrize("counts,q", [((0, 0), 7), ((3, 3), 13)])
    def test_two_covariate_column_counts(self, counts, q):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(80, 2))
        spec = design_stack(X[None], counts)[0][0]
        assert spec.matrix(X).shape == (80, q)

    def test_spline_entries_within_unit_interval(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-2, 2, size=(60, 2))
        Z = design_stack(X[None], (2, 3))[0][0].matrix(X)
        block = Z[:, 1:]
        assert block.min() >= 0.0 and block.max() <= 1.0

    def test_passthrough_column_kept_verbatim(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([rng.uniform(0, 1, 40),
                             rng.integers(0, 2, 40).astype(float)])
        spec = design_stack(X[None], [0, None])[0][0]
        Z = spec.matrix(X)
        assert Z.shape[1] == 1 + 3 + 1
        np.testing.assert_array_equal(Z[:, -1], X[:, 1])

    def test_row_matches_matrix(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 1, size=(30, 2))
        spec = design_stack(X[None], (1, 0))[0][0]
        Z = spec.matrix(X)
        for j in (0, 7, 29):
            np.testing.assert_array_equal(spec.matrix(X[j:j + 1])[0], Z[j])

    def test_linear_design(self):
        # all-passthrough spec: the plain intercept-plus-covariates design
        design = SplineSpec((None, None))
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Z = design.matrix(X)
        np.testing.assert_array_equal(Z, [[1, 1, 2], [1, 3, 4]])
        np.testing.assert_array_equal(design.matrix([[5.0, 6.0]])[0], [1, 5, 6])

    def test_extrapolating_row_rejected(self):
        X = np.linspace(0, 1, 25)[:, None]
        spec = design_stack(X[None], 0)[0][0]
        with pytest.raises(DataError, match="extrapolate"):
            spec.matrix([[1.5]])

    def test_wrong_count_length_rejected(self):
        X = np.random.default_rng(29).uniform(size=(20, 2))
        with pytest.raises(ValueError):
            design_stack(X[None], [0, 1, 2])

    def test_wrong_column_count_rejected(self):
        X = np.random.default_rng(37).uniform(size=(20, 2))
        spec = design_stack(X[None], 0)[0][0]
        with pytest.raises(DataError):
            spec.matrix(X[:, :1])


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_covers_is_false_and_matrix_refuses(self, bad):
        spec = design_stack(np.linspace(0, 1, 30)[None], 1)[0][0]
        X = np.array([0.2, bad, 0.7])
        np.testing.assert_array_equal(spec.covers(X), [True, False, True])
        with pytest.raises(DataError, match="extrapolate"):
            spec.matrix(X)
        with pytest.raises(DataError, match="extrapolate"):
            spec.matrix([[bad]])

    def test_passthrough_column_is_not_checked(self):
        spec = SplineSpec((None,))
        assert spec.covers([np.nan]).tolist() == [True]

    def test_grid_stack_masks_nonfinite_points(self):
        specs, _ = design_stack(np.random.default_rng(2).uniform(size=(3, 40)), 1)
        rows, inside = grid_stack(specs, np.array([0.5, np.nan, np.inf]))
        assert inside.tolist() == [[True, False, False]] * 3
        assert np.all(np.isnan(rows[:, 1:])) and not np.any(np.isnan(rows[:, 0]))


# The basis and knots as they were computed one column at a time, with a
# Python loop over basis functions, before knots and bases took stacks.

def parent_knot_sequence(column, n_interior):
    col = np.asarray(column, dtype=float).ravel()
    if col.size == 0:
        raise DataError("empty covariate column")
    if not np.all(np.isfinite(col)):
        raise DataError("non-finite values in covariate column")
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        raise DataError("constant covariate column, no spline basis exists")
    interior = ()
    if n_interior > 0:
        qs = np.quantile(col, np.arange(1, n_interior + 1) / (n_interior + 1))
        interior = tuple(float(q) for q in qs)
        inner = np.asarray(interior)
        if inner[0] <= lo or inner[-1] >= hi or np.any(np.diff(inner) <= 0):
            raise DataError(
                "tied covariate quantiles give a degenerate interior knot sequence")
    return KnotSpec(boundary=(lo, hi), interior=interior)


def parent_full_basis(x, knots):
    lo, hi = knots.boundary
    t = np.concatenate([np.repeat(lo, 4), knots.interior, np.repeat(hi, 4)])
    left, right = t[:-1], t[1:]
    B = ((x[:, None] >= left) & (x[:, None] < right)).astype(float)
    at_top = x == hi
    if np.any(at_top):
        last = np.nonzero(right > left)[0][-1]
        B[at_top] = 0.0
        B[at_top, last] = 1.0
    for d in range(1, 4):
        n_next = t.size - d - 1
        nxt = np.zeros((x.size, n_next))
        for j in range(n_next):
            den = t[j + d] - t[j]
            if den > 0.0:
                nxt[:, j] += (x - t[j]) / den * B[:, j]
            den = t[j + d + 1] - t[j + 1]
            if den > 0.0:
                nxt[:, j] += (t[j + d + 1] - x) / den * B[:, j + 1]
        B = nxt
    return B


def parent_matrix(x, knots):
    return np.hstack([np.ones((x.size, 1)), parent_full_basis(x, knots)[:, 1:]])


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def parent_knots_or_error(cols, k):
    """The parent's knots of each row, or the message of the first row's
    DataError, as a loop over the rows raised it."""
    try:
        return [parent_knot_sequence(col, k) for col in cols]
    except DataError as exc:
        return str(exc)


def points_of(rng, knots, n):
    """n evaluation points: both boundaries and every interior knot first,
    shuffled with uniform draws inside the boundaries."""
    lo, hi = knots.boundary
    special = np.array([lo, hi, *knots.interior])
    pts = np.concatenate([special, rng.uniform(lo, hi, max(n - special.size, 0))])
    return rng.permutation(pts[:n]) if n < special.size else rng.permutation(pts)


class TestStackEqualsParentLoop:
    """The stacked knots and basis equal the one-column loop bit for bit."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(m=st.sampled_from([1, 2, 21]), n_train=st.integers(2, 300),
           n=st.integers(1, 300), k=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3),
           decimals=st.sampled_from([None, 0, 1]))
    def test_knots_and_basis(self, m, n_train, n, k, seed, scale, shift, decimals):
        rng = np.random.default_rng(seed)
        cols = shift + scale * rng.standard_normal((m, n_train))
        if decimals is not None:  # coarse values tie, so some rows fault
            cols = np.round(cols / scale, decimals)
        expected = parent_knots_or_error(cols, k)
        if isinstance(expected, str):
            with pytest.raises(DataError) as info:
                knot_sequence(cols, k)
            assert str(info.value) == expected
            return
        knots = knot_sequence(cols, k)
        assert knots == tuple(expected)
        x = np.array([points_of(rng, kn, n) for kn in knots])
        basis = _full_basis(x, knots)
        assert basis.shape == (m, k + 4, n)
        for r in range(m):
            assert_same_bits(basis[r].T, parent_full_basis(x[r], knots[r]))
        specs, Zs = design_stack(cols[:, :, None], k)
        assert Zs.flags.c_contiguous and Zs.shape == (m, n_train, k + 4)
        for r in range(m):
            assert specs[r] == SplineSpec((knots[r],))
            assert_same_bits(Zs[r], parent_matrix(cols[r], knots[r]))
            Z = specs[r].matrix(cols[r])
            assert Z.flags.c_contiguous
            assert_same_bits(Z, parent_matrix(cols[r], knots[r]))

    @pytest.mark.parametrize("bad,message", [
        ([1.0, np.nan, 2.0, 3.0], "non-finite values in covariate column"),
        ([1.0, np.inf, 2.0, 3.0], "non-finite values in covariate column"),
        ([4.0, 4.0, 4.0, 4.0], "constant covariate column, no spline basis exists"),
        ([0.0, 0.0, 0.0, 1.0],
         "tied covariate quantiles give a degenerate interior knot sequence"),
    ])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_first_faulty_row_raises_its_message(self, bad, message, row):
        cols = np.tile([0.0, 1.0, 2.0, 5.0], (3, 1))
        cols[row] = bad
        assert parent_knots_or_error(cols, 3) == message
        with pytest.raises(DataError) as info:
            knot_sequence(cols, 3)
        assert str(info.value) == message

    def test_earlier_row_fault_wins(self):
        cols = np.array([[0.0, 1.0, 2.0, 5.0], [4.0] * 4, [1.0, np.nan, 2.0, 3.0]])
        with pytest.raises(DataError, match="constant"):
            knot_sequence(cols, 1)

    def test_two_covariate_designs(self):
        rng = np.random.default_rng(41)
        X = rng.uniform(-1, 2, size=(5, 50, 3))
        X[:, :, 2] = rng.integers(0, 2, size=(5, 50))
        specs, Zs = design_stack(X, (2, 0, None))
        assert Zs.shape == (5, 50, 1 + 5 + 3 + 1) and Zs.flags.c_contiguous
        for spec, Z, x in zip(specs, Zs, X):
            assert spec == design_stack(x[None], (2, 0, None))[0][0]
            expected = np.hstack([parent_matrix(x[:, 0], spec.knots[0]),
                                  parent_matrix(x[:, 1], spec.knots[1])[:, 1:], x[:, 2:]])
            assert_same_bits(Z, expected)

    def test_grid_rows_equal_matrix_on_covered_points(self):
        rng = np.random.default_rng(43)
        X = rng.uniform(0, 1, size=(6, 40, 2))
        specs, _ = design_stack(X, (1, 3))
        grid = np.column_stack([np.linspace(-0.02, 1.02, 15), np.full(15, 0.5)])
        rows, inside = grid_stack(specs, grid)
        assert rows.flags.c_contiguous and rows.shape == (6, 15, 11)
        for spec, r_rows, r_inside in zip(specs, rows, inside):
            np.testing.assert_array_equal(r_inside, spec.covers(grid))
            assert 0 < r_inside.sum() < 15
            assert_same_bits(r_rows[r_inside], spec.matrix(grid[r_inside]))
            assert np.all(np.isnan(r_rows[~r_inside]))


class TestAffineInvariance:
    """Fitting on a * x + b and evaluating at a * x0 + b, a > 0, gives the
    fit on x evaluated at x0: the knots move with x."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(a=st.floats(0.5, 20.0), b=st.floats(-5.0, 5.0), k=st.integers(0, 3),
           seed=st.integers(0, 10 ** 6))
    def test_knots_basis_and_auc_move_with_x(self, a, b, k, seed):
        nd, d = generate(scenario("III", contamination=0.05), 60, 50, seed=seed)
        moved = [type(s)(outcomes=s.outcomes, covariates=a * s.covariates + b, label=s.label)
                 for s in (nd, d)]
        pair, pair_moved = fit_pair(nd, d, k), fit_pair(*moved, k)
        lo = max(g.design.knots[0].boundary[0] for g in (pair.nondiseased, pair.diseased))
        hi = min(g.design.knots[0].boundary[1] for g in (pair.nondiseased, pair.diseased))
        grid = np.linspace(lo, hi, 13)
        for g, g_moved in ((pair.nondiseased, pair_moved.nondiseased),
                           (pair.diseased, pair_moved.diseased)):
            kn, kn_moved = g.design.knots[0], g_moved.design.knots[0]
            assert kn_moved.boundary == tuple(a * v + b for v in kn.boundary)
            np.testing.assert_allclose(kn_moved.interior, a * np.asarray(kn.interior) + b,
                                       rtol=0, atol=1e-12 * (a + abs(b)))
            np.testing.assert_allclose(g_moved.design.matrix(a * grid + b),
                                       g.design.matrix(grid), rtol=0, atol=1e-12)
        np.testing.assert_allclose(auc_grid(pair_moved, a * grid + b), auc_grid(pair, grid),
                                   rtol=0, atol=1e-10)
