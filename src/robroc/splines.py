"""Cubic B-spline design matrices for additive location-scale regression.

Each continuous covariate is expanded over a clamped cubic B-spline basis.
Interior knot k (1-based, K total) sits at the k/(K+1) quantile of the
training column, computed with linear interpolation between order
statistics; boundary knots sit at the column minimum and maximum.  The full
clamped basis over K interior knots has K + 4 functions that sum to one
everywhere on [min, max].  The first basis function is dropped because the
model carries a global intercept, leaving K + 3 columns per covariate, so a
design over p splined covariates has

    Q = 1 + sum_h (K_h + 3)

columns.  Evaluation outside the boundary knots, or at a non-finite point,
is refused: the basis has no support there and predictions would be
extrapolation.

Binary 0/1 covariates can bypass the spline expansion and enter the design
as a single passthrough column; a design whose every covariate passes
through is the plain linear design [1, X].

Knots and bases are computed for a stack of m columns at once, each row
with its own knots: design_stack builds m training designs of one layout
and grid_stack one set of points under m designs.  A single column or
design is the stack with m = 1, so both go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

_DEGREE = 3
# points per basis evaluation when a design is built in blocks
_BLOCK_VALUES = 4096

# knot_sequence's per-column faults, in the order a column is checked
_KNOT_FAULTS = (
    "non-finite values in covariate column",
    "constant covariate column, no spline basis exists",
    "tied covariate quantiles give a degenerate interior knot sequence",
)


def knot_sequence(column, n_interior: int):
    """Quantile-based knot locations for one covariate column, or for each
    row of an (m, n) stack of columns.

    Parameters
    ----------
    column : array-like
        Training values of the covariate: a 1-d column, or a 2-d stack
        whose rows are columns of equal length.
    n_interior : int
        Number of interior knots K >= 0.

    Returns
    -------
    KnotSpec, or a tuple of m KnotSpecs for a stack
        Boundary knots at (min, max) and K interior knots strictly inside;
        row r's knots depend on row r alone.  A faulty stack raises the
        DataError of its first faulty row.
    """
    cols = np.asarray(column, dtype=float)
    single = cols.ndim < 2
    if single:
        cols = cols.reshape(1, -1)
    elif cols.ndim > 2:
        raise ValueError(f"expected a column or a 2-d stack of columns, got {cols.ndim} dims")
    if cols.shape[1] == 0:
        raise DataError("empty covariate column")
    nonfinite = ~np.isfinite(cols).all(axis=1)
    if nonfinite[:1].any():
        raise DataError(_KNOT_FAULTS[0])
    if n_interior < 0:
        raise ValueError(f"interior knot count must be >= 0, got {n_interior}")
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    probs = np.arange(1, n_interior + 1) / (n_interior + 1)
    # a non-finite row has its own fault; its quantiles only need to exist
    with np.errstate(invalid="ignore"):
        inner = np.quantile(cols, probs, axis=1).T
        tied = (np.diff(np.column_stack([lo, inner, hi]), axis=1) <= 0).any(axis=1)
    faults = np.array([nonfinite, lo == hi, tied])
    bad = faults.any(axis=0)
    if bad.any():
        raise DataError(_KNOT_FAULTS[int(np.argmax(faults[:, np.argmax(bad)]))])
    specs = tuple(KnotSpec(boundary=(a, b), interior=tuple(q))
                  for a, b, q in zip(lo.tolist(), hi.tolist(), inner.tolist()))
    return specs[0] if single else specs


@dataclass(frozen=True)
class KnotSpec:
    """Knot layout for a single splined covariate: finite boundary knots
    lo < hi, and interior knots strictly increasing between them."""

    boundary: tuple[float, float]
    interior: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.boundary
        knots = (-np.inf, lo, *self.interior, hi, np.inf)
        if not all(a < b for a, b in zip(knots, knots[1:])):
            raise DataError("knots must be finite with lo < t_1 < ... < t_K < hi, "
                            f"got boundary ({lo}, {hi}) and interior {self.interior}")

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_columns(self) -> int:
        # full basis K + 4 minus the dropped first function
        return self.n_interior + 3


def _outside(x: np.ndarray, lo, hi) -> np.ndarray:
    # written so that NaN, which fails every comparison, counts as outside
    return ~((x >= lo) & (x <= hi))


def _full_basis(x: np.ndarray, knots: Sequence[KnotSpec]) -> np.ndarray:
    """All K + 4 clamped cubic B-spline basis functions at an (m, n) stack
    of points, row r over knots[r]; every row has the same K.

    Returns the (m, K + 4, n) basis-major stack: entry [r, j, i] is basis
    function j at point i of row r.  The degree-0 seed uses half-open knot
    spans [t_j, t_{j+1}) except that x equal to the upper boundary is
    assigned to the last non-empty span, so the basis still sums to one at
    the right edge.  Each Cox-de Boor step is

        B_{j,d}(x) = (0 + (x - t_j) / (t_{j+d} - t_j) * B_{j,d-1}(x))
                     + (t_{j+d+1} - x) / (t_{j+d+1} - t_{j+1}) * B_{j+1,d-1}(x),

    with an empty span's denominator taken as inf, so that its term is a
    zero that the leading 0 + turns positive.  Points outside their row's
    boundary knots get all-zero rows; callers refuse or mask them.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    t = np.array([(k.boundary[0],) * (_DEGREE + 1) + k.interior
                  + (k.boundary[1],) * (_DEGREE + 1) for k in knots])
    xs = x[:, None, :]
    B = ((xs >= t[:, :-1, None]) & (xs < t[:, 1:, None])).astype(float)
    rows, cols = np.nonzero(x == t[:, -1:])
    if rows.size:
        nonempty = t[:, 1:] > t[:, :-1]
        last = nonempty.shape[1] - 1 - np.argmax(nonempty[:, ::-1], axis=1)
        B[rows, :, cols] = 0.0
        B[rows, last[rows], cols] = 1.0
    for d in range(1, _DEGREE + 1):
        k = t.shape[1] - d - 1
        # two (m, k, n) arrays per degree, each updated in place
        left = np.subtract(xs, t[:, :k, None])
        np.divide(left, _spans(t, 0, d, k), out=left)
        left *= B[:, :k]
        left += 0.0
        right = np.subtract(t[:, d + 1:, None], xs)
        np.divide(right, _spans(t, 1, d + 1, k), out=right)
        right *= B[:, 1:]
        left += right
        B = left
    return B


def _spans(t: np.ndarray, a: int, b: int, k: int) -> np.ndarray:
    """Knot differences t[j + b] - t[j + a] for j < k, per row, with empty
    spans set to inf."""
    den = t[:, b:b + k] - t[:, a:a + k]
    den[den <= 0.0] = np.inf
    return den[:, :, None]


def _designs(X: np.ndarray, knots: Sequence[Sequence[KnotSpec] | None]) -> np.ndarray:
    """The (m, n, q) C-ordered stack of design matrices of an (m, n, p)
    stack of covariates; knots[h] holds covariate h's m KnotSpecs, one per
    row, or None for a passthrough column."""
    m, n, _ = X.shape
    widths = [1 if ks is None else ks[0].n_columns for ks in knots]
    Z = np.empty((m, n, 1 + sum(widths)))
    Z[:, :, 0] = 1.0
    col = 1
    # the basis takes a few arrays of the block's size per degree, so large
    # designs are built a block of points at a time
    block = max(1, _BLOCK_VALUES // m)
    for h, (ks, width) in enumerate(zip(knots, widths)):
        if ks is None:
            Z[:, :, col] = X[:, :, h]
        else:
            for start in range(0, n, block):
                rows = slice(start, start + block)
                Z[:, rows, col:col + width] = (
                    _full_basis(X[:, rows, h], ks)[:, 1:].transpose(0, 2, 1))
        col += width
    return Z


def _counts(n_interior: int | Sequence[int | None], p: int) -> tuple[int | None, ...]:
    if isinstance(n_interior, (int, np.integer)):
        return (int(n_interior),) * p
    counts = tuple(None if k is None else int(k) for k in n_interior)
    if len(counts) != p:
        raise ValueError(f"{len(counts)} knot counts for {p} covariate columns")
    return counts


@dataclass(frozen=True)
class SplineSpec:
    """Design-matrix recipe: one entry per covariate, None meaning a binary
    passthrough column, otherwise the covariate's KnotSpec."""

    knots: tuple[KnotSpec | None, ...]

    @property
    def n_covariates(self) -> int:
        return len(self.knots)

    def _checked(self, X) -> np.ndarray:
        X = _two_dim(X)
        if X.shape[1] != self.n_covariates:
            raise DataError(
                f"design expects {self.n_covariates} covariate columns, got {X.shape[1]}"
            )
        return X

    def matrix(self, X) -> np.ndarray:
        """Design matrix with intercept column first, then one block per
        covariate in input order."""
        X = self._checked(X)
        for h, k in enumerate(self.knots):
            if k is not None and np.any(_outside(X[:, h], *k.boundary)):
                lo, hi = k.boundary
                raise DataError(f"covariate value outside boundary knots [{lo}, {hi}], "
                                "refusing to extrapolate")
        return _designs(X[None], [None if k is None else (k,) for k in self.knots])[0]

    def covers(self, X) -> np.ndarray:
        """One flag per row of X: True where matrix() evaluates the row,
        False where a covariate lies outside its boundary knots or is not
        finite."""
        X = self._checked(X)
        inside = np.ones(X.shape[0], dtype=bool)
        for h, k in enumerate(self.knots):
            if k is not None:
                inside &= ~_outside(X[:, h], *k.boundary)
        return inside


def _two_dim(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def design_stack(X, n_interior: int | Sequence[int | None]
                 ) -> tuple[list[SplineSpec], np.ndarray]:
    """Specs and design matrices of a stack of m training sets of one shape.

    X is (m, n, p), m sets of n rows and p covariates (an (m, n) X holds one
    covariate).  n_interior is either a single count applied to every
    covariate or a per-covariate sequence in which None marks a passthrough
    column.  Returns the m
    SplineSpecs, the r-th derived from X[r] alone, and the C-ordered
    (m, n, q) stack whose r-th matrix is specs[r].matrix(X[r]), bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[:, :, None]
    knots = [None if k is None else knot_sequence(X[:, :, h], k)
             for h, k in enumerate(_counts(n_interior, X.shape[2]))]
    specs = [SplineSpec(knots=tuple(None if ks is None else ks[r] for ks in knots))
             for r in range(X.shape[0])]
    return specs, _designs(X, knots)


def grid_stack(specs: Sequence[SplineSpec], X) -> tuple[np.ndarray, np.ndarray]:
    """Design rows of one set of points under each of m specs of one layout.

    Returns the C-ordered (m, g, q) stack whose r-th matrix holds
    specs[r].matrix(X)'s row at every point specs[r] covers, and the
    (m, g) mask of specs[r].covers(X); an uncovered point's row is NaN.
    """
    X = specs[0]._checked(X)
    knots = [None if k is None else tuple(s.knots[h] for s in specs)
             for h, k in enumerate(specs[0].knots)]
    inside = np.array([spec.covers(X) for spec in specs])
    # an uncovered point's basis may overflow or be NaN; its row is masked
    with np.errstate(invalid="ignore", over="ignore"):
        Z = _designs(np.broadcast_to(X, (len(specs),) + X.shape), knots)
    Z[~inside] = np.nan
    return Z, inside
