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

columns.  Evaluation outside the boundary knots is refused: the basis has no
support there and predictions would be extrapolation.

Binary 0/1 covariates can bypass the spline expansion and enter the design
as a single passthrough column; a design whose every covariate passes
through is the plain linear design [1, X].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

_DEGREE = 3


def knot_sequence(column, n_interior: int) -> "KnotSpec":
    """Quantile-based knot locations for one covariate column.

    Parameters
    ----------
    column : array-like
        Training values of the covariate.
    n_interior : int
        Number of interior knots K >= 0.

    Returns
    -------
    KnotSpec
        Boundary knots at (min, max) and K interior knots strictly inside.
    """
    col = np.asarray(column, dtype=float).ravel()
    if col.size == 0:
        raise DataError("empty covariate column")
    if not np.all(np.isfinite(col)):
        raise DataError("non-finite values in covariate column")
    if n_interior < 0:
        raise ValueError(f"interior knot count must be >= 0, got {n_interior}")
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        raise DataError("constant covariate column, no spline basis exists")
    if n_interior == 0:
        interior: tuple[float, ...] = ()
    else:
        probs = np.arange(1, n_interior + 1) / (n_interior + 1)
        qs = np.quantile(col, probs)
        interior = tuple(float(q) for q in qs)
        inner = np.asarray(interior)
        if inner[0] <= lo or inner[-1] >= hi or np.any(np.diff(inner) <= 0):
            raise DataError(
                "tied covariate quantiles give a degenerate interior knot sequence"
            )
    return KnotSpec(boundary=(lo, hi), interior=interior)


@dataclass(frozen=True)
class KnotSpec:
    """Knot layout for a single splined covariate."""

    boundary: tuple[float, float]
    interior: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.boundary
        if not lo < hi:
            raise DataError(f"boundary knots must satisfy min < max, got ({lo}, {hi})")

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_columns(self) -> int:
        # full basis K + 4 minus the dropped first function
        return self.n_interior + 3


def _outside(x: np.ndarray, knots: KnotSpec) -> np.ndarray:
    lo, hi = knots.boundary
    return (x < lo) | (x > hi)


def _full_basis(x: np.ndarray, knots: KnotSpec) -> np.ndarray:
    """All K + 4 clamped cubic B-spline basis functions, one row per x.

    The degree-0 seed uses half-open knot spans [t_j, t_{j+1}) except that x
    equal to the upper boundary is assigned to the last non-empty span, so
    the basis still sums to one at the right edge.
    """
    lo, hi = knots.boundary
    if np.any(_outside(x, knots)):
        raise DataError(
            f"covariate value outside boundary knots [{lo}, {hi}], refusing to extrapolate"
        )
    t = np.concatenate(
        [np.repeat(lo, _DEGREE + 1), knots.interior, np.repeat(hi, _DEGREE + 1)]
    )
    left, right = t[:-1], t[1:]
    B = ((x[:, None] >= left) & (x[:, None] < right)).astype(float)
    at_top = x == hi
    if np.any(at_top):
        last = np.nonzero(right > left)[0][-1]
        B[at_top] = 0.0
        B[at_top, last] = 1.0
    for d in range(1, _DEGREE + 1):
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


@dataclass(frozen=True)
class SplineSpec:
    """Design-matrix recipe: one entry per covariate, None meaning a binary
    passthrough column, otherwise the covariate's KnotSpec."""

    knots: tuple[KnotSpec | None, ...]

    @classmethod
    def from_data(cls, X, n_interior: int | Sequence[int | None]) -> "SplineSpec":
        """Derive knots from training covariates.

        n_interior is either a single count applied to every covariate or a
        per-covariate sequence in which None marks a passthrough column.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        p = X.shape[1]
        if isinstance(n_interior, (int, np.integer)):
            counts: list[int | None] = [int(n_interior)] * p
        else:
            counts = list(n_interior)
            if len(counts) != p:
                raise ValueError(
                    f"{len(counts)} knot counts for {p} covariate columns"
                )
        entries: list[KnotSpec | None] = []
        for h, k in enumerate(counts):
            if k is None:
                entries.append(None)
            else:
                entries.append(knot_sequence(X[:, h], int(k)))
        return cls(knots=tuple(entries))

    @property
    def n_covariates(self) -> int:
        return len(self.knots)

    @property
    def n_interior(self) -> tuple[int | None, ...]:
        return tuple(k.n_interior if k is not None else None for k in self.knots)

    @property
    def n_columns(self) -> int:
        return 1 + sum(k.n_columns if k is not None else 1 for k in self.knots)

    def matrix(self, X) -> np.ndarray:
        """Design matrix with intercept column first, then one block per
        covariate in input order."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.shape[1] != self.n_covariates:
            raise DataError(
                f"design expects {self.n_covariates} covariate columns, got {X.shape[1]}"
            )
        blocks = [np.ones((X.shape[0], 1))]
        for h, k in enumerate(self.knots):
            if k is None:
                blocks.append(X[:, h : h + 1])
            else:
                blocks.append(_full_basis(X[:, h], k)[:, 1:])
        return np.hstack(blocks)

    def covers(self, X) -> np.ndarray:
        """One flag per row of X: True where matrix() evaluates the row,
        False where a covariate lies outside its boundary knots."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        inside = np.ones(X.shape[0], dtype=bool)
        for h, k in enumerate(self.knots):
            if k is not None:
                inside &= ~_outside(X[:, h], k)
        return inside

    def row(self, x) -> np.ndarray:
        return self.matrix(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]
