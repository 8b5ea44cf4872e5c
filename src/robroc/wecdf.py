"""Weighted empirical distribution of standardized residuals.

Given residuals e_1..e_n with nonnegative weights w_1..w_n,

    F_hat(y) = sum_j w_j 1{e_j <= y} / sum_j w_j.

Tied residual values are merged into a single support point carrying the
summed weight.  The quantile function is the generalized inverse

    F_hat^{-1}(t) = min{ y in support : F_hat(y) >= t },    t in (0, 1],

and F_hat^{-1}(0) is defined as the smallest support value, so quantiles of
the two edge probabilities are the support extremes.

Distributions are built and evaluated as a stack of m rows, one residual
sample each (EcdfStack); WeightedEcdf is a single distribution, the
one-row stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _per_row(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One value per row, shaped to broadcast against an (m, ...) array."""
    return values.reshape((-1,) + (1,) * (like.ndim - 1))


def _take(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """rows[i, idx[i]] for an (m, ...) stack of indices."""
    return np.take_along_axis(rows, idx.reshape(len(rows), -1), axis=1).reshape(idx.shape)


@dataclass
class EcdfStack:
    """m weighted distributions, one per row.

    Row i's support, merged weights and cumulative weights fill the first
    sizes[i] entries of its row.  The rest pad the support with +inf and
    the weights with zeros, so a search of a padded row finds what a search
    of its first sizes[i] entries finds, and its cumulative weights stay at
    total[i].
    """

    support: np.ndarray
    weights: np.ndarray
    cum_weights: np.ndarray
    sizes: np.ndarray
    total: np.ndarray

    @classmethod
    def from_residuals(cls, values, weights=None) -> "EcdfStack":
        """Build row i's distribution from values[i] and weights[i] of an
        (m, n) stack, merging tied values.

        Weights default to 1 and must be positive and finite.  Every row is,
        bit for bit, the distribution of that row built alone.
        """
        V = np.asarray(values, dtype=float)
        if V.size == 0:
            raise ValueError("empty residual sample")
        if not np.all(np.isfinite(V)):
            raise ValueError("non-finite residual values")
        if weights is None:
            W = np.ones(V.shape)
        else:
            W = np.asarray(weights, dtype=float)
            if W.shape != V.shape:
                raise ValueError(f"{V.size} values but {W.size} weights")
            if not np.all(np.isfinite(W)) or np.any(W <= 0.0):
                raise ValueError("weights must be positive and finite")
        m, n = V.shape
        order = np.argsort(V, axis=1)
        S = np.take_along_axis(V, order, axis=1)
        first = np.ones((m, n), dtype=bool)
        np.not_equal(S[:, 1:], S[:, :-1], out=first[:, 1:])
        rank = np.cumsum(first, axis=1) - 1
        sizes = rank[:, -1] + 1
        width = int(sizes.max())
        # each sorted value's place in the flat (m, width) layout
        slot = rank + width * np.arange(m)[:, None]
        support = np.full(m * width, np.inf)
        support[slot[first]] = S[first]
        # one bincount over the values in row-major original order adds each
        # tie's weights in original index order, as a row's own bincount
        # does, whatever order the sort left the tie in
        inverse = np.empty((m, n), dtype=np.intp)
        np.put_along_axis(inverse, order, slot, axis=1)
        merged = np.bincount(inverse.ravel(), weights=W.ravel(),
                             minlength=m * width).reshape(m, width)
        # a cumulative sum runs left to right, so the zeros that pad a row
        # leave its sums as its own cumulative sum makes them
        cum = np.cumsum(merged, axis=1)
        return cls(support=support.reshape(m, width), weights=merged, cum_weights=cum,
                   sizes=sizes, total=cum[:, -1])

    def row(self, i: int) -> "WeightedEcdf":
        """Row i's distribution, as views of the stack."""
        s = self.sizes[i]
        return WeightedEcdf(support=self.support[i, :s], weights=self.weights[i, :s],
                            cum_weights=self.cum_weights[i, :s], total=float(self.total[i]))

    def cdf(self, y) -> np.ndarray:
        """Row i's F_hat at each value of y[i], for an (m, ...) array y."""
        y = np.asarray(y, dtype=float)
        idx = np.array([s.searchsorted(v, side="right") for s, v in zip(self.support, y)])
        return np.where(idx > 0, _take(self.cum_weights, idx - 1), 0.0) / _per_row(self.total, idx)

    def quantile(self, t) -> np.ndarray:
        """Row i's generalized inverse at each probability of t[i] in [0, 1],
        for an (m, ...) array t."""
        t = np.asarray(t, dtype=float)
        # written so that NaN, which fails every comparison, is refused
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError("quantile probabilities must lie in [0, 1]")
        level = t * _per_row(self.total, t)
        idx = np.array([c.searchsorted(p, side="left") for c, p in zip(self.cum_weights, level)])
        return _take(self.support, np.minimum(idx, _per_row(self.sizes, idx) - 1))


@dataclass
class WeightedEcdf:
    support: np.ndarray
    weights: np.ndarray
    cum_weights: np.ndarray
    total: float

    @classmethod
    def from_residuals(cls, values, weights=None) -> "WeightedEcdf":
        """Build the distribution, merging tied values: the one-row
        EcdfStack.from_residuals.

        Weights default to 1 and must be positive and finite.
        """
        v = np.asarray(values, dtype=float).ravel()
        w = None if weights is None else np.asarray(weights, dtype=float).ravel()[None]
        return EcdfStack.from_residuals(v[None], w).row(0)

    def stacked(self) -> EcdfStack:
        """This distribution as a one-row stack."""
        return EcdfStack(support=self.support[None], weights=self.weights[None],
                         cum_weights=self.cum_weights[None],
                         sizes=np.array([self.support.size]), total=np.array([self.total]))

    def cdf(self, y):
        """F_hat evaluated at one point or an array of points."""
        flat = self.stacked().cdf(np.asarray(y, dtype=float)[None])[0]
        return float(flat) if flat.ndim == 0 else flat

    def quantile(self, t):
        """Generalized inverse at probabilities t in [0, 1]."""
        out = self.stacked().quantile(np.asarray(t, dtype=float)[None])[0]
        return float(out) if out.ndim == 0 else out
