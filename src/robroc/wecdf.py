"""Weighted empirical distribution of standardized residuals.

Given residuals e_1..e_n with nonnegative weights w_1..w_n,

    F_hat(y) = sum_j w_j 1{e_j <= y} / sum_j w_j.

Tied residual values are merged into a single support point carrying the
summed weight.  The quantile function is the generalized inverse

    F_hat^{-1}(t) = min{ y in support : F_hat(y) >= t },    t in (0, 1],

and F_hat^{-1}(0) is defined as the smallest support value, so quantiles of
the two edge probabilities are the support extremes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class WeightedEcdf:
    support: np.ndarray
    weights: np.ndarray
    cum_weights: np.ndarray
    total: float

    @classmethod
    def from_residuals(cls, values, weights=None) -> "WeightedEcdf":
        """Build the distribution, merging tied values.

        Weights default to 1 and must be positive and finite.
        """
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("empty residual sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite residual values")
        if weights is None:
            w = np.ones(v.size)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if w.size != v.size:
                raise ValueError(f"{v.size} values but {w.size} weights")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise ValueError("weights must be positive and finite")
        support, inverse = np.unique(v, return_inverse=True)
        merged = np.bincount(inverse, weights=w, minlength=support.size)
        cum = np.cumsum(merged)
        return cls(
            support=support,
            weights=merged,
            cum_weights=cum,
            total=float(cum[-1]),
        )

    def cdf(self, y):
        """F_hat evaluated at one point or an array of points."""
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.support, y, side="right")
        flat = np.where(idx > 0, self.cum_weights[idx - 1], 0.0) / self.total
        return float(flat) if flat.ndim == 0 else flat

    def quantile(self, t):
        """Generalized inverse at probabilities t in [0, 1]."""
        t = np.asarray(t, dtype=float)
        # written so that NaN, which fails every comparison, is refused
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError("quantile probabilities must lie in [0, 1]")
        idx = np.searchsorted(self.cum_weights, t * self.total, side="left")
        idx = np.minimum(idx, self.support.size - 1)
        out = self.support[idx]
        return float(out) if out.ndim == 0 else out
