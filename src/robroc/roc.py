"""Covariate-specific ROC curves, AUC, and Youden index.

Both populations follow the location-scale model

    y_g = mu_g(x) + sigma_g * eps_g,        g in {nondiseased, diseased},

with mu_g an additive B-spline expansion fit by Huber IRLS and eps_g
represented by the weighted empirical distribution of the standardized
residuals.  Writing a = (mu_nd(x) - mu_d(x)) / sigma_d and
c = sigma_nd / sigma_d, the covariate-specific ROC curve is

    ROC(t | x) = 1 - F_d( a + c * F_nd^{-1}(1 - t) ),        t in [0, 1],

where F_d and F_nd are the residual distributions.  Because both are step
functions, the area under the curve has a closed form: a weighted
Mann-Whitney statistic over the groups' adjusted values
mu_g(x) + sigma_g * eps_hat_gi,

    AUC(x) = sum_j sum_i w_dj w_ndi 1{adj_ndi <= adj_dj} / (W_d * W_nd).

A composite Simpson rule over the t grid is provided as an independent
numerical check of the same integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupSample
from .errors import NumericalError
from .huber import FitConfig, RobustFit, irls_fit
from .splines import SplineSpec
from .wecdf import WeightedEcdf


@dataclass
class GroupFit:
    """One population's fitted model: coefficients, scale, residual law."""

    fit: RobustFit
    design: SplineSpec
    ecdf: WeightedEcdf
    label: str = ""

    @classmethod
    def from_fit(cls, fit: RobustFit, design: SplineSpec, label: str = "") -> "GroupFit":
        """Attach the truncated-weight residual distribution to a fit."""
        ecdf = WeightedEcdf.from_residuals(fit.std_residuals, fit.truncated_weights)
        return cls(fit=fit, design=design, ecdf=ecdf, label=label)


@dataclass
class PopulationPair:
    nondiseased: GroupFit
    diseased: GroupFit


@dataclass
class RocResult:
    x: np.ndarray
    t_grid: np.ndarray
    roc_values: np.ndarray
    auc_closed_form: float
    auc_simpson: float


def fit_group(sample: GroupSample, n_interior, config: FitConfig | None = None) -> GroupFit:
    """Fit one population: spline design, IRLS, residual distribution."""
    spec = SplineSpec.from_data(sample.covariates, n_interior)
    Z = spec.matrix(sample.covariates)
    return GroupFit.from_fit(irls_fit(Z, sample.outcomes, config), spec, sample.label)


def fit_pair(nondiseased: GroupSample, diseased: GroupSample, n_interior_nd,
             config: FitConfig | None = None) -> PopulationPair:
    """Fit both populations with the same knot counts."""
    return PopulationPair(
        nondiseased=fit_group(nondiseased, n_interior_nd, config),
        diseased=fit_group(diseased, n_interior_nd, config),
    )


def predict_mean(fit: RobustFit, design: SplineSpec, x) -> float:
    """Fitted regression mean at a covariate point."""
    return float(design.row(x) @ fit.beta)


def _row_means(fit: RobustFit, rows: np.ndarray) -> list[float]:
    """Fitted means at precomputed design rows, each the 1-D product that
    predict_mean takes, so they equal its values bit for bit."""
    return [float(row @ fit.beta) for row in rows]


def _point_means(pair: PopulationPair, x) -> tuple[float, float]:
    return (predict_mean(pair.nondiseased.fit, pair.nondiseased.design, x),
            predict_mean(pair.diseased.fit, pair.diseased.design, x))


# The evaluators below take the groups' fitted means at one covariate point;
# the public per-point functions compute those means and call them, and the
# grid and bootstrap paths pass means from design rows built once.

def _check_scales(pair: PopulationPair):
    if pair.nondiseased.fit.sigma <= 0.0 or pair.diseased.fit.sigma <= 0.0:
        raise NumericalError("degenerate scale in fitted pair")


def _adjusted(group: GroupFit, mu: float) -> np.ndarray:
    return mu + group.fit.sigma * group.ecdf.support


def _auc(pair: PopulationPair, mu_nd: float, mu_d: float) -> float:
    _check_scales(pair)
    nd_vals = _adjusted(pair.nondiseased, mu_nd)
    d_vals = _adjusted(pair.diseased, mu_d)
    d_w = pair.diseased.ecdf.weights
    # nd support is sorted; cumulative nd weight at nd_vals <= d_val
    cum = pair.nondiseased.ecdf.cum_weights
    pos = np.searchsorted(nd_vals, d_vals, side="right")
    covered = np.where(pos > 0, cum[pos - 1], 0.0)
    return float((d_w @ covered) / (cum[-1] * d_w.sum()))


def _roc(pair: PopulationPair, mu_nd: float, mu_d: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t values must lie in [0, 1]")
    _check_scales(pair)
    a = (mu_nd - mu_d) / pair.diseased.fit.sigma
    c = pair.nondiseased.fit.sigma / pair.diseased.fit.sigma
    q = pair.nondiseased.ecdf.quantile(1.0 - t)
    return 1.0 - pair.diseased.ecdf.cdf(a + c * q)


def _youden(pair: PopulationPair, mu_nd: float, mu_d: float) -> tuple[float, float]:
    _check_scales(pair)
    candidates = np.union1d(_adjusted(pair.nondiseased, mu_nd),
                            _adjusted(pair.diseased, mu_d))
    f_nd = pair.nondiseased.ecdf.cdf((candidates - mu_nd) / pair.nondiseased.fit.sigma)
    f_d = pair.diseased.ecdf.cdf((candidates - mu_d) / pair.diseased.fit.sigma)
    objective = f_nd - f_d
    best = int(np.argmax(objective))  # first maximum = smallest candidate
    return float(objective[best]), float(candidates[best])


def roc_values(pair: PopulationPair, x, t) -> np.ndarray:
    """ROC(t | x) on an array of false positive fractions."""
    return _roc(pair, *_point_means(pair, x), t)


def auc_closed_form(pair: PopulationPair, x) -> float:
    """Exact area under ROC(. | x): the weighted Mann-Whitney form."""
    return _auc(pair, *_point_means(pair, x))


def auc_grid(pair: PopulationPair, X) -> np.ndarray:
    """auc_closed_form at each row of X (a 1-d X holds points of a single
    covariate), with one basis evaluation per group for the whole grid."""
    means = [_row_means(g.fit, g.design.matrix(X))
             for g in (pair.nondiseased, pair.diseased)]
    return np.array([_auc(pair, mu_nd, mu_d) for mu_nd, mu_d in zip(*means)])


def composite_simpson(values, lower: float, upper: float) -> float:
    """Composite Simpson rule on a uniform grid of an even panel count."""
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    if m < 2 or m % 2 != 0:
        raise ValueError(f"Simpson rule needs an even number of panels >= 2, got {m}")
    h = (upper - lower) / m
    coef = np.ones(values.size)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    return float(h / 3.0 * (coef @ values))


def auc_simpson(pair: PopulationPair, x, n_panels: int = 200) -> float:
    """AUC(x) by composite Simpson integration of the ROC curve."""
    t = np.linspace(0.0, 1.0, n_panels + 1)
    return composite_simpson(roc_values(pair, x, t), 0.0, 1.0)


def roc_curve(pair: PopulationPair, x, t_grid=None, n_panels: int = 200) -> RocResult:
    """ROC curve on a t grid plus both AUC evaluations.

    The default grid is 201 equally spaced points including both endpoints.
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 201)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
    vals = roc_values(pair, x, t_grid)
    return RocResult(
        x=np.atleast_1d(np.asarray(x, dtype=float)),
        t_grid=t_grid,
        roc_values=vals,
        auc_closed_form=auc_closed_form(pair, x),
        auc_simpson=auc_simpson(pair, x, n_panels),
    )


def youden_index(pair: PopulationPair, x) -> tuple[float, float]:
    """Maximum of F_nd(c | x) - F_d(c | x) and the smallest c attaining it.

    The objective is a step function, so the candidate set is the union of
    both groups' adjusted values, which contains every point where the
    objective can change.
    """
    return _youden(pair, *_point_means(pair, x))


def unconditional_auc(y_nondiseased, y_diseased, w_nondiseased=None,
                      w_diseased=None) -> float:
    """Weighted two-sample AUC on raw outcomes, ties counted half.

        sum_j sum_i w_dj w_ndi [ 1{y_ndi < y_dj} + 0.5 * 1{y_ndi = y_dj} ]
        -----------------------------------------------------------------
                                  W_d * W_nd

    It stays separate from auc_closed_form on intercept-only fits because
    there the adjusted values beta_hat + sigma_hat * eps_hat_i reproduce y_i
    only up to rounding, so tied integer outcomes across groups could stop
    tying and silently lose their half credit.
    """
    y_nd = np.asarray(y_nondiseased, dtype=float).ravel()
    y_d = np.asarray(y_diseased, dtype=float).ravel()
    if y_nd.size == 0 or y_d.size == 0:
        raise ValueError("both groups need at least one outcome")
    w_nd = np.ones(y_nd.size) if w_nondiseased is None else np.asarray(w_nondiseased, dtype=float).ravel()
    w_d = np.ones(y_d.size) if w_diseased is None else np.asarray(w_diseased, dtype=float).ravel()
    if w_nd.size != y_nd.size or w_d.size != y_d.size:
        raise ValueError("weight lengths must match outcome lengths")
    order = np.argsort(y_nd)
    y_nd_sorted = y_nd[order]
    cum = np.cumsum(w_nd[order])
    lo = np.searchsorted(y_nd_sorted, y_d, side="left")
    hi = np.searchsorted(y_nd_sorted, y_d, side="right")
    below = np.where(lo > 0, cum[lo - 1], 0.0)
    at = np.where(hi > 0, cum[hi - 1], 0.0) - below
    return float((w_d @ (below + 0.5 * at)) / (cum[-1] * w_d.sum()))


def robust_unconditional_auc(y_nondiseased, y_diseased,
                             config: FitConfig | None = None
                             ) -> tuple[float, RobustFit, RobustFit]:
    """Unconditional AUC with truncated weights from intercept-only robust
    fits of each group.  Returns the AUC and both fits (for bootstrapping)."""
    y_nd = np.asarray(y_nondiseased, dtype=float).ravel()
    y_d = np.asarray(y_diseased, dtype=float).ravel()
    fit_nd = irls_fit(np.ones((y_nd.size, 1)), y_nd, config)
    fit_d = irls_fit(np.ones((y_d.size, 1)), y_d, config)
    auc = unconditional_auc(y_nd, y_d, fit_nd.truncated_weights, fit_d.truncated_weights)
    return auc, fit_nd, fit_d
