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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import GroupSample
from .errors import NumericalError
# irls_fit stays bound here, though roc fits through irls_refit alone:
# bench/tracer.py wraps it at every module-level name, roc's included, and
# bench/test_bench.py checks that
from .huber import FitConfig, RobustFit, irls_fit, irls_refit
from .splines import SplineSpec, _outside, design_stack
from .wecdf import EcdfStack, WeightedEcdf


@dataclass
class GroupStack:
    """m fitted models of one population on one design layout, a row each:
    coefficients (m, q), scales (m,) and residual distributions."""

    beta: np.ndarray
    sigma: np.ndarray
    ecdf: EcdfStack

    @classmethod
    def from_fits(cls, fits: Sequence[RobustFit]) -> "GroupStack":
        """Each fit with its truncated-weight residual distribution, all
        built in one pass."""
        return cls(beta=np.array([f.beta for f in fits]), sigma=np.array([f.sigma for f in fits]),
                   ecdf=EcdfStack.from_residuals(np.array([f.std_residuals for f in fits]),
                                                 np.array([f.truncated_weights for f in fits])))


@dataclass
class GroupFit:
    """One population's fitted model: coefficients and scale (fit), design
    and sample, held as the one-row GroupStack (stack) that evaluate reads."""

    fit: RobustFit
    design: SplineSpec
    sample: GroupSample | None = None
    stack: GroupStack = field(init=False, repr=False)

    def __post_init__(self):
        self.stack = GroupStack.from_fits([self.fit])

    @property
    def ecdf(self) -> WeightedEcdf:
        """The truncated-weight residual distribution, the stack's row."""
        return self.stack.ecdf.row(0)


@dataclass
class PopulationPair:
    nondiseased: GroupFit
    diseased: GroupFit
    config: FitConfig = field(default_factory=FitConfig)  # what both fits used

    def design_rows(self, X) -> list[np.ndarray]:
        """Each group's design rows at the rows of X (a 1-d X holds points
        of a single covariate), as evaluate takes them."""
        return [g.design.matrix(X) for g in (self.nondiseased, self.diseased)]

    def outcome_auc(self) -> float:
        """robust_unconditional_auc's AUC, for an intercept-only pair."""
        groups = (self.nondiseased, self.diseased)
        return unconditional_auc(*(g.sample.outcomes for g in groups),
                                 *(g.fit.truncated_weights for g in groups))


@dataclass
class RocResult:
    x: np.ndarray
    t_grid: np.ndarray
    roc_values: np.ndarray
    auc_closed_form: float
    auc_simpson: float


def _sample_fit(sample: GroupSample, n_interior, refit, *args) -> GroupFit:
    """One sample's fit as the one-row stack of run_study's route,
    design_stack then refit (irls_refit or ols_refit); a failure raises."""
    (spec,), Z = design_stack(sample.covariates[None], n_interior)
    (fit,) = refit(Z, sample.outcomes[None], *args)
    if isinstance(fit, NumericalError):
        raise fit
    return GroupFit(fit, spec, sample)


def fit_pair(nondiseased: GroupSample, diseased: GroupSample, n_interior,
             config: FitConfig | None = None) -> PopulationPair:
    """Fit both populations by Huber IRLS with the same knot counts."""
    return PopulationPair(*(_sample_fit(s, n_interior, irls_refit, config)
                            for s in (nondiseased, diseased)), config or FitConfig())


def _one_point(x) -> np.ndarray:
    """A covariate point as a one-row grid."""
    return np.atleast_1d(np.asarray(x, dtype=float))[None, :]


def evaluate(pair: PopulationPair, rows_nd: np.ndarray, rows_d: np.ndarray, t=None,
             youden: bool = False):
    """AUC(x), and on request ROC(t | x) and the Youden index, at k points
    given by each group's design rows there (PopulationPair.design_rows).

    Returns (auc, roc, youden) with a row per point: the k AUCs, ROC(t | x)
    as a k x t.size array (None without t), and the k (Youden index,
    smallest threshold attaining it) pairs as a k x 2 array (None unless
    youden is set).  It is the one-pair case of evaluate_stack, on the
    groups' one-row stacks.
    """
    return tuple(None if v is None else v[0] for v in evaluate_stack(
        pair.nondiseased.stack, pair.diseased.stack, rows_nd, rows_d, t, youden))


def evaluate_stack(nd: GroupStack, d: GroupStack, rows_nd, rows_d, t=None,
                   youden: bool = False):
    """evaluate for each of m fitted pairs (nd's row i, d's row i) at k
    points, given by each group's design rows there: a (k, q) array that
    every pair shares, or an (m, k, q) stack of each pair's rows.

    Returns (auc, roc, youden) with a row per pair: the (m, k) AUCs, ROC(t |
    x) as (m, k, t.size) (None without t), and (Youden index, smallest
    threshold attaining it) as (m, k, 2) (None unless youden is set).  Each
    pair's values are, bit for bit, those of the pair evaluated alone.
    """
    rows_nd = np.asarray(rows_nd, dtype=float)
    rows_d = np.asarray(rows_d, dtype=float)
    if rows_nd.shape[-2] != rows_d.shape[-2]:
        raise ValueError(f"{rows_nd.shape[-2]} nondiseased design rows but "
                         f"{rows_d.shape[-2]} diseased")
    if t is not None:
        t = np.asarray(t, dtype=float).ravel()
        if _outside(t, 0.0, 1.0).any():
            raise ValueError("t values must lie in [0, 1]")
    if (nd.sigma <= 0.0).any() or (d.sigma <= 0.0).any():
        raise NumericalError("degenerate scale in fitted pair")
    m = nd.sigma.size

    def means(rows, group):
        # each mean is one design row's 1-D product with beta: a 2-D
        # rows @ beta can differ by an ulp, and that can move the Youden
        # index by a point mass
        stack = np.broadcast_to(rows, (m,) + rows.shape[-2:])
        return np.array([[row @ b for row in r] for r, b in zip(stack, group.beta)])

    mu_nd, mu_d = means(rows_nd, nd), means(rows_d, d)
    # sigma * eps per support point, +inf on the padding
    spread_nd = nd.sigma[:, None] * nd.ecdf.support
    spread_d = d.sigma[:, None] * d.ecdf.support
    # the nondiseased weight at or below each diseased adjusted value
    # mu_d + sigma_d * eps, per pair and point; the nondiseased adjusted
    # values are sorted, so one searchsorted per point finds it, and each
    # diseased row is cut to its own support, since padding would change the
    # dot's and the sum's summation order
    covered = np.concatenate([np.zeros((m, 1)), nd.ecdf.cum_weights], axis=1)
    auc = np.empty(mu_nd.shape)
    d_sums = np.empty(m)
    for i, s in enumerate(d.ecdf.sizes.tolist()):
        d_w = d.ecdf.weights[i, :s]
        adj_nd = mu_nd[i, :, None] + spread_nd[i]
        adj_d = mu_d[i, :, None] + spread_d[i, :s]
        auc[i] = [d_w @ covered[i, a_nd.searchsorted(a_d, side="right")]
                  for a_nd, a_d in zip(adj_nd, adj_d)]
        d_sums[i] = d_w.sum()
    auc /= (nd.ecdf.total * d_sums)[:, None]
    roc = None
    if t is not None:
        a = (mu_nd - mu_d) / d.sigma[:, None]
        c = nd.sigma / d.sigma
        shift = c[:, None] * nd.ecdf.quantile(np.broadcast_to(1.0 - t, (m, t.size)))
        roc = 1.0 - d.ecdf.cdf(a[:, :, None] + shift[:, None, :])
    best = None
    if youden:
        # the objective is a step function that can change only at the
        # groups' adjusted values; a tied candidate repeats its objective,
        # so the first maximum is at the smallest candidate attaining it.
        # The padding's +inf candidates sort last and never count.
        cand = np.sort(np.concatenate([mu_nd[:, :, None] + spread_nd[:, None, :],
                                       mu_d[:, :, None] + spread_d[:, None, :]], axis=2),
                       axis=2)
        objective = (nd.ecdf.cdf((cand - mu_nd[:, :, None]) / nd.sigma[:, None, None])
                     - d.ecdf.cdf((cand - mu_d[:, :, None]) / d.sigma[:, None, None]))
        real = np.arange(cand.shape[2]) < (nd.ecdf.sizes + d.ecdf.sizes)[:, None]
        objective = np.where(real[:, None, :], objective, -np.inf)
        at = np.argmax(objective, axis=2)[:, :, None]
        best = np.concatenate([np.take_along_axis(objective, at, axis=2),
                               np.take_along_axis(cand, at, axis=2)], axis=2)
    return auc, roc, best


def roc_values(pair: PopulationPair, x, t) -> np.ndarray:
    """ROC(t | x) on an array of false positive fractions."""
    return evaluate(pair, *pair.design_rows(_one_point(x)), t)[1][0]


def auc_closed_form(pair: PopulationPair, x) -> float:
    """Exact area under ROC(. | x): the weighted Mann-Whitney form."""
    return float(evaluate(pair, *pair.design_rows(_one_point(x)))[0][0])


def auc_grid(pair: PopulationPair, X) -> np.ndarray:
    """auc_closed_form at each row of X (a 1-d X holds points of a single
    covariate), with one basis evaluation per group for the whole grid."""
    return evaluate(pair, *pair.design_rows(X))[0]


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
    auc, roc, _ = evaluate(pair, *pair.design_rows(_one_point(x)), t_grid)
    return RocResult(
        x=np.atleast_1d(np.asarray(x, dtype=float)),
        t_grid=t_grid,
        roc_values=roc[0],
        auc_closed_form=float(auc[0]),
        auc_simpson=auc_simpson(pair, x, n_panels),
    )


def youden_index(pair: PopulationPair, x) -> tuple[float, float]:
    """Maximum of F_nd(c | x) - F_d(c | x) and the smallest c attaining it.

    The objective is a step function, so the candidate set is the union of
    both groups' adjusted values, which contains every point where the
    objective can change.
    """
    index, threshold = evaluate(pair, *pair.design_rows(_one_point(x)), youden=True)[2][0]
    return float(index), float(threshold)


def unconditional_auc(y_nondiseased, y_diseased, w_nondiseased=None,
                      w_diseased=None) -> float:
    """Weighted two-sample AUC on raw outcomes, ties counted half.

        sum_j sum_i w_dj w_ndi [ 1{y_ndi < y_dj} + 0.5 * 1{y_ndi = y_dj} ]
        -----------------------------------------------------------------
                                  W_d * W_nd

    It stays separate from auc_closed_form on intercept-only fits because
    there the adjusted values beta_hat + sigma_hat * eps_hat_i reproduce y_i
    only up to rounding, so tied integer outcomes across groups could stop
    tying and silently lose their half credit.  Outcomes must be finite, and
    weights (1 by default) positive and finite.
    """
    y_nd = np.asarray(y_nondiseased, dtype=float).ravel()
    y_d = np.asarray(y_diseased, dtype=float).ravel()
    if y_nd.size == 0 or y_d.size == 0:
        raise ValueError("both groups need at least one outcome")
    w_nd = np.ones(y_nd.size) if w_nondiseased is None else np.asarray(w_nondiseased, dtype=float).ravel()
    w_d = np.ones(y_d.size) if w_diseased is None else np.asarray(w_diseased, dtype=float).ravel()
    if w_nd.size != y_nd.size or w_d.size != y_d.size:
        raise ValueError("weight lengths must match outcome lengths")
    if not (np.isfinite(y_nd).all() and np.isfinite(y_d).all()):
        raise ValueError("outcomes must be finite")
    if not all(np.isfinite(w).all() and (w > 0.0).all() for w in (w_nd, w_d)):
        raise ValueError("weights must be positive and finite")
    order = np.argsort(y_nd)
    y_nd_sorted = y_nd[order]
    cum = np.cumsum(w_nd[order])
    lo = np.searchsorted(y_nd_sorted, y_d, side="left")
    hi = np.searchsorted(y_nd_sorted, y_d, side="right")
    below = np.where(lo > 0, cum[lo - 1], 0.0)
    at = np.where(hi > 0, cum[hi - 1], 0.0) - below
    return float((w_d @ (below + 0.5 * at)) / (cum[-1] * w_d.sum()))


def robust_unconditional_auc(y_nondiseased, y_diseased, config: FitConfig | None = None
                             ) -> tuple[float, PopulationPair]:
    """Unconditional AUC with truncated weights from intercept-only robust
    fits of each group, fit_pair's fits of samples without covariates.
    Returns the AUC and their pair (for bootstrapping)."""
    samples = (GroupSample(outcomes=y, covariates=np.empty((np.size(y), 0)), label=label)
               for y, label in ((y_nondiseased, "nondiseased"), (y_diseased, "diseased")))
    pair = fit_pair(*samples, 0, config)
    return pair.outcome_auc(), pair
