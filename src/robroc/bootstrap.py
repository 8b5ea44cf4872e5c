"""Weighted residual bootstrap for ROC, AUC, and Youden index uncertainty.

Each replicate resamples standardized residuals within each group with
probabilities proportional to the truncated weights, rebuilds outcomes on
the original covariate rows as

    y*_gi = mu_hat_g(x_gi) + sigma_hat_g * eps*_gi,

refits both groups with the knot layout frozen at the observed-data choice,
and re-evaluates the requested summaries.  Confidence intervals are
percentile intervals with nearest-rank order statistics: with B successful
replicates the q-quantile is the ceil(q * B)-th sorted value.

Replicate b draws from an RNG stream derived deterministically from
(seed, b), so results do not depend on execution order and are reproducible
for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
# irls_fit stays bound here beside irls_refit: bench/tracer.py wraps it at
# every module-level name, bootstrap's included, and bench/test_bench.py
# checks that
from .huber import irls_fit, irls_refit
from .roc import GroupStack, PopulationPair, evaluate, evaluate_stack, unconditional_auc
from .splines import _two_dim

FAILURE_WARNING_FRACTION = 0.05
# Replicates are refit a chunk at a time, and chunk size x the larger
# group's size stays within this many outcome values (one replicate at the
# least): that bounds the stacked systems of one refit and the refits held
# until the chunk's statistics are taken.
REFIT_CHUNK_VALUES = 4096


@dataclass
class BootstrapConfig:
    n_replicates: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ValueError("need at least one bootstrap replicate")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


@dataclass
class BootstrapResult:
    """Estimates and percentile intervals, one row per point of x (points x
    covariates): the AUC always, the ROC band (points x t) given a t grid, and
    the Youden index, its threshold and the index's interval when asked for."""

    x: np.ndarray
    auc: np.ndarray
    auc_lower: np.ndarray
    auc_upper: np.ndarray
    n_replicates: int
    n_failed: int
    n_nonconverged: int
    unreliable: bool
    roc: np.ndarray | None = None
    roc_lower: np.ndarray | None = None
    roc_upper: np.ndarray | None = None
    youden: np.ndarray | None = None
    threshold: np.ndarray | None = None
    youden_lower: np.ndarray | None = None
    youden_upper: np.ndarray | None = None


def percentile_interval(values, alpha: float) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Nearest-rank percentile interval over replicate values along axis 0:
    a scalar pair for 1-d values, a pair of rows for a (replicates, points)
    band."""
    v = np.sort(np.asarray(values, dtype=float), axis=0)
    n = v.shape[0]
    if n == 0:
        raise ValueError("no replicate values")
    lo = v[max(1, math.ceil(alpha / 2.0 * n)) - 1]
    hi = v[max(1, math.ceil((1.0 - alpha / 2.0) * n)) - 1]
    return lo, hi


def _resampling_cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative probabilities proportional to weights, normalized as
    Generator.choice(n, p=weights / weights.sum()) builds them."""
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def _resample_indices(rng: np.random.Generator, cdf: np.ndarray) -> np.ndarray:
    """cdf.size indices drawn with replacement from _resampling_cdf's
    probabilities: Generator.choice's draw, without rebuilding the cdf."""
    return cdf.searchsorted(rng.random(cdf.size), side="right")


def _replicates(pair: PopulationPair, cfg: BootstrapConfig, statistic) -> tuple[tuple, dict]:
    """Run the replicate loop shared by every bootstrap in this module.

    Replicate b resamples each group's standardized residuals, the
    nondiseased group's first, from the stream (seed, b), rebuilds outcomes
    on its design rows (the design at its sample's covariates), and refits
    warm-started at the observed coefficients with the pair's FitConfig.
    The replicates are refit a chunk at a time, one irls_refit per group,
    and each chunk's statistic is taken in one call,
    statistic(refits, outcomes): refits holds each group's refits of the
    chunk's replicates whose refits all succeeded, outcomes each group's
    stack of their outcome rows, and it returns a tuple of arrays (or None)
    with a row per replicate.  Replicates whose refit raises NumericalError
    are skipped and counted; converged=False refits are kept and counted.
    Returns the statistic's arrays over every kept replicate in order, and
    BootstrapResult's count fields.
    """
    if pair.nondiseased.sample is None or pair.diseased.sample is None:
        raise ValueError("a pair fitted without its samples cannot be bootstrapped")
    fits = [pair.nondiseased.fit, pair.diseased.fit]
    designs = [g.design.matrix(g.sample.covariates) for g in (pair.nondiseased, pair.diseased)]
    means = [Z @ fit.beta for Z, fit in zip(designs, fits)]
    cdfs = [_resampling_cdf(fit.truncated_weights) for fit in fits]
    chunk = max(1, REFIT_CHUNK_VALUES // max(Z.shape[0] for Z in designs))
    parts = []
    n_failed = 0
    n_nonconverged = 0
    for start in range(0, cfg.n_replicates, chunk):
        draws = [[] for _ in fits]
        for b in range(start, min(start + chunk, cfg.n_replicates)):
            rng = np.random.default_rng((cfg.seed, b))
            for idx, cdf in zip(draws, cdfs):
                idx.append(_resample_indices(rng, cdf))
        Ys = [mu + fit.sigma * fit.std_residuals[np.array(idx)]
              for mu, fit, idx in zip(means, fits, draws)]
        refits = [irls_refit(Z, Y, pair.config, fit.beta)
                  for Z, Y, fit in zip(designs, Ys, fits)]
        kept = np.array([not any(isinstance(f, NumericalError) for f in rep)
                         for rep in zip(*refits)])
        n_failed += int((~kept).sum())
        if not kept.any():
            continue
        refits = [[f for f, k in zip(group, kept) if k] for group in refits]
        n_nonconverged += sum(not all(f.converged for f in rep) for rep in zip(*refits))
        parts.append(statistic(refits, [Y[kept] for Y in Ys]))
    if not parts:
        raise NumericalError("every bootstrap replicate failed")
    values = tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))
    return values, {"n_replicates": cfg.n_replicates, "n_failed": n_failed,
                    "n_nonconverged": n_nonconverged,
                    "unreliable": n_failed > FAILURE_WARNING_FRACTION * cfg.n_replicates}


def residual_bootstrap(pair: PopulationPair, x, config: BootstrapConfig | None = None, *,
                       t_grid=None, youden: bool = False) -> BootstrapResult:
    """Bootstrap confidence intervals for AUC(x) at each row of x (a 1-d x
    holds points of a single covariate), and optionally ROC(t | x) bands on
    t_grid and the Youden index.

    Replicates that fail numerically are skipped and counted; if more than
    5% fail, the result is flagged unreliable.  Non-converged refits are
    used but counted separately.
    """
    cfg = config or BootstrapConfig()
    X = _two_dim(x)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("no covariate points to bootstrap: x needs one or more rows")
    # the knots are frozen across replicates, so each group's design rows at
    # the points are built once and only the coefficients change
    rows = pair.design_rows(X)
    (aucs, bands, youdens), counts = _replicates(pair, cfg, lambda refits, _: evaluate_stack(
        *map(GroupStack.from_fits, refits), *rows, t_grid, youden))

    auc, band, youden_rows = evaluate(pair, *rows, t_grid, youden)
    result = BootstrapResult(X, auc, *percentile_interval(aucs, cfg.alpha), **counts)
    if t_grid is not None:
        result.roc = band
        result.roc_lower, result.roc_upper = percentile_interval(bands, cfg.alpha)
    if youden:
        result.youden, result.threshold = youden_rows.T
        result.youden_lower, result.youden_upper = percentile_interval(youdens[:, :, 0],
                                                                       cfg.alpha)
    return result


def unconditional_auc_bootstrap(pair: PopulationPair,
                                config: BootstrapConfig | None = None) -> BootstrapResult:
    """Percentile interval for the unconditional AUC of the intercept-only
    pair of robust_unconditional_auc, via the same residual scheme: a result
    at one point with no covariates."""
    if any(g.design.n_covariates for g in (pair.nondiseased, pair.diseased)):
        raise ValueError("the unconditional AUC bootstrap needs an intercept-only pair")
    cfg = config or BootstrapConfig()
    (aucs,), counts = _replicates(pair, cfg, lambda refits, ys: (np.array(
        [[unconditional_auc(y_nd, y_d, f_nd.truncated_weights, f_d.truncated_weights)]
         for y_nd, y_d, f_nd, f_d in zip(*ys, *refits)]),))
    return BootstrapResult(np.empty((1, 0)), np.array([pair.outcome_auc()]),
                           *percentile_interval(aucs, cfg.alpha), **counts)
