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

from .data import GroupSample
from .errors import NumericalError
# irls_fit stays bound here beside irls_refit: bench/tracer.py wraps it at
# every module-level name, bootstrap's included, and bench/test_bench.py
# checks that
from .huber import FitConfig, irls_fit, irls_refit
from .roc import (GroupFit, PopulationPair, _auc, _roc, _row_means, _youden,
                  robust_unconditional_auc, unconditional_auc)

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
class BootstrapTarget:
    """One covariate point to evaluate, with optional ROC grid and Youden."""

    x: np.ndarray
    t_grid: np.ndarray | None = None
    youden: bool = False


@dataclass
class TargetResult:
    x: np.ndarray
    auc: float
    auc_lower: float
    auc_upper: float
    roc: np.ndarray | None = None
    roc_lower: np.ndarray | None = None
    roc_upper: np.ndarray | None = None
    youden: tuple[float, float] | None = None
    youden_lower: float | None = None
    youden_upper: float | None = None


@dataclass
class BootstrapResult:
    targets: list[TargetResult]
    n_replicates: int
    n_failed: int
    n_nonconverged: int
    unreliable: bool


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


def _replicates(fits, designs, cfg: BootstrapConfig, fit_config: FitConfig | None,
                statistic) -> tuple[list, BootstrapResult]:
    """Run the replicate loop shared by every bootstrap in this module.

    fits and designs hold the nondiseased then the diseased group's fit and
    design matrix.  Replicate b resamples each group's standardized
    residuals in that order from the stream (seed, b), rebuilds outcomes on
    the design rows, refits warm-started at the observed coefficients, and
    records statistic(refits, outcomes).  The refits of a chunk of
    replicates run as one irls_refit per group.  Replicates whose refit or
    statistic raises NumericalError are skipped and counted; converged=False
    refits are kept and counted.
    """
    means = [Z @ fit.beta for Z, fit in zip(designs, fits)]
    cdfs = [_resampling_cdf(fit.truncated_weights) for fit in fits]
    chunk = max(1, REFIT_CHUNK_VALUES // max(Z.shape[0] for Z in designs))
    values = []
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
        refits = [irls_refit(Z, Y, fit_config, fit.beta)
                  for Z, Y, fit in zip(designs, Ys, fits)]
        for rep, ys in zip(zip(*refits), zip(*Ys)):
            if any(isinstance(f, NumericalError) for f in rep):
                n_failed += 1
                continue
            try:
                value = statistic(rep, ys)
            except NumericalError:
                n_failed += 1
                continue
            if not all(f.converged for f in rep):
                n_nonconverged += 1
            values.append(value)
    if not values:
        raise NumericalError("every bootstrap replicate failed")
    return values, BootstrapResult(
        targets=[], n_replicates=cfg.n_replicates, n_failed=n_failed,
        n_nonconverged=n_nonconverged,
        unreliable=n_failed > FAILURE_WARNING_FRACTION * cfg.n_replicates,
    )


def residual_bootstrap(pair: PopulationPair, nondiseased: GroupSample,
                       diseased: GroupSample, targets,
                       config: BootstrapConfig | None = None,
                       fit_config: FitConfig | None = None) -> BootstrapResult:
    """Bootstrap confidence intervals for AUC(x), and optionally ROC(t | x)
    bands and the Youden index, at each requested target.

    Replicates that fail numerically are skipped and counted; if more than
    5% fail, the result is flagged unreliable.  Non-converged refits are
    used but counted separately.
    """
    cfg = config or BootstrapConfig()
    fcfg = fit_config or FitConfig(tuning=pair.nondiseased.fit.tuning,
                                   truncation=pair.nondiseased.fit.truncation)
    targets = [t if isinstance(t, BootstrapTarget) else BootstrapTarget(x=np.atleast_1d(np.asarray(t, dtype=float)))
               for t in targets]
    if not targets:
        raise ValueError("no bootstrap targets")
    groups = (pair.nondiseased, pair.diseased)
    # the knots are frozen across replicates, so each group's design rows at
    # the targets are built once and only the coefficients change
    rows = [g.design.matrix(np.vstack([tgt.x for tgt in targets])) for g in groups]

    def evaluate(p: PopulationPair):
        means = zip(*(_row_means(g.fit, r) for g, r in zip((p.nondiseased, p.diseased), rows)))
        return [(_auc(p, *mu),
                 _roc(p, *mu, tgt.t_grid) if tgt.t_grid is not None else None,
                 _youden(p, *mu) if tgt.youden else None)
                for tgt, mu in zip(targets, means)]

    reps, result = _replicates(
        [g.fit for g in groups],
        [g.design.matrix(s.covariates) for g, s in zip(groups, (nondiseased, diseased))],
        cfg, fcfg,
        lambda refits, _: evaluate(PopulationPair(*(GroupFit.from_fit(f, g.design, g.label)
                                                    for f, g in zip(refits, groups)))))

    for k, (tgt, (auc, band_hat, youden)) in enumerate(zip(targets, evaluate(pair))):
        a_lo, a_hi = percentile_interval([r[k][0] for r in reps], cfg.alpha)
        res = TargetResult(x=tgt.x, auc=auc, auc_lower=a_lo, auc_upper=a_hi)
        if tgt.t_grid is not None:
            res.roc = band_hat
            res.roc_lower, res.roc_upper = percentile_interval(
                np.vstack([r[k][1] for r in reps]), cfg.alpha)
        if tgt.youden:
            res.youden = youden
            res.youden_lower, res.youden_upper = percentile_interval(
                [r[k][2][0] for r in reps], cfg.alpha)
        result.targets.append(res)
    return result


def unconditional_auc_bootstrap(y_nondiseased, y_diseased,
                                config: BootstrapConfig | None = None,
                                fit_config: FitConfig | None = None
                                ) -> tuple[float, float, float, BootstrapResult]:
    """Percentile interval for the unconditional AUC via the same residual
    scheme applied to intercept-only fits of each group."""
    cfg = config or BootstrapConfig()
    y_nd = np.asarray(y_nondiseased, dtype=float).ravel()
    y_d = np.asarray(y_diseased, dtype=float).ravel()
    auc_hat, fit_nd, fit_d = robust_unconditional_auc(y_nd, y_d, fit_config)
    reps, summary = _replicates(
        [fit_nd, fit_d], [np.ones((y_nd.size, 1)), np.ones((y_d.size, 1))],
        cfg, fit_config,
        lambda refits, ys: unconditional_auc(ys[0], ys[1], refits[0].truncated_weights,
                                             refits[1].truncated_weights))
    lo, hi = percentile_interval(reps, cfg.alpha)
    return auc_hat, lo, hi, summary
