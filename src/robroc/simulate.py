"""Synthetic scenarios, contamination, comparators, and Monte Carlo studies.

Four built-in scenarios share the template

    y_nd | x ~ N(mu_nd(x), sigma_nd(x)^2),    y_d | x ~ N(mu_d(x), sigma_d(x)^2),

with uniform covariates:

    I    mu_nd = 0.5 + x,            sd 1.5;   mu_d = 2 + 4 x,             sd 2
    II   mu_nd = sin(pi x),          sd 0.5;   mu_d = 1 + x^2,             sd 1
    III  mu_nd = 0.5 sin(2 pi x),    sd 1 + 0.75 x;
         mu_d  = 0.5 + sin(pi x),    sd 1 + x
    IV   mu_nd = 0.5 + x1 + x2^2,    sd 1.5;   mu_d = 2 + 4 x1^3 + 1.5 x2, sd 2
         with x1 ~ U(0, 1) and x2 ~ U(0, 2)

Contamination replaces a fixed fraction of outcomes, chosen uniformly
without replacement.  Location outliers are redrawn from
N(mu(x) + kappa * sigma(x), sigma(x)^2) with kappa 15 (nondiseased) and 20
(diseased) by default; radial outliers instead inflate the scale to
kappa * sigma(x).  Under normality the true covariate-specific AUC is

    AUC(x) = Phi( (mu_d(x) - mu_nd(x)) / sqrt(sigma_d(x)^2 + sigma_nd(x)^2) ),

which contamination does not change: outliers are noise around the clean
model, not part of the estimand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .bootstrap import REFIT_CHUNK_VALUES
from .data import GroupSample
from .errors import NumericalError
from .huber import FitConfig, _check_integer, irls_refit, ols_refit
from .model_select import _layouts, _ranked, _scored
from .roc import GroupFit, GroupStack, _sample_fit, evaluate_stack
from .splines import _counts, _two_dim, design_stack, grid_stack

# each estimator's plan: its knot layout of (n_interior, p), and a robust fit or not
_PLANS = {"robust": (_counts, True),
          "ols_linear": (lambda n_interior, p: (None,) * p, False),
          "ols_bspline": (_counts, False)}
ESTIMATORS = tuple(_PLANS)


@dataclass(frozen=True)
class Scenario:
    name: str
    covariate_ranges: tuple[tuple[float, float], ...]
    mean_nd: Callable[[np.ndarray], np.ndarray]
    mean_d: Callable[[np.ndarray], np.ndarray]
    scale_nd: Callable[[np.ndarray], np.ndarray]
    scale_d: Callable[[np.ndarray], np.ndarray]
    contamination_nd: float = 0.0
    contamination_d: float = 0.0
    kappa_nd: float = 15.0
    kappa_d: float = 20.0
    outlier_kind: str = "location"

    def __post_init__(self):
        for frac in (self.contamination_nd, self.contamination_d):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"contamination fraction {frac} outside [0, 1]")
        if self.outlier_kind not in ("location", "radial"):
            raise ValueError(f"unknown outlier kind {self.outlier_kind!r}")
        for kappa in (self.kappa_nd, self.kappa_d):
            if not math.isfinite(kappa):
                raise ValueError(f"outlier multiplier kappa {kappa} is not finite")
            # a location shift may be negative; a radial scale multiplier may not
            if self.outlier_kind == "radial" and kappa < 0.0:
                raise ValueError(f"radial outliers need kappa >= 0, got {kappa}")

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_ranges)

    def default_grid(self, size: int = 21) -> np.ndarray:
        """Evaluation grid held away from the covariate range edges so that
        fitted boundary knots almost always cover it; extra covariates are
        pinned at their range midpoint."""
        lo, hi = self.covariate_ranges[0]
        span = hi - lo
        x1 = np.linspace(lo + 0.05 * span, hi - 0.05 * span, size)
        grid = np.empty((size, self.n_covariates))
        grid[:, 0] = x1
        for h in range(1, self.n_covariates):
            l, u = self.covariate_ranges[h]
            grid[:, h] = 0.5 * (l + u)
        return grid


def _const(value: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda X: np.full(X.shape[0], value)


_REGISTRY: dict[str, Scenario] = {
    "I": Scenario(
        name="I",
        covariate_ranges=((0.0, 1.0),),
        mean_nd=lambda X: 0.5 + X[:, 0],
        mean_d=lambda X: 2.0 + 4.0 * X[:, 0],
        scale_nd=_const(1.5),
        scale_d=_const(2.0),
    ),
    "II": Scenario(
        name="II",
        covariate_ranges=((0.0, 1.0),),
        mean_nd=lambda X: np.sin(np.pi * X[:, 0]),
        mean_d=lambda X: 1.0 + X[:, 0] ** 2,
        scale_nd=_const(0.5),
        scale_d=_const(1.0),
    ),
    "III": Scenario(
        name="III",
        covariate_ranges=((0.0, 1.0),),
        mean_nd=lambda X: 0.5 * np.sin(2.0 * np.pi * X[:, 0]),
        mean_d=lambda X: 0.5 + np.sin(np.pi * X[:, 0]),
        scale_nd=lambda X: 1.0 + 0.75 * X[:, 0],
        scale_d=lambda X: 1.0 + X[:, 0],
    ),
    "IV": Scenario(
        name="IV",
        covariate_ranges=((0.0, 1.0), (0.0, 2.0)),
        mean_nd=lambda X: 0.5 + X[:, 0] + X[:, 1] ** 2,
        mean_d=lambda X: 2.0 + 4.0 * X[:, 0] ** 3 + 1.5 * X[:, 1],
        scale_nd=_const(1.5),
        scale_d=_const(2.0),
    ),
}


def scenario(name: str, contamination: float | tuple[float, float] = 0.0,
             kappa: tuple[float, float] | None = None,
             outlier_kind: str = "location") -> Scenario:
    """Look up a built-in scenario, optionally with contamination applied."""
    key = str(name).upper()
    if key not in _REGISTRY:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(_REGISTRY)}")
    scn = _REGISTRY[key]
    if isinstance(contamination, (int, float)):
        frac_nd = frac_d = float(contamination)
    else:
        frac_nd, frac_d = (float(f) for f in contamination)
    changes: dict = {"contamination_nd": frac_nd, "contamination_d": frac_d,
                     "outlier_kind": outlier_kind}
    if kappa is not None:
        changes["kappa_nd"], changes["kappa_d"] = (float(k) for k in kappa)
    return replace(scn, **changes)


def _contaminated_count(fraction: float, n: int) -> int:
    # round half up so e.g. 0.05 * 10 -> 1 and 0.025 * 100 -> 3
    return int(math.floor(fraction * n + 0.5))


def _draw_group(rng: np.random.Generator, scn: Scenario, n: int,
                mean_fn, scale_fn, fraction: float, kappa: float,
                label: str) -> GroupSample:
    X = np.column_stack([rng.uniform(lo, hi, size=n)
                         for lo, hi in scn.covariate_ranges])
    mu = mean_fn(X)
    sd = np.broadcast_to(scale_fn(X), (n,)).astype(float)
    y = rng.normal(mu, sd)
    mask = np.zeros(n, dtype=bool)
    k = _contaminated_count(fraction, n)
    if k > 0:
        idx = rng.choice(n, size=k, replace=False)
        if scn.outlier_kind == "location":
            y[idx] = rng.normal(mu[idx] + kappa * sd[idx], sd[idx])
        else:
            y[idx] = rng.normal(mu[idx], kappa * sd[idx])
        mask[idx] = True
    return GroupSample(outcomes=y, covariates=X, label=label, contaminated=mask)


def generate(scn: Scenario, n_nondiseased: int, n_diseased: int,
             seed=0) -> tuple[GroupSample, GroupSample]:
    """Draw one synthetic data set (nondiseased sample, diseased sample)."""
    if n_nondiseased < 1 or n_diseased < 1:
        raise ValueError("both group sizes must be positive")
    rng = np.random.default_rng(seed)
    nd = _draw_group(rng, scn, n_nondiseased, scn.mean_nd, scn.scale_nd,
                     scn.contamination_nd, scn.kappa_nd, "nondiseased")
    d = _draw_group(rng, scn, n_diseased, scn.mean_d, scn.scale_d,
                    scn.contamination_d, scn.kappa_d, "diseased")
    return nd, d


def true_auc(scn: Scenario, x) -> np.ndarray | float:
    """Closed-form covariate-specific AUC of the clean model, whose errors
    are normal in every scenario."""
    X = np.asarray(x, dtype=float)
    # a 1-d array is a single point when the scenario is multi-covariate,
    # otherwise a grid of single-covariate points
    single = X.ndim == 0 or (X.ndim == 1 and scn.n_covariates > 1)
    if X.ndim == 0:
        X = X[None, None]
    elif X.ndim == 1:
        X = X[None, :] if scn.n_covariates > 1 else X[:, None]
    delta = scn.mean_d(X) - scn.mean_nd(X)
    spread = np.sqrt(np.broadcast_to(scn.scale_d(X), (X.shape[0],)) ** 2
                     + np.broadcast_to(scn.scale_nd(X), (X.shape[0],)) ** 2)
    out = ndtr(delta / spread)
    return float(out[0]) if single else out


def comparator_fit(kind: str, sample: GroupSample, n_interior=0) -> GroupFit:
    """Least squares comparators sharing the downstream ROC machinery.

    ols_linear uses an intercept-plus-covariates design (every covariate a
    passthrough column); ols_bspline uses the same spline design as the
    robust fit.  Both keep unit weights and the classical residual scale.
    The downstream AUC of these comparators does not depend on sigma-hat,
    so they show outliers only through mu-hat.  Each is the one-row stack
    of run_study's fit of the estimator of that name.
    """
    layout, robust = _PLANS.get(kind, (None, True))
    if robust:  # an unknown name, or 'robust', which is no comparator
        raise ValueError(f"unknown comparator {kind!r}")
    return _sample_fit(sample, layout(n_interior, sample.n_covariates), ols_refit)


@dataclass
class McEstimatorSummary:
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_ok: np.ndarray
    n_failed_fits: int = 0


@dataclass
class McReport:
    x_grid: np.ndarray
    true_auc: np.ndarray
    n_replicates: int
    estimators: dict[str, McEstimatorSummary] = field(default_factory=dict)
    knot_counts: dict[str, dict[tuple[int, ...], int]] | None = None


def run_study(scn: Scenario, n_nondiseased: int, n_diseased: int,
              n_replicates: int, seed=0, x_grid=None,
              estimators=("robust",), n_interior=0,
              select_candidates=None, config: FitConfig | None = None) -> McReport:
    """Monte Carlo study of covariate-specific AUC estimation.

    Per replicate: draw data, fit each estimator, evaluate AUC over the
    grid.  Replicate r uses the RNG stream (seed, r).  Grid points outside
    a replicate's fitted boundary knots yield NaN for that replicate and are
    excluded from the aggregates; fit failures are counted per estimator,
    a repeated name once.  When select_candidates is given, each group's
    rAIC choice among those (robustly fitted) candidates is tallied.

    Each estimator is a plan, a knot layout and a robust fit or not (see
    _PLANS).  Replicates run in chunks of REFIT_CHUNK_VALUES // n, n the
    larger group size.  Per chunk and group, each distinct layout of the
    estimators and candidates gets one splines.design_stack, fitted once by
    huber.irls_refit and once by huber.ols_refit as its plans need, and one
    splines.grid_stack if an estimator evaluates on it; each estimator's
    AUCs come from one roc.evaluate_stack call per chunk.  Every number
    equals that of fitting each replicate on its own.
    """
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    _check_integer("n_replicates", n_replicates, 1)
    _check_integer("seed", seed, 0)
    p = scn.n_covariates
    plans = {}
    for kind in estimators:
        if kind not in _PLANS:
            raise ValueError(f"unknown estimator {kind!r}; choose from {ESTIMATORS}")
        layout, robust = _PLANS[kind]
        plans[kind] = (layout(n_interior, p), robust)
    x_grid = _two_dim(scn.default_grid() if x_grid is None else x_grid)
    if x_grid.shape[1] != p:
        raise ValueError(f"grid has {x_grid.shape[1]} columns for {p} covariates")

    aucs = {kind: np.full((n_replicates, len(x_grid)), np.nan) for kind in plans}
    failed = {kind: 0 for kind in plans}
    counts: dict[str, dict[tuple[int, ...], int]] = {"nondiseased": {}, "diseased": {}}
    candidates = ([] if select_candidates is None
                  else [(layout, True) for layout in _layouts(select_candidates, p)])
    # each layout's fits, robust or not, in the order of first use
    layout_fits: dict[tuple, list[bool]] = {}
    for layout, robust in dict.fromkeys(candidates + list(plans.values())):
        layout_fits.setdefault(layout, []).append(robust)
    evaluated = {layout for layout, _ in plans.values()}
    chunk = max(1, REFIT_CHUNK_VALUES // max(n_nondiseased, n_diseased, 1))

    for start in range(0, n_replicates, chunk):
        reps = range(start, min(start + chunk, n_replicates))
        draws = [generate(scn, n_nondiseased, n_diseased, seed=(seed, r)) for r in reps]
        # per group and estimator plan: fits (a NumericalError if failed), grid rows
        by_group = []
        for key, samples in zip(counts, zip(*draws)):
            X = np.array([s.covariates for s in samples])
            Y = np.array([s.outcomes for s in samples])
            scored, fitted = [], {}
            for layout, robust_flags in layout_fits.items():
                specs, Zs = design_stack(X, layout)
                grid = grid_stack(specs, x_grid) if layout in evaluated else None
                for robust in robust_flags:
                    fits = irls_refit(Zs, Y, config) if robust else ols_refit(Zs, Y)
                    if (layout, robust) in candidates:
                        scored.append([_scored(layout, *row) for row in zip(specs, Zs, fits)])
                    if (layout, robust) in plans.values():
                        fitted[layout, robust] = (fits, *grid)
            for cands in zip(*scored):
                try:
                    chosen = _ranked(list(cands)).best.n_interior
                except NumericalError:
                    continue
                counts[key][chosen] = counts[key].get(chosen, 0) + 1
            by_group.append(fitted)
        for kind, plan in plans.items():
            (nd, rows_nd, in_nd), (d, rows_d, in_d) = (group[plan] for group in by_group)
            ok = np.array([not isinstance(f_nd, NumericalError)
                           and not isinstance(f_d, NumericalError) for f_nd, f_d in zip(nd, d)])
            failed[kind] += int((~ok).sum())
            if ok.any():
                auc = evaluate_stack(*(GroupStack.from_fits([f for f, k in zip(fits, ok) if k])
                                       for fits in (nd, d)), rows_nd[ok], rows_d[ok])[0]
                # points outside a replicate's boundary knots stay NaN
                aucs[kind][start + ok.nonzero()[0]] = np.where(in_nd[ok] & in_d[ok], auc, np.nan)

    report = McReport(
        x_grid=x_grid,
        true_auc=np.atleast_1d(true_auc(scn, x_grid)),
        n_replicates=n_replicates,
        knot_counts=counts if select_candidates is not None else None,
    )
    for kind, mat in aucs.items():
        # a grid point no replicate covers has an all-NaN column; nanmean and
        # nanquantile warn through the warnings module, not np.errstate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report.estimators[kind] = McEstimatorSummary(
                mean=np.nanmean(mat, axis=0),
                lower=np.nanquantile(mat, 0.025, axis=0),
                upper=np.nanquantile(mat, 0.975, axis=0),
                n_ok=np.sum(np.isfinite(mat), axis=0),
                n_failed_fits=failed[kind],
            )
    return report
