"""Knot-count selection by a robust AIC.

For a fit with Q parameters on n observations with standardized residuals
u_j = (y_j - z_j' beta_hat) / sigma_hat,

    rAIC = 2 n log(sigma_hat) + 4 trace(J^{-1} U),

    J = (1/n) sum_j psi'(u_j) z_j z_j' / sigma_hat^2,
    U = (1/n) sum_j psi(u_j)^2 z_j z_j' / sigma_hat^2,

with psi the Huber influence and psi'(u) = 1{|u| <= b}.  The penalty factor
is 4 because psi (not 2 psi) is used.  Candidate knot layouts are fitted
exhaustively and the smallest rAIC wins; exact ties go to the
lexicographically smallest knot vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GroupSample
from .errors import NumericalError
from .huber import FitConfig, RobustFit, dpotrs, huber_psi, irls_refit
from .splines import SplineSpec, _counts, design_stack


def raic_penalty(fit: RobustFit, Z) -> float:
    """trace(J^{-1} U) for a fitted model; the sigma^2 factors cancel but the
    matrices are formed as defined."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    u = fit.std_residuals
    b = fit.tuning
    inside = (np.abs(u) <= b).astype(float)
    psi = huber_psi(u, b)
    # the sigma^2 factors cancel, so where n sigma^2 overflows J and U are
    # formed without them (a float's ** raises past sigma = 1.34e154)
    ns2 = n * fit.sigma ** 2 if fit.sigma < 1e154 else math.inf
    ns2 = ns2 if ns2 < math.inf else n
    J = (Z * inside[:, None]).T @ Z / ns2
    U = (Z * (psi ** 2)[:, None]).T @ Z / ns2
    try:
        L = np.linalg.cholesky(J)
    except np.linalg.LinAlgError:
        raise NumericalError("information matrix singular in rAIC") from None
    piv = np.diag(L) ** 2
    if piv.min() <= 1e-10 * np.max(np.diag(J)):
        raise NumericalError("information matrix singular in rAIC")
    # one LAPACK call on the factor: scipy's solve_triangular reaches a
    # threaded dtrsm even at q = 4, and its woken thread spins between calls
    inv_JU, info = dpotrs(L, U, lower=1)
    if info != 0:
        raise NumericalError(f"LAPACK dpotrs failed with info={info}")
    return float(np.trace(inv_JU))


def raic(fit: RobustFit, Z) -> tuple[float, float]:
    """Robust AIC of a fit on its design matrix, and its penalty
    trace(J^{-1} U)."""
    n = np.asarray(Z).shape[0]
    penalty = raic_penalty(fit, Z)
    return 2.0 * n * float(np.log(fit.sigma)) + 4.0 * penalty, penalty


@dataclass
class RaicCandidate:
    n_interior: tuple[int, ...]
    raic: float = float("nan")
    penalty: float = float("nan")
    sigma: float = float("nan")
    fit: RobustFit | None = None
    spec: SplineSpec | None = None
    error: str | None = None


@dataclass
class RaicReport:
    candidates: list[RaicCandidate]
    selected: int

    @property
    def best(self) -> RaicCandidate:
        return self.candidates[self.selected]


def knot_grid(per_covariate: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Cartesian product of per-covariate knot-count choices, in
    lexicographic order."""
    return [tuple(int(k) for k in combo)
            for combo in itertools.product(*per_covariate)]


def default_candidates(n_covariates: int, max_interior: int = 4) -> list[tuple[int, ...]]:
    """All knot vectors with each entry in {0, ..., max_interior}."""
    return knot_grid([range(max_interior + 1)] * n_covariates)


def _layouts(candidates, p: int) -> list[tuple[int | None, ...]]:
    layouts = [_counts(cand, p) for cand in candidates]
    if not layouts:
        raise ValueError("empty candidate list")
    return layouts


def _scored(n_interior: tuple[int, ...], spec: SplineSpec, Z: np.ndarray,
            fit: RobustFit | NumericalError) -> RaicCandidate:
    """One candidate's entry: its rAIC from its fit on design Z, or the
    message of the NumericalError that ended the fit or the scoring."""
    if isinstance(fit, NumericalError):
        return RaicCandidate(n_interior=n_interior, error=str(fit))
    try:
        value, penalty = raic(fit, Z)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return RaicCandidate(n_interior=n_interior, error=str(exc))
    return RaicCandidate(n_interior=n_interior, raic=value, penalty=penalty,
                         sigma=fit.sigma, fit=fit, spec=spec)


def _ranked(candidates: list[RaicCandidate]) -> RaicReport:
    """The report over scored candidates: the smallest rAIC wins and exact
    ties go to the lexicographically smallest knot vector.  Raises
    NumericalError if every candidate failed."""
    scored = [i for i, c in enumerate(candidates) if c.error is None]
    if not scored:
        details = "; ".join(f"{c.n_interior}: {c.error}" for c in candidates)
        raise NumericalError(f"every candidate fit failed ({details})")
    selected = min(scored, key=lambda i: (candidates[i].raic, candidates[i].n_interior))
    return RaicReport(candidates=candidates, selected=selected)


def select_knots(sample: GroupSample, candidates,
                 config: FitConfig | None = None) -> RaicReport:
    """Fit every candidate knot layout for one group and rank by rAIC.

    candidates entries are either a knot vector (one count per covariate) or
    a single int applied to all covariates.  Each candidate is fitted as
    the one-row stack of run_study's route: design_stack, then irls_refit.
    Candidates whose fit fails are kept in the report with the error
    message; if all fail the whole selection fails.
    """
    report = []
    for layout in _layouts(candidates, sample.n_covariates):
        (spec,), Z = design_stack(sample.covariates[None], layout)
        (fit,) = irls_refit(Z, sample.outcomes[None], config)
        report.append(_scored(layout, spec, Z[0], fit))
    return _ranked(report)
