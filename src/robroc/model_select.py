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
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .data import GroupSample
from .errors import NumericalError
from .huber import FitConfig, RobustFit, huber_psi, irls_fit
from .splines import SplineSpec


def raic_penalty(fit: RobustFit, Z) -> float:
    """trace(J^{-1} U) for a fitted model; the sigma^2 factors cancel but the
    matrices are formed as defined."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    u = fit.std_residuals
    b = fit.tuning
    inside = (np.abs(u) <= b).astype(float)
    psi = huber_psi(u, b)
    s2 = fit.sigma ** 2
    J = (Z * inside[:, None]).T @ Z / (n * s2)
    U = (Z * (psi ** 2)[:, None]).T @ Z / (n * s2)
    try:
        L = np.linalg.cholesky(J)
    except np.linalg.LinAlgError:
        raise NumericalError("information matrix singular in rAIC") from None
    piv = np.diag(L) ** 2
    if piv.min() <= 1e-10 * np.max(np.diag(J)):
        raise NumericalError("information matrix singular in rAIC")
    half = scipy.linalg.solve_triangular(L, U, lower=True)
    inv_JU = scipy.linalg.solve_triangular(L.T, half, lower=False)
    return float(np.trace(inv_JU))


def raic(fit: RobustFit, Z) -> float:
    """Robust AIC of a fit on its design matrix."""
    n = np.asarray(Z).shape[0]
    return 2.0 * n * float(np.log(fit.sigma)) + 4.0 * raic_penalty(fit, Z)


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


def _normalize(candidates, p: int) -> list[tuple[int, ...]]:
    out = []
    for cand in candidates:
        if isinstance(cand, (int, np.integer)):
            out.append((int(cand),) * p)
        else:
            vec = tuple(int(k) for k in cand)
            if len(vec) != p:
                raise ValueError(
                    f"candidate {vec} has {len(vec)} entries for {p} covariates"
                )
            out.append(vec)
    if not out:
        raise ValueError("empty candidate list")
    return out


def select_knots(sample: GroupSample, candidates,
                 config: FitConfig | None = None) -> RaicReport:
    """Fit every candidate knot layout for one group and rank by rAIC.

    candidates entries are either a knot vector (one count per covariate) or
    a single int applied to all covariates.  Candidates whose fit fails are
    kept in the report with the error message; if all fail the whole
    selection fails.
    """
    vectors = _normalize(candidates, sample.n_covariates)
    report: list[RaicCandidate] = []
    for vec in vectors:
        cand = RaicCandidate(n_interior=vec)
        try:
            spec = SplineSpec.from_data(sample.covariates, vec)
            Z = spec.matrix(sample.covariates)
            fit = irls_fit(Z, sample.outcomes, config)
            cand.penalty = raic_penalty(fit, Z)
            n = sample.n
            cand.raic = 2.0 * n * float(np.log(fit.sigma)) + 4.0 * cand.penalty
            cand.sigma = fit.sigma
            cand.fit = fit
            cand.spec = spec
        except (NumericalError, np.linalg.LinAlgError) as exc:
            cand.error = str(exc)
        report.append(cand)
    scored = [i for i, c in enumerate(report) if c.error is None]
    if not scored:
        details = "; ".join(f"{c.n_interior}: {c.error}" for c in report)
        raise NumericalError(f"every candidate fit failed ({details})")
    selected = min(scored, key=lambda i: (report[i].raic, report[i].n_interior))
    return RaicReport(candidates=report, selected=selected)
