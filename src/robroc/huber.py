"""Huber M-estimation of linear location-scale models by IRLS.

The Huber loss with tuning constant b is

    rho(u) = u^2 / 2            if |u| <= b
             b |u| - b^2 / 2    otherwise,

with influence function psi(u) = max(-b, min(u, b)) and weight function
omega(u) = psi(u) / u = min(1, b / |u|).  The default b = 1.345 gives 95%
efficiency relative to least squares under normal errors.

The residual scale is the (uncentered) median absolute deviation

    sigma_hat = 1.4826 * median(|y - Z beta_hat|),

recomputed from scratch at every iteration.  Iteration starts from the
ordinary least squares fit and solves a weighted least squares problem per
step through an orthogonal decomposition of the row-scaled design; normal
equations are never formed.

After convergence, weights for downstream distribution estimates are
truncated: observations with standardized residual at most v (default 3)
get weight one, the rest keep their Huber weight.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr, dtrtrs

from .errors import NumericalError

DEFAULT_TUNING = 1.345
DEFAULT_TRUNCATION = 3.0
MAD_FACTOR = 1.4826


def huber_rho(u, b: float = DEFAULT_TUNING):
    """Huber loss, quadratic inside [-b, b] and linear outside."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    out = np.where(au <= b, 0.5 * u * u, b * au - 0.5 * b * b)
    return float(out) if out.ndim == 0 else out


def huber_psi(u, b: float = DEFAULT_TUNING):
    """Derivative of the Huber loss (the influence function)."""
    u = np.asarray(u, dtype=float)
    out = np.clip(u, -b, b)
    return float(out) if out.ndim == 0 else out


def huber_weight(u, b: float = DEFAULT_TUNING):
    """IRLS weight psi(u)/u = min(1, b/|u|), equal to 1 at u = 0."""
    au = np.abs(np.asarray(u, dtype=float))
    # b / max(|u|, b) is min(1, b/|u|) bit for bit, 0, inf and NaN included,
    # and never divides by zero; at b = inf (least squares) it would be
    # inf/inf, so that case keeps the min form, whose inf/0 raises nothing
    out = b / np.maximum(au, b) if b < np.inf else np.minimum(1.0, b / au)
    return float(out) if out.ndim == 0 else out


def mad_scale(residuals) -> float:
    """1.4826 * median(|residuals|), the uncentered MAD scale estimate.

    The factor makes the estimate Fisher-consistent for the standard
    deviation under normal errors.
    """
    a = np.abs(np.asarray(residuals, dtype=float).ravel())
    n = a.size
    if n == 0:
        raise ValueError("no residuals")
    # np.median's selection, done in place on the copy np.abs made: the
    # middle order statistics, and the last place, where any NaN sorts
    k = n // 2
    if n % 2:
        a.partition((k, n - 1))
        mid = float(a[k])
    else:
        a.partition((k - 1, k, n - 1))
        mid = (float(a[k - 1]) + float(a[k])) / 2.0
    return MAD_FACTOR * (float("nan") if np.isnan(a[-1]) else mid)


@dataclass
class FitConfig:
    """Tuning constants and iteration controls for the robust fit."""

    tuning: float = DEFAULT_TUNING
    truncation: float = DEFAULT_TRUNCATION
    max_iterations: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        for name in ("tol", "tuning", "truncation"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class RobustFit:
    """Converged (or max-iteration) state of one IRLS fit.

    std_residuals are (y - Z beta) / sigma; huber_weights are omega at those
    residuals; truncated_weights replace omega by 1 wherever
    |std residual| <= truncation.
    """

    beta: np.ndarray
    sigma: float
    std_residuals: np.ndarray
    huber_weights: np.ndarray
    truncated_weights: np.ndarray
    iterations: int
    converged: bool
    tuning: float = DEFAULT_TUNING
    truncation: float = DEFAULT_TRUNCATION


@functools.lru_cache(maxsize=64)
def _workspace(n: int, q: int) -> tuple[int, int]:
    """Optimal LAPACK workspace sizes of dgeqp3 and dorgqr for an n x q
    system; they depend on the shape only, so each shape is queried once."""
    a = np.zeros((n, q))
    geqp3_work = dgeqp3(a, lwork=-1)[3]
    orgqr_work = dorgqr(a, np.zeros(q), lwork=-1)[1]
    return int(geqp3_work[0]), int(orgqr_work[0])


def _lapack_ok(name: str, info: int) -> None:
    if info != 0:
        raise NumericalError(f"LAPACK {name} failed with info={info}")


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _scaled_lstsq(Z: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Least squares on the row-scaled system sqrt(w) Z, sqrt(w) y (w=None
    for unit weights), after checking that the scaled system is finite."""
    if w is not None:
        sw = np.sqrt(w)
        Z, y = Z * sw[:, None], y * sw
    _require_finite(Z, y)
    return _lstsq(Z, y)


def _lstsq(Zs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Least squares on a finite system via pivoted QR.

    Calls the LAPACK routines behind scipy.linalg.qr(mode="economic",
    pivoting=True) and solve_triangular directly, in the same order and with
    the same arguments (dgeqp3, dorgqr, then dtrtrs on R.T as lower and
    transposed), so the solution is bit for bit theirs without their
    per-call wrapper cost.  Rank deficiency is detected from the triangular
    factor's diagonal with a 1e-10 relative threshold.
    """
    n, q = Zs.shape
    if Zs.size == 0 or n < q:
        raise NumericalError("singular design matrix")
    geqp3_lwork, orgqr_lwork = _workspace(n, q)
    qr, piv, tau, _, info = dgeqp3(Zs, lwork=geqp3_lwork)
    _lapack_ok("dgeqp3", info)
    # R's upper triangle, copied before dorgqr overwrites qr; dtrtrs never
    # reads the reflectors stored below it
    R = qr[:q].copy()
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-10 * diag.max():
        raise NumericalError("singular design matrix")
    Q, _, info = dorgqr(qr, tau, lwork=orgqr_lwork, overwrite_a=1)
    _lapack_ok("dorgqr", info)
    rhs = Q.T @ ys
    _require_finite(rhs)
    x, info = dtrtrs(R.T, rhs, lower=1, trans=1)
    _lapack_ok("dtrtrs", info)
    beta = np.empty(q)
    beta[piv - 1] = x
    return beta


def ols_fit(Z, y) -> tuple[np.ndarray, float]:
    """Ordinary least squares coefficients and the usual residual scale
    sqrt(SSR / (n - Q))."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, q = Z.shape
    if y.size != n:
        raise ValueError(f"{n} design rows but {y.size} outcomes")
    if n <= q:
        raise NumericalError(f"underdetermined fit: n={n} rows for {q} parameters")
    beta = _scaled_lstsq(Z, y, None)
    resid = y - Z @ beta
    sigma = float(np.sqrt(resid @ resid / (n - q)))
    return beta, sigma


def irls_fit(Z, y, config: FitConfig | None = None,
             beta_init: np.ndarray | None = None) -> RobustFit:
    """Fit y = Z beta + sigma * eps by Huber IRLS with MAD scale updates.

    Starts from the least squares solution unless beta_init is supplied
    (e.g. a warm start during bootstrap refits; the fixed point does not
    depend on the start).  Convergence is max|beta_new - beta| < tol.
    Hitting max_iterations is not an error: the result is returned with
    converged=False.

    Raises
    ------
    NumericalError
        If the design is singular, the fit is underdetermined, or the MAD
        scale collapses to zero (more than half the residuals exactly zero).
    """
    cfg = config or FitConfig()
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, q = Z.shape
    if y.size != n:
        raise ValueError(f"{n} design rows but {y.size} outcomes")
    if n <= q:
        raise NumericalError(f"underdetermined fit: n={n} rows for {q} parameters")

    # checked once: every step's weights lie in [0, 1], so each scaled
    # system is finite exactly when that step's weights are
    _require_finite(Z, y)
    if beta_init is None:
        beta = _lstsq(Z, y)
    else:
        beta = np.asarray(beta_init, dtype=float).copy()
        if beta.size != q:
            raise ValueError(f"beta_init has {beta.size} entries for {q} parameters")
    resid = y - Z @ beta
    # relative floor: interpolation leaves only rounding-level residue, and a
    # scale that far below the outcome scale is a collapse, not a spread
    floor = 1e-12 * max(float(np.sqrt(y @ y / n)), 1.0)

    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        sigma = mad_scale(resid)
        if sigma <= floor:
            raise NumericalError("degenerate scale: MAD of residuals is zero")
        w = huber_weight(resid / sigma, cfg.tuning)
        _require_finite(w)
        sw = np.sqrt(w)
        beta_new = _lstsq(Z * sw[:, None], y * sw)
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        resid = y - Z @ beta
        iterations += 1
        if delta < cfg.tol:
            converged = True
            break

    sigma = mad_scale(resid)
    if sigma <= floor:
        raise NumericalError("degenerate scale: MAD of residuals is zero")
    eps = resid / sigma
    omega = huber_weight(eps, cfg.tuning)
    omega_star = np.where(np.abs(eps) <= cfg.truncation, 1.0, omega)
    return RobustFit(
        beta=beta,
        sigma=sigma,
        std_residuals=eps,
        huber_weights=omega,
        truncated_weights=omega_star,
        iterations=iterations,
        converged=converged,
        tuning=cfg.tuning,
        truncation=cfg.truncation,
    )


def ols_as_robust_fit(Z, y) -> RobustFit:
    """Package an OLS fit in the RobustFit shape with unit weights.

    Used by the non-robust comparators: sigma is sqrt(SSR / (n - Q)) and
    every observation keeps weight one.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta, sigma = ols_fit(Z, y)
    # relative floor: exact interpolation leaves only rounding-level residue
    rms = float(np.sqrt(y @ y / y.size))
    if sigma <= 1e-12 * max(rms, 1.0):
        raise NumericalError("degenerate scale: zero residual variance")
    eps = (y - Z @ beta) / sigma
    ones = np.ones(y.size)
    return RobustFit(
        beta=beta,
        sigma=sigma,
        std_residuals=eps,
        huber_weights=ones,
        truncated_weights=ones.copy(),
        iterations=0,
        converged=True,
        tuning=float("inf"),
        truncation=float("inf"),
    )
