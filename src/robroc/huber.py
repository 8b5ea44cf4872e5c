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
equations are never formed.  irls_refit runs the same iteration on a stack
of outcome vectors that share one design and one start, as the bootstrap's
refits do, and gives each vector the fit irls_fit would give it.

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
_SINGULAR = "singular design matrix"
_COLLAPSED_SCALE = "degenerate scale: MAD of residuals is zero"


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


def _row_mad_scales(R: np.ndarray) -> np.ndarray:
    """mad_scale of each row of R, bit for bit, by one selection along the
    rows."""
    a = np.abs(R)
    n = a.shape[1]
    k = n // 2
    if n % 2:
        a.partition((k, n - 1), axis=1)
        mid = a[:, k]
    else:
        a.partition((k - 1, k, n - 1), axis=1)
        mid = (a[:, k - 1] + a[:, k]) / 2.0
    return MAD_FACTOR * np.where(np.isnan(a[:, -1]), np.nan, mid)


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


def _scale_floor(y: np.ndarray) -> float:
    # relative floor: interpolation leaves only rounding-level residue, and a
    # scale that far below the outcome scale is a collapse, not a spread
    return 1e-12 * max(float(np.sqrt(y @ y / y.size)), 1.0)


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
        raise NumericalError(_SINGULAR)
    geqp3_lwork, orgqr_lwork = _workspace(n, q)
    qr, piv, tau, _, info = dgeqp3(Zs, lwork=geqp3_lwork)
    _lapack_ok("dgeqp3", info)
    # R's upper triangle, copied before dorgqr overwrites qr; dtrtrs never
    # reads the reflectors stored below it
    R = qr[:q].copy()
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-10 * diag.max():
        raise NumericalError(_SINGULAR)
    Q, _, info = dorgqr(qr, tau, lwork=orgqr_lwork, overwrite_a=1)
    _lapack_ok("dorgqr", info)
    rhs = Q.T @ ys
    _require_finite(rhs)
    x, info = dtrtrs(R.T, rhs, lower=1, trans=1)
    _lapack_ok("dtrtrs", info)
    beta = np.empty(q)
    beta[piv - 1] = x
    return beta


def _stacked_lstsq(Zs: np.ndarray, Ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_lstsq on each finite system (Zs[i], Ys[i]) of a stack, bit for bit.

    The LAPACK calls and Q^T y run system by system; the rank check and the
    finite check run once across the stack between them.  Zs is
    overwritten: a Fortran-ordered Zs[i] is factored in place.  Returns the
    solutions, NaN for the systems _lstsq would reject as singular, and the
    mask of those systems.
    """
    m, n, q = Zs.shape
    if Zs.size == 0 or n < q:
        return np.full((m, q), np.nan), np.ones(m, dtype=bool)
    geqp3_lwork, orgqr_lwork = _workspace(n, q)
    factors = [dgeqp3(Z, geqp3_lwork, 1) for Z in Zs]
    for *_, info in factors:
        _lapack_ok("dgeqp3", info)
    # each R, copied before dorgqr overwrites its qr
    R = np.array([qr[:q] for qr, *_ in factors])
    diag = np.abs(R.diagonal(0, 1, 2))
    singular = diag.min(axis=1) <= 1e-10 * diag.max(axis=1)
    solved = (~singular).nonzero()[0].tolist()
    rhs = np.zeros((m, q))
    for i in solved:
        qr, _, tau, _, _ = factors[i]
        Q, _, info = dorgqr(qr, tau, orgqr_lwork, 1)
        _lapack_ok("dorgqr", info)
        rhs[i] = Q.T @ Ys[i]
    _require_finite(rhs)
    x = np.empty((m, q))
    x[singular] = np.nan
    for i in solved:
        x[i], info = dtrtrs(R[i].T, rhs[i], 1, 1)
        _lapack_ok("dtrtrs", info)
    beta = np.empty((m, q))
    beta[np.arange(m)[:, None], np.array([f[1] for f in factors]) - 1] = x
    return beta, singular


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
    _require_finite(Z, y)
    beta = _lstsq(Z, y)
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
    floor = _scale_floor(y)

    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        sigma = mad_scale(resid)
        if sigma <= floor:
            raise NumericalError(_COLLAPSED_SCALE)
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
    return _final_fit(beta, resid, floor, iterations, converged, cfg)


def _final_fit(beta: np.ndarray, resid: np.ndarray, floor: float, iterations: int,
               converged: bool, cfg: FitConfig) -> RobustFit:
    """The RobustFit at IRLS's last coefficients: MAD scale of the last
    residuals, standardized residuals, Huber and truncated weights."""
    sigma = mad_scale(resid)
    if sigma <= floor:
        raise NumericalError(_COLLAPSED_SCALE)
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


def irls_refit(Z, Y, config: FitConfig | None,
               beta_init: np.ndarray) -> list[RobustFit | NumericalError]:
    """irls_fit(Z, Y[i], config, beta_init) for every outcome row Y[i] of a
    stack, as one batched IRLS.

    Each row's RobustFit equals irls_fit's bit for bit: coefficients, scale,
    residuals, both weight vectors, iteration count and converged flag.  A
    row whose fit irls_fit would end with a NumericalError gets that error in
    its place and leaves the batch; the other rows go on.  Every elementwise
    step runs once across the rows still iterating, and only the LAPACK calls
    of the least-squares step run row by row.  ValueError (mismatched shapes,
    non-finite values, a non-finite warm start included) is raised for the
    whole call, as irls_fit raises it for one row.
    """
    cfg = config or FitConfig()
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m, n = Y.shape
    q = Z.shape[1]
    if Z.shape[0] != n:
        raise ValueError(f"{Z.shape[0]} design rows but {n} outcomes")
    if n <= q:
        return [NumericalError(f"underdetermined fit: n={n} rows for {q} parameters")
                for _ in range(m)]
    _require_finite(Z, Y)
    beta = np.asarray(beta_init, dtype=float)
    if beta.size != q:
        raise ValueError(f"beta_init has {beta.size} entries for {q} parameters")

    fits: list[RobustFit | NumericalError | None] = [None] * m
    # the rows still iterating: their index in Y, outcomes, scale floors,
    # coefficients and residuals
    rows = np.arange(m)
    floors = np.array([_scale_floor(y) for y in Y])
    B = np.tile(beta, (m, 1))
    R = Y - Z @ beta
    # the scaled systems of one step, each Fortran-ordered so that LAPACK
    # factors it in place
    systems = np.empty((m, q, n))

    def settle(done, converged):
        for i, b, r, floor in zip(rows[done].tolist(), B[done], R[done], floors[done].tolist()):
            try:
                fits[i] = _final_fit(b, r, floor, iterations, converged, cfg)
            except NumericalError as err:
                fits[i] = err

    iterations = 0
    while rows.size and iterations < cfg.max_iterations:
        sigma = _row_mad_scales(R)
        collapsed = sigma <= floors
        if collapsed.any():
            for i in rows[collapsed].tolist():
                fits[i] = NumericalError(_COLLAPSED_SCALE)
            keep = ~collapsed
            rows, Y, floors, B, R, sigma = (a[keep] for a in (rows, Y, floors, B, R, sigma))
        W = huber_weight(R / sigma[:, None], cfg.tuning)
        _require_finite(W)
        SW = np.sqrt(W)
        Zs = systems[:rows.size]
        np.multiply(Z.T, SW[:, None, :], out=Zs)
        B_new, singular = _stacked_lstsq(Zs.transpose(0, 2, 1), Y * SW)
        # a design without columns has no coefficient to move
        delta = np.abs(B_new - B).max(axis=1, initial=0.0)
        B = B_new
        # stacked matrix-vector products: each row is irls_fit's Z @ beta
        R = Y - np.matmul(Z, B[:, :, None])[:, :, 0]
        iterations += 1
        done = (delta < cfg.tol) & ~singular
        ended = done | singular
        if ended.any():
            for i in rows[singular].tolist():
                fits[i] = NumericalError(_SINGULAR)
            settle(done, True)
            keep = ~ended
            rows, Y, floors, B, R = (a[keep] for a in (rows, Y, floors, B, R))
    settle(np.ones(rows.size, dtype=bool), False)
    return fits


def ols_as_robust_fit(Z, y) -> RobustFit:
    """Package an OLS fit in the RobustFit shape with unit weights.

    Used by the non-robust comparators: sigma is sqrt(SSR / (n - Q)) and
    every observation keeps weight one.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta, sigma = ols_fit(Z, y)
    if sigma <= _scale_floor(y):
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
