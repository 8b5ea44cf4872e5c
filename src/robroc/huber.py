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

There are two stacked fits, each of a stack of outcome rows against one
shared design or a stack of designs of one shape: irls_refit, the one IRLS
loop, and ols_refit, the least-squares fit in the same RobustFit shape,
which is IRLS's cold start with the classical scale.  The bootstrap's
refits share one design and one warm start; a Monte Carlo study's
replicates, and any one data set, bring their own designs and start cold.
Each row's fit depends on that row alone.  irls_fit is irls_refit's
one-row call.

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


def _row_mad_scales(R: np.ndarray) -> np.ndarray:
    """The MAD scale of each row of R, by one selection along the rows: the
    middle order statistics, and the last place, where any NaN sorts."""
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


def _stacked_lstsq(Zs: np.ndarray, Ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares on each finite system (Zs[i], Ys[i]) of a stack via
    pivoted QR.

    Calls the LAPACK routines behind scipy.linalg.qr(mode="economic",
    pivoting=True) and solve_triangular directly, in the same order and with
    the same arguments (dgeqp3, dorgqr, then dtrtrs on R.T as lower and
    transposed), so each solution is bit for bit theirs without their
    per-call wrapper cost.  The LAPACK calls and Q^T y run system by system;
    the rank check (the triangular factor's diagonal, with a 1e-10 relative
    threshold) and the finite check run once across the stack between them.
    Zs is overwritten: a Fortran-ordered Zs[i] is factored in place.
    Returns the solutions, NaN for the singular systems, and the mask of
    those systems.
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


def irls_fit(Z, y, config: FitConfig | None = None,
             beta_init: np.ndarray | None = None) -> RobustFit:
    """Fit y = Z beta + sigma * eps by Huber IRLS with MAD scale updates:
    irls_refit on the one-row stack, raising the row's NumericalError (a
    singular design, an underdetermined fit, or a MAD scale collapsed to
    zero, more than half the residuals exactly zero).

    Starts from the least squares solution unless beta_init is supplied
    (e.g. a warm start during bootstrap refits; the fixed point does not
    depend on the start).  Convergence is max|beta_new - beta| < tol;
    hitting max_iterations is not an error but returns converged=False.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError(f"expected a 2-d design, got {Z.ndim} dims")
    (fit,) = irls_refit(Z, np.asarray(y, dtype=float).reshape(1, -1), config, beta_init)
    if isinstance(fit, NumericalError):
        raise fit
    return fit


def _checked(Z, Y) -> tuple[np.ndarray, np.ndarray, list[NumericalError] | None]:
    """Z and Y as float arrays after the checks both stacked fits share, and
    None, or every row's error if the fit is underdetermined."""
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m, n = Y.shape
    q = Z.shape[-1]
    if Z.shape[-2] != n:
        raise ValueError(f"{Z.shape[-2]} design rows but {n} outcomes")
    if Z.ndim == 3 and Z.shape[0] != m:
        raise ValueError(f"{Z.shape[0]} designs for {m} outcome rows")
    if n <= q:
        return Z, Y, [NumericalError(f"underdetermined fit: n={n} rows for {q} parameters")
                      for _ in range(m)]
    _require_finite(Z, Y)
    return Z, Y, None


def _lstsq_start(Z, Y, systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_stacked_lstsq of each row's unscaled system, in the (m, q, n) buffer."""
    systems[...] = Z.swapaxes(-1, -2)
    return _stacked_lstsq(systems.transpose(0, 2, 1), Y)


def irls_refit(Z, Y, config: FitConfig | None,
               beta_init: np.ndarray | None = None) -> list[RobustFit | NumericalError]:
    """Huber IRLS fit of every outcome row Y[i] of a stack, as one batched
    IRLS; irls_fit is the one-row case.

    Z is one design that every row shares, or a stack of designs of one
    shape, Z[i] for Y[i].  With beta_init None each row starts from its own
    least-squares fit; otherwise every row starts from beta_init.  Each
    row's RobustFit depends on that row alone, bit for bit: coefficients,
    scale, residuals, both weight vectors, iteration count and converged
    flag are those of the same row fitted alone.  A row whose fit ends with
    a NumericalError gets that error in its place and leaves the batch; the
    other rows go on.  Every elementwise step runs once across the rows
    still iterating, and only the LAPACK calls of the least-squares step
    run row by row.  ValueError (mismatched shapes, non-finite values, a
    non-finite warm start included) is raised for the whole call.
    """
    cfg = config or FitConfig()
    Z, Y, failed = _checked(Z, Y)
    if failed is not None:
        return failed
    m, n = Y.shape
    q = Z.shape[-1]

    fits: list[RobustFit | NumericalError | None] = [None] * m
    # the rows still iterating: their index in Y, outcomes, scale floors,
    # coefficients, residuals and (stacked) designs
    rows = np.arange(m)
    floors = np.array([_scale_floor(y) for y in Y])
    # the scaled systems of one step, each Fortran-ordered so that LAPACK
    # factors it in place
    systems = np.empty((m, q, n))

    def drop(out, *arrays):
        # the batch without the rows in out: indices, outcomes, floors, the
        # designs if stacked (a shared design stays 2-D), and arrays; called
        # only when a row leaves, since each copy of a stack costs its size
        keep = ~out
        return (rows[keep], Y[keep], floors[keep], Z[keep] if Z.ndim == 3 else Z,
                *(a[keep] for a in arrays))

    if beta_init is None:
        B, singular = _lstsq_start(Z, Y, systems)
        if singular.any():
            for i in rows[singular].tolist():
                fits[i] = NumericalError(_SINGULAR)
            rows, Y, floors, Z, B = drop(singular, B)
    else:
        beta = np.asarray(beta_init, dtype=float)
        if beta.size != q:
            raise ValueError(f"beta_init has {beta.size} entries for {q} parameters")
        B = np.tile(beta, (m, 1))
    # stacked matrix-vector products, each row's Z @ beta
    R = Y - np.matmul(Z, B[:, :, None])[:, :, 0]

    def settle(done, converged):
        # each row's fit at its last coefficients: the MAD scale of its last
        # residuals, standardized residuals, Huber and truncated weights
        sigma = _row_mad_scales(R[done])
        collapsed = sigma <= floors[done]
        # a collapsed row's scale may be zero; its fit is the error, not E
        with np.errstate(divide="ignore", invalid="ignore"):
            E = R[done] / sigma[:, None]
            omega = huber_weight(E, cfg.tuning)
        omega_star = np.where(np.abs(E) <= cfg.truncation, 1.0, omega)
        for i, b, s, bad, e, w, w_star in zip(rows[done].tolist(), B[done], sigma.tolist(),
                                              collapsed.tolist(), E, omega, omega_star):
            fits[i] = NumericalError(_COLLAPSED_SCALE) if bad else RobustFit(
                beta=b, sigma=s, std_residuals=e, huber_weights=w, truncated_weights=w_star,
                iterations=iterations, converged=converged, tuning=cfg.tuning,
                truncation=cfg.truncation)

    iterations = 0
    while rows.size and iterations < cfg.max_iterations:
        sigma = _row_mad_scales(R)
        collapsed = sigma <= floors
        if collapsed.any():
            for i in rows[collapsed].tolist():
                fits[i] = NumericalError(_COLLAPSED_SCALE)
            rows, Y, floors, Z, B, R, sigma = drop(collapsed, B, R, sigma)
        W = huber_weight(R / sigma[:, None], cfg.tuning)
        _require_finite(W)
        SW = np.sqrt(W)
        Zs = systems[:rows.size]
        np.multiply(Z.swapaxes(-1, -2), SW[:, None, :], out=Zs)
        B_new, singular = _stacked_lstsq(Zs.transpose(0, 2, 1), Y * SW)
        # a design without columns has no coefficient to move
        delta = np.abs(B_new - B).max(axis=1, initial=0.0)
        B = B_new
        R = Y - np.matmul(Z, B[:, :, None])[:, :, 0]
        iterations += 1
        done = (delta < cfg.tol) & ~singular
        ended = done | singular
        if ended.any():
            for i in rows[singular].tolist():
                fits[i] = NumericalError(_SINGULAR)
            settle(done, True)
            rows, Y, floors, Z, B, R = drop(ended, B, R)
    settle(np.ones(rows.size, dtype=bool), False)
    return fits


def ols_refit(Z, Y) -> list[RobustFit | NumericalError]:
    """Least-squares fit of every outcome row Y[i] of a stack, in the
    RobustFit shape, for the non-robust comparators.  Z, the checks and
    the solve are irls_refit's cold start.  Each fit has the classical
    scale sqrt(SSR / (n - Q)), unit weights, no iterations and infinite
    tuning, and depends on its row alone.  A row whose design is singular,
    or whose residual variance is zero to rounding, gets its NumericalError
    in place.
    """
    Z, Y, failed = _checked(Z, Y)
    if failed is not None:
        return failed
    m, n = Y.shape
    q = Z.shape[-1]
    B, singular = _lstsq_start(Z, Y, np.empty((m, q, n)))
    R = Y - np.matmul(Z, B[:, :, None])[:, :, 0]
    fits: list[RobustFit | NumericalError] = []
    for y, b, r, bad in zip(Y, B, R, singular.tolist()):
        sigma = float(np.sqrt(r @ r / (n - q)))
        if bad or sigma <= _scale_floor(y):
            fits.append(NumericalError(_SINGULAR if bad else
                                       "degenerate scale: zero residual variance"))
        else:
            fits.append(RobustFit(beta=b, sigma=sigma, std_residuals=r / sigma,
                                  huber_weights=np.ones(n), truncated_weights=np.ones(n),
                                  iterations=0, converged=True, tuning=np.inf,
                                  truncation=np.inf))
    return fits

