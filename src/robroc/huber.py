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
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np
import scipy

from .errors import NumericalError


def _load_flapack():
    """scipy's compiled LAPACK module, scipy.linalg._flapack, without
    running scipy/linalg/__init__.py, whose array-API layer costs most of
    an import.  The module is registered under its own name, so a later
    import of scipy.linalg takes this very module, and its routines are the
    objects scipy.linalg.lapack exports."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
        paths = [stem + suffix for suffix in EXTENSION_SUFFIXES if os.path.exists(stem + suffix)]
        if not paths:
            from scipy.linalg import _flapack
            return _flapack
        spec = spec_from_file_location(name, paths[0], loader=ExtensionFileLoader(name, paths[0]))
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_flapack = _load_flapack()
dgeqp3, dorgqr, dtrtrs, dpotrs = _flapack.dgeqp3, _flapack.dorgqr, _flapack.dtrtrs, _flapack.dpotrs

DEFAULT_TUNING = 1.345
DEFAULT_TRUNCATION = 3.0
MAD_FACTOR = 1.4826
_SINGULAR = "singular design matrix"
_COLLAPSED_SCALE = "degenerate scale: MAD of residuals is zero"


def _check_tuning(b) -> None:
    """Refuse a tuning constant b that is not positive (NaN included); b =
    inf, least squares, is valid."""
    if not b > 0.0:
        raise ValueError(f"tuning constant must be positive, got {b}")


def _check_integer(name: str, value, least: int) -> None:
    """Refuse a count or seed that is not a Python or numpy integer of at
    least `least`, naming it."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def huber_psi(u, b: float = DEFAULT_TUNING):
    """Derivative of the Huber loss (the influence function)."""
    _check_tuning(b)
    u = np.asarray(u, dtype=float)
    out = np.clip(u, -b, b)
    return float(out) if out.ndim == 0 else out


def huber_weight(u, b: float = DEFAULT_TUNING):
    """IRLS weight psi(u)/u = min(1, b/|u|), equal to 1 at u = 0."""
    _check_tuning(b)
    au = np.abs(np.asarray(u, dtype=float))
    # b / max(|u|, b) is min(1, b/|u|) bit for bit, 0, inf and NaN included,
    # and never divides by zero; at b = inf (least squares) it would be
    # inf/inf, so that case keeps the min form, whose inf/0 raises nothing
    out = b / np.maximum(au, b) if b < np.inf else np.minimum(1.0, b / au)
    return float(out) if out.ndim == 0 else out


def _row_mad_scales(R: np.ndarray) -> np.ndarray:
    """The MAD scale of each row of R, from one sort along the rows: the
    middle order statistics, and the last place, where any NaN sorts.  The
    sort finds the same order statistics as np.median's selection, so each
    scale is 1.4826 * np.median(|r|) bit for bit, NaN for a row with a NaN."""
    a = np.abs(R)
    a.sort(axis=1)
    n = a.shape[1]
    k = n // 2
    mid = a[:, k] if n % 2 else (a[:, k - 1] + a[:, k]) / 2.0
    return MAD_FACTOR * np.where(np.isnan(a[:, -1]), np.nan, mid)


@dataclass
class FitConfig:
    """Tuning constants and iteration controls for the robust fit."""

    tuning: float = DEFAULT_TUNING
    truncation: float = DEFAULT_TRUNCATION
    max_iterations: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        _check_integer("max_iterations", self.max_iterations, 1)
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


def _lapack_ok(name: str, infos) -> None:
    """Raise the first nonzero info of a routine's calls across a stack."""
    info = next((i for i in infos if i), 0)
    if info:
        raise NumericalError(f"LAPACK {name} failed with info={info}")


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _row_rms(Y: np.ndarray, d: int) -> np.ndarray:
    """Each row's sqrt(y @ y / d), from a stacked matmul of the same dot
    products; only a row whose y @ y overflows is scaled by its largest
    magnitude first, so every other row keeps the one-row dot's bits."""
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0] / d)
    for i in np.flatnonzero(rms == np.inf):
        top = np.abs(Y[i]).max()
        rms[i] = top * np.sqrt((Y[i] / top) @ (Y[i] / top) / d)
    return rms


def _scale_floors(Y: np.ndarray) -> np.ndarray:
    # relative floor: interpolation leaves only rounding-level residue, and a
    # scale that far below the outcome scale is a collapse, not a spread
    return 1e-12 * np.maximum(_row_rms(Y, Y.shape[1]), 1.0)


def _stacked_lstsq(Zs: np.ndarray, Ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares on each finite system (Zs[i], Ys[i]) of a stack via
    pivoted QR.

    Calls the LAPACK routines behind scipy.linalg.qr(mode="economic",
    pivoting=True) and solve_triangular directly, in the same order and with
    the same arguments (dgeqp3, dorgqr, then dtrtrs on R.T as lower and
    transposed), so each solution is bit for bit theirs without their
    per-call wrapper cost.  The three LAPACK routines still run system by
    system, since each factors or solves one matrix; their infos are
    checked once per routine across the stack.  The rank check (the
    triangular factor's diagonal, with a 1e-10 relative threshold), Q^T y
    and the finite check run once across the stack.  dorgqr leaves each Q
    in place of its system, so Q^T y is one stacked np.matmul of the
    (q, n) @ (n, 1) products, each through the same gemv as a one-system
    Q.T @ y, and therefore the same bits.  Zs is overwritten: each system
    is factored in place, after one up-front copy of the stack unless
    every Zs[i] is Fortran-ordered.  Returns the solutions, NaN for the
    singular systems, and the mask of those systems.
    """
    m, n, q = Zs.shape
    if Zs.size == 0 or n < q:
        return np.full((m, q), np.nan), np.ones(m, dtype=bool)
    # each system's transpose, C-ordered and writeable, is the system
    # Fortran-ordered, which LAPACK factors in place
    systems = Zs.transpose(0, 2, 1)
    if not systems.flags.carray:
        systems = systems.copy()
        Zs = systems.transpose(0, 2, 1)
    geqp3_lwork, orgqr_lwork = _workspace(n, q)
    _, jpvts, taus, _, infos = zip(*[dgeqp3(Z, geqp3_lwork, 1) for Z in Zs])
    _lapack_ok("dgeqp3", infos)
    # each R, copied before dorgqr overwrites its system
    R = Zs[:, :q].copy()
    diag = np.abs(R.diagonal(0, 1, 2))
    singular = diag.min(axis=1) <= 1e-10 * diag.max(axis=1)
    solved = (~singular).nonzero()[0].tolist()
    _lapack_ok("dorgqr", [dorgqr(Zs[i], taus[i], orgqr_lwork, 1)[2] for i in solved])
    # a singular system's product is never used
    x = np.matmul(systems, Ys[:, :, None])[:, :, 0]
    _require_finite(x[~singular])
    # dtrtrs solves each system in place of its Q^T y
    _lapack_ok("dtrtrs", [dtrtrs(R[i].T, x[i], 1, 1, overwrite_b=1)[1] for i in solved])
    x[singular] = np.nan
    beta = np.empty((m, q))
    beta[np.arange(m)[:, None], np.array(jpvts) - 1] = x
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
    floors = _scale_floors(Y)
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
    for floor, sigma, b, r, bad in zip(_scale_floors(Y).tolist(), _row_rms(R, n - q).tolist(),
                                       B, R, singular.tolist()):
        if bad or sigma <= floor:
            fits.append(NumericalError(_SINGULAR if bad else
                                       "degenerate scale: zero residual variance"))
        else:
            fits.append(RobustFit(beta=b, sigma=sigma, std_residuals=r / sigma,
                                  huber_weights=np.ones(n), truncated_weights=np.ones(n),
                                  iterations=0, converged=True, tuning=np.inf,
                                  truncation=np.inf))
    return fits

