"""Shared pytest hooks and test helpers.

The acceptance tests register one verdict line each; printing them from a
terminal-summary hook keeps them visible under pytest's default capture.
"""

import csv

import numpy as np

from robroc.errors import NumericalError
from robroc.huber import irls_fit
from robroc.roc import GroupFit, PopulationPair
from robroc.splines import SplineSpec, _full_basis

VERDICTS = []


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """A written table's header and data rows, as strings."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader]


def full_basis_row(x: float, knots) -> np.ndarray:
    """The complete K + 4 basis values at a single point (nothing dropped)."""
    return _full_basis(np.asarray([[x]], dtype=float), [knots])[0, :, 0]


def assert_same_fit(got, want):
    """Two RobustFits are equal bit for bit, field by field."""
    for name in vars(want):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_same_group(got, want):
    """Two GroupFits are equal bit for bit: fit, design, residual
    distribution and label."""
    assert_same_fit(got.fit, want.fit)
    assert (got.design, got.label) == (want.design, want.label)
    for name in ("support", "weights", "cum_weights", "total"):
        assert np.asarray(getattr(got.ecdf, name)).tobytes() == \
            np.asarray(getattr(want.ecdf, name)).tobytes(), name


def reference_fit_pair(nondiseased, diseased, n_interior, config=None):
    """fit_pair as the per-sample route it replaced, kept as its reference:
    per group SplineSpec.from_data, its matrix and irls_fit."""
    groups = []
    for sample in (nondiseased, diseased):
        spec = SplineSpec.from_data(sample.covariates, n_interior)
        fit = irls_fit(spec.matrix(sample.covariates), sample.outcomes, config)
        groups.append(GroupFit.from_fit(fit, spec, sample.label))
    return PopulationPair(*groups)


# The per-point evaluators that roc.evaluate replaced, kept as its reference:
# each takes the groups' fitted means at one covariate point.

def row_means(fit, rows) -> list[float]:
    """Fitted means at design rows, each the 1-D product predict_mean takes."""
    return [float(row @ fit.beta) for row in rows]


def _check_scales(pair):
    if pair.nondiseased.fit.sigma <= 0.0 or pair.diseased.fit.sigma <= 0.0:
        raise NumericalError("degenerate scale in fitted pair")


def _adjusted(group, mu: float) -> np.ndarray:
    return mu + group.fit.sigma * group.ecdf.support


def point_auc(pair, mu_nd: float, mu_d: float) -> float:
    _check_scales(pair)
    nd_vals = _adjusted(pair.nondiseased, mu_nd)
    d_vals = _adjusted(pair.diseased, mu_d)
    d_w = pair.diseased.ecdf.weights
    # nd support is sorted; cumulative nd weight at nd_vals <= d_val
    cum = pair.nondiseased.ecdf.cum_weights
    pos = np.searchsorted(nd_vals, d_vals, side="right")
    covered = np.where(pos > 0, cum[pos - 1], 0.0)
    return float((d_w @ covered) / (cum[-1] * d_w.sum()))


def point_roc(pair, mu_nd: float, mu_d: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t values must lie in [0, 1]")
    _check_scales(pair)
    a = (mu_nd - mu_d) / pair.diseased.fit.sigma
    c = pair.nondiseased.fit.sigma / pair.diseased.fit.sigma
    q = pair.nondiseased.ecdf.quantile(1.0 - t)
    return 1.0 - pair.diseased.ecdf.cdf(a + c * q)


def point_youden(pair, mu_nd: float, mu_d: float) -> tuple[float, float]:
    _check_scales(pair)
    candidates = np.union1d(_adjusted(pair.nondiseased, mu_nd),
                            _adjusted(pair.diseased, mu_d))
    f_nd = pair.nondiseased.ecdf.cdf((candidates - mu_nd) / pair.nondiseased.fit.sigma)
    f_d = pair.diseased.ecdf.cdf((candidates - mu_d) / pair.diseased.fit.sigma)
    objective = f_nd - f_d
    best = int(np.argmax(objective))  # first maximum = smallest candidate
    return float(objective[best]), float(candidates[best])


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
