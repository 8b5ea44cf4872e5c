"""Shared pytest hooks and test helpers.

The acceptance tests register one verdict line each; printing them from a
terminal-summary hook keeps them visible under pytest's default capture.
"""

import csv

import numpy as np

from robroc.data import GroupSample
from robroc.errors import NumericalError
from robroc.huber import irls_fit
from robroc.roc import GroupFit, PopulationPair, evaluate
from robroc.splines import _full_basis, design_stack

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
    per group the spec of its one-row design stack, its matrix and irls_fit."""
    groups = []
    for sample in (nondiseased, diseased):
        spec = design_stack(sample.covariates[None], n_interior)[0][0]
        fit = irls_fit(spec.matrix(sample.covariates), sample.outcomes, config)
        groups.append(GroupFit.from_fit(fit, spec, sample.label))
    return PopulationPair(*groups)


def binary_samples(seed, n_nd, n_d, tied):
    """Two groups over one 0/1 covariate; with tied set, their outcomes are
    integers, which tie within each category."""
    rng = np.random.default_rng(seed)
    samples = []
    for n, shift, label in ((n_nd, 0.0, "nondiseased"), (n_d, 1.0, "diseased")):
        z = rng.integers(0, 2, n).astype(float)
        y = rng.normal(2.0 * z + shift, 1.5)
        samples.append(GroupSample(outcomes=np.round(y) if tied else y,
                                   covariates=z[:, None], label=label))
    return samples


def reference_ecdf(values, weights) -> tuple:
    """WeightedEcdf.from_residuals as the one-sample build that the stacked
    builder replaced, kept as its reference: np.unique, one np.bincount of
    the weights over the inverse, np.cumsum.  Returns the support, merged
    weights, cumulative weights and total."""
    support, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    merged = np.bincount(inverse, weights=np.asarray(weights, dtype=float),
                         minlength=support.size)
    cum = np.cumsum(merged)
    return support, merged, cum, float(cum[-1])


def reference_cdf(ecdf, y) -> np.ndarray:
    """WeightedEcdf.cdf as one search of the unpadded support."""
    idx = np.searchsorted(ecdf.support, np.asarray(y, dtype=float), side="right")
    return np.where(idx > 0, ecdf.cum_weights[idx - 1], 0.0) / ecdf.total


def reference_quantile(ecdf, t) -> np.ndarray:
    """WeightedEcdf.quantile as one search of the unpadded cumulative
    weights."""
    idx = np.searchsorted(ecdf.cum_weights, np.asarray(t, dtype=float) * ecdf.total,
                          side="left")
    return ecdf.support[np.minimum(idx, ecdf.support.size - 1)]


def per_replicate_statistic(groups, rows, t=None, youden=False):
    """residual_bootstrap's chunk statistic as the per-replicate route it
    replaced, kept as its reference: per replicate, a GroupFit per refit,
    their PopulationPair and one evaluate.  The replicates' values are
    stacked as the chunk statistic returns them."""
    def statistic(refits, _):
        values = [evaluate(PopulationPair(*(GroupFit.from_fit(f, g.design, g.label)
                                            for f, g in zip(rep, groups))), *rows, t, youden)
                  for rep in zip(*refits)]
        return tuple(None if v[0] is None else np.array(v) for v in zip(*values))
    return statistic


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
    q = reference_quantile(pair.nondiseased.ecdf, 1.0 - t)
    return 1.0 - reference_cdf(pair.diseased.ecdf, a + c * q)


def point_youden(pair, mu_nd: float, mu_d: float) -> tuple[float, float]:
    _check_scales(pair)
    candidates = np.union1d(_adjusted(pair.nondiseased, mu_nd),
                            _adjusted(pair.diseased, mu_d))
    f_nd = reference_cdf(pair.nondiseased.ecdf,
                         (candidates - mu_nd) / pair.nondiseased.fit.sigma)
    f_d = reference_cdf(pair.diseased.ecdf, (candidates - mu_d) / pair.diseased.fit.sigma)
    objective = f_nd - f_d
    best = int(np.argmax(objective))  # first maximum = smallest candidate
    return float(objective[best]), float(candidates[best])


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
