"""End-to-end acceptance checks for the package.

Each check prints a single verdict line (PASS or FAIL with the measured
numbers) on the real stdout so the summary survives pytest's capture, then
asserts the stated tolerances. The checks cover: agreement between the
closed-form AUC and numerical integration, bias contrasts between the robust
fit and least-squares fits under contaminated and clean data (including the
breakdown of the least-squares binormal plug-in under large shifts),
knot-selection frequencies, efficiency of the intercept estimate at the normal
model, a compact re-run of the core algebraic properties, and the sensitivity
curve of the AUC to one gross outlier on fixed data sets.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
from scipy.special import ndtr

import conftest
from conftest import full_basis_row
from robroc.bootstrap import BootstrapConfig, residual_bootstrap
from robroc.data import GroupSample
from robroc.errors import NumericalError
from robroc.huber import irls_fit
from robroc.roc import (PopulationPair, auc_closed_form, auc_grid, auc_simpson, fit_pair,
                        roc_values, unconditional_auc)
from robroc.simulate import comparator_fit, generate, run_study, scenario
from robroc.splines import knot_sequence
from robroc.wecdf import WeightedEcdf


def announce(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.VERDICTS.append(line)


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def linear_truth(x_grid):
    # binormal AUC for the linear scenario: mean gap 1.5 + 3x, scales 1.5 and 2
    return np.array([normal_cdf((1.5 + 3.0 * x) / 2.5) for x in x_grid])


def draw_linear_pair(rng, n_nd, n_d):
    """One sample from the linear scenario, plus the covariate overlap midpoint."""
    x_nd = rng.uniform(0.0, 1.0, n_nd)
    x_d = rng.uniform(0.0, 1.0, n_d)
    y_nd = 0.5 + x_nd + rng.normal(0.0, 1.5, n_nd)
    y_d = 2.0 + 4.0 * x_d + rng.normal(0.0, 2.0, n_d)
    nd = GroupSample(y_nd, x_nd[:, None], label="nondiseased")
    d = GroupSample(y_d, x_d[:, None], label="diseased")
    lo = max(x_nd.min(), x_d.min())
    hi = min(x_nd.max(), x_d.max())
    return nd, d, (lo + hi) / 2.0


def exact_step_integral(pair, x):
    """Integrate ROC(. | x) exactly: it is constant between the points where
    the nondiseased quantile jumps, i.e. at t = 1 - (cumulative fraction)."""
    fr = pair.nondiseased.ecdf.cum_weights / pair.nondiseased.ecdf.total
    breaks = np.unique(np.concatenate([[0.0, 1.0], 1.0 - fr]))
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    return float(np.diff(breaks) @ roc_values(pair, x, mids))


def test_a1_closed_form_matches_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst_simpson = 0.0
    for _ in range(100):
        n_nd = int(rng.integers(10, 51))
        n_d = int(rng.integers(10, 51))
        nd, d, x0 = draw_linear_pair(rng, n_nd, n_d)
        pair = fit_pair(nd, d, 0)
        gap = abs(auc_closed_form(pair, [x0]) - auc_simpson(pair, [x0], n_panels=2000))
        worst_simpson = max(worst_simpson, gap)

    # the step-function identity needs tie-free residuals, so redraw on the
    # rare tie or degenerate small-sample fit
    worst_exact = 0.0
    for _ in range(30):
        while True:
            n_nd = int(rng.integers(10, 21))
            n_d = int(rng.integers(10, 21))
            nd, d, x0 = draw_linear_pair(rng, n_nd, n_d)
            try:
                pair = fit_pair(nd, d, 0)
            except NumericalError:
                continue
            values = np.concatenate([
                pair.nondiseased.fit.std_residuals * pair.nondiseased.fit.sigma,
                pair.diseased.fit.std_residuals * pair.diseased.fit.sigma,
            ])
            if np.unique(values).size == values.size:
                break
        gap = abs(exact_step_integral(pair, [x0]) - auc_closed_form(pair, [x0]))
        worst_exact = max(worst_exact, gap)

    elapsed = time.time() - t0
    ok = worst_simpson < 1e-3 and worst_exact <= 1e-10 and elapsed < 10.0
    announce("A1", ok,
             f"closed form vs 2000-panel Simpson max gap {worst_simpson:.2e} "
             f"(< 1e-3), exact step integral max gap {worst_exact:.2e} "
             f"(<= 1e-10), {elapsed:.1f}s (< 10s)")
    assert worst_simpson < 1e-3
    assert worst_exact <= 1e-10
    assert elapsed < 10.0


def test_a2_contaminated_bias_contrast():
    t0 = time.time()
    report = run_study(scenario("I", contamination=0.05), 200, 100, 100,
                       seed=202, estimators=("robust", "ols_linear"))
    truth = linear_truth(report.x_grid[:, 0])
    robust_bias = np.max(np.abs(report.estimators["robust"].mean - truth))
    ols_bias = np.max(np.abs(report.estimators["ols_linear"].mean - truth))
    elapsed = time.time() - t0
    ok = robust_bias < 0.03 and ols_bias > 0.08 and elapsed < 120.0
    announce("A2", ok,
             f"5% contamination: robust max bias {robust_bias:.4f} (< 0.03), "
             f"least-squares linear max bias {ols_bias:.4f} (> 0.08), "
             f"{elapsed:.1f}s (< 120s)")
    assert robust_bias < 0.03
    assert ols_bias > 0.08
    assert elapsed < 120.0


def test_a3_clean_data_parity():
    report = run_study(scenario("I"), 200, 100, 100, seed=203,
                       estimators=("robust", "ols_bspline"))
    gap = np.max(np.abs(report.estimators["robust"].mean
                        - report.estimators["ols_bspline"].mean))
    ok = gap < 0.02
    announce("A3", ok,
             f"no contamination: robust vs least-squares spline mean AUC "
             f"curves differ by at most {gap:.4f} (< 0.02)")
    assert gap < 0.02


def test_a4_knot_selection_rates():
    t0 = time.time()
    report = run_study(scenario("I"), 100, 100, 1000, seed=204,
                       estimators=(), select_candidates=[0, 3])
    counts = report.knot_counts["nondiseased"]
    main_rate = counts.get((0,), 0) / sum(counts.values())

    spot_rates = {}
    spots = [("II", 2042, "nondiseased", (0,), 0.71),
             ("III", 2043, "nondiseased", (0,), 0.72),
             ("IV", 2044, "nondiseased", (0, 0), 0.82),
             ("IV", 2044, "diseased", (0, 0), 0.83)]
    cache = {}
    for name, seed, group, key, target in spots:
        if (name, seed) not in cache:
            cache[(name, seed)] = run_study(scenario(name), 100, 100, 200,
                                            seed=seed, estimators=(),
                                            select_candidates=[0, 3])
        tally = cache[(name, seed)].knot_counts[group]
        spot_rates[(name, group)] = tally.get(key, 0) / sum(tally.values())

    elapsed = time.time() - t0
    spot_ok = all(abs(spot_rates[(name, group)] - target) <= 0.08
                  for name, seed, group, key, target in spots)
    ok = abs(main_rate - 0.70) <= 0.05 and spot_ok and elapsed < 300.0
    announce("A4", ok,
             f"no-knot model chosen for nondiseased in {main_rate:.1%} of 1000 "
             f"replicates (70% +- 5pp); spot checks at 200 replicates "
             + ", ".join(f"{n} {g[:4]} {spot_rates[(n, g)]:.1%}"
                         for n, s, g, k, t in spots)
             + f"; {elapsed:.1f}s (< 300s)")
    assert abs(main_rate - 0.70) <= 0.05
    for name, seed, group, key, target in spots:
        assert abs(spot_rates[(name, group)] - target) <= 0.08
    assert elapsed < 300.0


def test_a5_intercept_efficiency():
    rng = np.random.default_rng(55)
    Z = np.ones((500, 1))
    ols = np.empty(2000)
    huber = np.empty(2000)
    for r in range(2000):
        y = rng.standard_normal(500)
        ols[r] = y.mean()
        huber[r] = irls_fit(Z, y).beta[0]
    ratio = ols.var() / huber.var()
    ok = 0.90 <= ratio <= 1.00
    announce("A5", ok,
             f"variance ratio mean vs robust intercept at the normal model "
             f"{ratio:.4f} (within [0.90, 1.00])")
    assert 0.90 <= ratio <= 1.00


def binormal_plugin_bias(scn, x_grid, n_nd, n_d, n_replicates, seed):
    """Max bias of the least-squares binormal plug-in AUC.

    Fits ols_linear to each group of the replicate draws that run_study
    uses, plugs the fitted means and residual scales into
    Phi((mu_d(x) - mu_nd(x)) / sqrt(sigma_d^2 + sigma_nd^2)) on x_grid, and
    compares the replicate mean with the linear-scenario truth.
    """
    total = np.zeros(x_grid.shape[0])
    for r in range(n_replicates):
        nd, d = (comparator_fit("ols_linear", sample)
                 for sample in generate(scn, n_nd, n_d, seed=(seed, r)))
        gap = (d.design.matrix(x_grid) @ d.fit.beta
               - nd.design.matrix(x_grid) @ nd.fit.beta)
        total += ndtr(gap / math.hypot(d.fit.sigma, nd.fit.sigma))
    return float(np.max(np.abs(total / n_replicates - linear_truth(x_grid[:, 0]))))


def test_a6_large_shift_contrast():
    shifted = scenario("I", contamination=0.02, kappa=(50.0, 50.0))
    report = run_study(shifted, 200, 200, 100, seed=206,
                       estimators=("robust", "ols_linear"))
    truth = linear_truth(report.x_grid[:, 0])
    robust_bias = np.max(np.abs(report.estimators["robust"].mean - truth))
    ols_bias = np.max(np.abs(report.estimators["ols_linear"].mean - truth))
    # The binormal plug-in reads the scale: four 50-sigma outliers per group
    # inflate the least-squares sigma several-fold, which drags its AUC
    # toward 1/2. ols_linear feeds the empirical-residual pipeline instead,
    # whose adjusted values mu(x) + y_i - mu(x_i) are free of sigma, so it
    # sees the outliers only through the fitted means; it is reported here
    # but held to no bound.
    plugin_bias = binormal_plugin_bias(shifted, report.x_grid, 200, 200, 100, 206)
    clean_bias = binormal_plugin_bias(scenario("I"), report.x_grid, 200, 200,
                                      100, 206)
    ok = robust_bias < 0.03 and plugin_bias > 0.15 and clean_bias < 0.03
    announce("A6", ok,
             f"2% contamination with 50-sigma shifts: robust max bias "
             f"{robust_bias:.4f} (< 0.03), least-squares binormal plug-in max "
             f"bias {plugin_bias:.4f} (required > 0.15) and {clean_bias:.4f} "
             f"on clean data (< 0.03), least-squares linear empirical-residual "
             f"max bias {ols_bias:.4f} (reported)")
    assert robust_bias < 0.03
    assert plugin_bias > 0.15
    assert clean_bias < 0.03


def test_a7_property_suite():
    rng = np.random.default_rng(77)

    # partition of unity for the full spline basis
    basis_gap = 0.0
    for _ in range(10):
        col = rng.uniform(-4, 4, size=int(rng.integers(15, 60)))
        spec = knot_sequence(col, int(rng.integers(0, 5)))
        lo, hi = spec.boundary
        for x in np.concatenate([[lo, hi], rng.uniform(lo, hi, 20)]):
            row = full_basis_row(float(x), spec)
            basis_gap = max(basis_gap, abs(row.sum() - 1.0))
    basis_ok = basis_gap <= 1e-12

    # regression and scale equivariance of the robust fit
    Z = np.column_stack([np.ones(60), rng.uniform(0, 1, (60, 2))])
    y = Z @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 1, 60)
    y[:3] += 8.0
    base = irls_fit(Z, y)
    gamma = np.array([0.7, -1.2, 2.0])
    shifted = irls_fit(Z, y + Z @ gamma)
    scaled = irls_fit(Z, 3.5 * y)
    equiv_ok = (np.allclose(shifted.beta, base.beta + gamma, atol=1e-7)
                and math.isclose(shifted.sigma, base.sigma, rel_tol=1e-8)
                and np.allclose(scaled.beta, 3.5 * base.beta, atol=1e-6)
                and math.isclose(scaled.sigma, 3.5 * base.sigma, rel_tol=1e-8))

    # stationarity: sum of z_i * psi(residual_i) vanishes at the solution
    psi = np.clip(base.std_residuals, -1.345, 1.345)
    ee_residual = float(np.max(np.abs(Z.T @ psi)))
    ee_ok = ee_residual <= 1e-6 * y.size

    # quantile and CDF form an adjoint pair: Q(t) <= y iff t <= F(y),
    # probed between jump points to stay off floating-point knife edges
    values = rng.normal(size=40)
    weights = rng.uniform(0.2, 2.0, 40)
    ecdf = WeightedEcdf.from_residuals(values, weights)
    fracs = ecdf.cum_weights / ecdf.total
    inner = np.concatenate([[0.0], fracs])
    t_mids = (inner[:-1] + inner[1:]) / 2.0
    probe = np.concatenate([(ecdf.support[:-1] + ecdf.support[1:]) / 2.0,
                            [ecdf.support[0] - 1.0, ecdf.support[-1] + 1.0]])
    galois_ok = all((ecdf.quantile(t) <= y) == (t <= ecdf.cdf(y))
                    for t in t_mids for y in probe)
    galois_ok = galois_ok and all(ecdf.cdf(ecdf.quantile(p)) >= p - 1e-12
                                  for p in rng.uniform(0.01, 0.99, 50))

    # closed-form two-sample AUC against the brute-force double loop
    y_nd = rng.normal(0, 1, 25)
    y_d = rng.normal(1, 1, 20)
    y_d[:5] = y_nd[:5]
    w_nd = rng.uniform(0.1, 1.0, 25)
    w_d = rng.uniform(0.1, 1.0, 20)
    brute = sum(w_nd[i] * w_d[j]
                * (1.0 if y_nd[i] < y_d[j] else 0.5 if y_nd[i] == y_d[j] else 0.0)
                for i in range(25) for j in range(20)) / (w_nd.sum() * w_d.sum())
    mw_gap = abs(unconditional_auc(y_nd, y_d, w_nd, w_d) - brute)
    mw_ok = mw_gap <= 1e-12

    # bootstrap repeatability under a fixed seed
    nd, d, x0 = draw_linear_pair(rng, 40, 40)
    pair = fit_pair(nd, d, 0)
    cfg = BootstrapConfig(n_replicates=20, seed=5)
    first = residual_bootstrap(pair, [x0], cfg)
    second = residual_bootstrap(pair, [x0], cfg)
    boot_ok = (np.array_equal(first.auc_lower, second.auc_lower)
               and np.array_equal(first.auc_upper, second.auc_upper))

    ok = all([basis_ok, equiv_ok, ee_ok, galois_ok, mw_ok, boot_ok])
    announce("A7", ok,
             f"properties: basis sums to one within {basis_gap:.1e}, "
             f"equivariance {'ok' if equiv_ok else 'violated'}, "
             f"estimating equation residual {ee_residual:.1e}, "
             f"quantile inverse {'ok' if galois_ok else 'violated'}, "
             f"brute-force AUC gap {mw_gap:.1e}, "
             f"bootstrap {'deterministic' if boot_ok else 'nondeterministic'}")
    assert basis_ok
    assert equiv_ok
    assert ee_ok
    assert galois_ok
    assert mw_ok
    assert boot_ok


def test_a9_sensitivity_curve():
    """One gross outlier has a bounded effect on the robust AUC and an
    unbounded one on least squares (Hampel's sensitivity curve, one data set
    at a time).  On clean scenario I and III data (n = 200/100, 0 knots) the
    outcome of the observation nearest x = 0.5 is moved by +z in the
    nondiseased group or by -z in the diseased group, and the AUC is read at
    x = 0.25, 0.5 and 0.75.  The bounds come from a sweep over 400 data sets
    (seeds (5, s) and (21, s), s < 100, each scenario): robust |dAUC| at
    most 0.0198, robust change between z = 1e4 and 1e8 at most 3.4e-6, and
    a least-squares change at z = 1e8 of at least 0.33 per shifted group."""
    t0 = time.time()
    x = np.array([[0.25], [0.5], [0.75]])

    def shifted(sample, z):
        y = sample.outcomes.copy()
        y[np.argmin(np.abs(sample.covariates[:, 0] - 0.5))] += z
        return replace(sample, outcomes=y)

    def aucs(nd, d):
        ols = PopulationPair(comparator_fit("ols_linear", nd), comparator_fit("ols_linear", d))
        return auc_grid(fit_pair(nd, d, 0), x), auc_grid(ols, x)

    robust_max, flat_max, ols_min = 0.0, 0.0, np.inf
    for name in ("I", "III"):
        for s in range(3):
            nd, d = generate(scenario(name), 200, 100, seed=(17, s))
            robust0, ols0 = aucs(nd, d)
            for sign in (1.0, -1.0):
                robust = {}
                for z in (1e2, 1e4, 1e8):
                    moved = (shifted(nd, z), d) if sign > 0 else (nd, shifted(d, -z))
                    robust[z], ols = aucs(*moved)
                    robust_max = max(robust_max, np.abs(robust[z] - robust0).max())
                # ols is left at the last z, 1e8
                flat_max = max(flat_max, np.abs(robust[1e8] - robust[1e4]).max())
                ols_min = min(ols_min, np.abs(ols - ols0).max())
    elapsed = time.time() - t0
    ok = robust_max < 0.03 and flat_max < 1e-5 and ols_min > 0.2
    announce("A9", ok,
             f"one outlier moved by up to 1e8 on 6 data sets: robust max |dAUC| "
             f"{robust_max:.4f} (< 0.03), robust change from z = 1e4 to 1e8 "
             f"{flat_max:.1e} (< 1e-5), least-squares linear change at z = 1e8 "
             f"at least {ols_min:.4f} (> 0.2), {elapsed:.2f}s")
    assert robust_max < 0.03
    assert flat_max < 1e-5
    assert ols_min > 0.2
