"""Command-line interface.

Subcommands: fit, select-knots, roc, auc, youden, bootstrap, uauc,
simulate.  Options resolve as flag > config file (--config or the
ROBROC_CONFIG environment variable) > built-in default.  Every run writes
CSV tables plus a manifest.json into --out.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bootstrap import (BootstrapConfig, BootstrapTarget, residual_bootstrap,
                        unconditional_auc_bootstrap)
from .errors import DataError, NumericalError, UsageError
from .huber import FitConfig
from .io import (CONFIG_ENV_VAR, RunConfig, load_config, parse_grid,
                 parse_knots, parse_values, read_csv, write_manifest,
                 write_table)
from .model_select import knot_grid, select_knots
from .roc import (auc_closed_form, fit_pair, robust_unconditional_auc, roc_curve,
                  youden_index)
from .simulate import ESTIMATORS, run_study, scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="robroc",
                     description="Robust covariate-specific ROC analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--out", help="output directory (default .)")

    data = _Parser(add_help=False)
    data.add_argument("--data", help="CSV data file")
    data.add_argument("--outcome", help="outcome column name")
    data.add_argument("--disease", help="0/1 disease column name")
    data.add_argument("--covariates", help="comma-separated covariate columns")
    data.add_argument("--skip-missing", action="store_true", default=None,
                      help="drop rows with missing values instead of failing")
    data.add_argument("--knots", help="interior knots per covariate, e.g. 0 or 2,0 or cat")
    data.add_argument("--tuning", type=float, help="Huber tuning constant (1.345)")
    data.add_argument("--truncation", type=float,
                      help="weight truncation threshold (3)")
    data.add_argument("--max-iterations", type=int, help="IRLS iteration cap (50)")
    data.add_argument("--tol", type=float, help="IRLS convergence tolerance (1e-8)")

    p = sub.add_parser("fit", parents=[common, data],
                       help="fit both groups and report coefficients and weights")

    p = sub.add_parser("select-knots", parents=[common, data],
                       help="rank interior knot counts per group by robust AIC")
    p.add_argument("--candidates", help="knot counts to try per covariate (default 0,1,2,3,4)")

    p = sub.add_parser("roc", parents=[common, data],
                       help="covariate-specific ROC curve at a point")
    p.add_argument("--x", help="covariate value(s), comma-separated")
    p.add_argument("--t-points", type=int, help="grid size on [0,1] (default 201)")
    p.add_argument("--simpson-panels", type=int, help="Simpson panel count (default 200)")

    p = sub.add_parser("auc", parents=[common, data],
                       help="covariate-specific AUC over a grid")
    p.add_argument("--x-grid", help="grid as start:stop:count")
    p.add_argument("--ci", action="store_true", default=False,
                   help="add bootstrap percentile intervals")
    p.add_argument("--replicates", type=int, help="bootstrap replicates (default 1000)")
    p.add_argument("--alpha", type=float, help="interval miscoverage (default 0.05)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    p = sub.add_parser("youden", parents=[common, data],
                       help="Youden index and optimal threshold over a grid")
    p.add_argument("--x", help="single covariate point, comma-separated")
    p.add_argument("--x-grid", help="grid as start:stop:count")

    p = sub.add_parser("bootstrap", parents=[common, data],
                       help="bootstrap bands for ROC and AUC at a point")
    p.add_argument("--x", help="covariate value(s), comma-separated")
    p.add_argument("--t-points", type=int, help="ROC grid size (default 201)")
    p.add_argument("--replicates", type=int, help="bootstrap replicates (default 1000)")
    p.add_argument("--alpha", type=float, help="interval miscoverage (default 0.05)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--youden", action="store_true", default=False,
                   help="also bootstrap the Youden index")

    p = sub.add_parser("uauc", parents=[common, data],
                       help="unconditional AUC with robust weights")
    p.add_argument("--replicates", type=int,
                   help="bootstrap replicates for the interval; 0 disables")
    p.add_argument("--alpha", type=float, help="interval miscoverage (default 0.05)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo study on a built-in scenario")
    p.add_argument("--scenario", help="I, II, III, or IV")
    p.add_argument("--sizes", help="group sizes as nondiseased,diseased")
    p.add_argument("--reps", type=int, help="Monte Carlo replicates (default 100)")
    p.add_argument("--contamination", type=float,
                   help="outcome fraction replaced per group (default 0)")
    p.add_argument("--kappa", help="outlier shift multipliers nd,d (default 15,20)")
    p.add_argument("--outlier-kind", choices=["location", "radial"])
    p.add_argument("--knots", help="interior knots per covariate (default 0)")
    p.add_argument("--select", help="tally rAIC choices among these counts, e.g. 0,3")
    p.add_argument("--grid-points", type=int, help="AUC grid size (default 21)")
    p.add_argument("--estimators", help="comma list from: " + ", ".join(ESTIMATORS))
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--tuning", type=float)
    p.add_argument("--truncation", type=float)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--tol", type=float)
    return parser


def _resolve(args) -> RunConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    config = load_config(path) if path else {}
    return RunConfig.resolve(vars(args), config)


def _fit_config(cfg: RunConfig) -> FitConfig:
    return FitConfig(tuning=cfg.tuning, truncation=cfg.truncation,
                     max_iterations=cfg.max_iterations, tol=cfg.tol)


def _load_groups(cfg: RunConfig, need_covariates: bool = True):
    if not cfg.data:
        raise UsageError("no data file; pass --data or set data= in the config")
    if need_covariates and not cfg.covariates:
        raise UsageError("no covariates; pass --covariates or set covariates=")
    ds = read_csv(cfg.data, cfg.outcome, cfg.disease, cfg.covariates,
                  skip_missing=cfg.skip_missing)
    return ds, ds.group(0), ds.group(1)


def _fitted_pair(cfg: RunConfig):
    ds, nd, d = _load_groups(cfg)
    knots = parse_knots(cfg.knots, len(cfg.covariates))
    pair = fit_pair(nd, d, knots, config=_fit_config(cfg))
    return ds, nd, d, pair


def _point(cfg: RunConfig) -> np.ndarray:
    if not cfg.x:
        raise UsageError("this command needs --x")
    x = parse_values(cfg.x)
    if x.size != len(cfg.covariates):
        raise UsageError(f"--x has {x.size} values for {len(cfg.covariates)} covariates")
    return x


def _t_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.t_points < 2:
        raise UsageError(f"--t-points must be at least 2, got {cfg.t_points}")
    return np.linspace(0.0, 1.0, cfg.t_points)


def _default_grid(pair, count: int = 40) -> np.ndarray:
    # inside the intersection of both groups' boundary-knot ranges
    spec_nd = pair.nondiseased.design.knots[0]
    spec_d = pair.diseased.design.knots[0]
    lo = max(spec_nd.boundary[0], spec_d.boundary[0])
    hi = min(spec_nd.boundary[1], spec_d.boundary[1])
    if not lo < hi:
        raise DataError("group covariate ranges do not overlap")
    return np.linspace(lo, hi, count)


def _x_grid(cfg: RunConfig, pair) -> np.ndarray:
    if len(cfg.covariates) != 1:
        raise UsageError("grid commands support a single covariate; use the library API for more")
    if cfg.x_grid:
        return parse_grid(cfg.x_grid)
    return _default_grid(pair)


def _term_names(design, names) -> list[str]:
    out = ["intercept"]
    for name, k in zip(names, design.knots):
        if k is None:
            out.append(name)
        else:
            out.extend(f"{name}:bs{j + 1}" for j in range(k.n_columns))
    return out


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _cmd_fit(cfg: RunConfig) -> list[str]:
    _, nd, d, pair = _fitted_pair(cfg)
    out = _outdir(cfg)
    coef_path = os.path.join(out, "coefficients.csv")
    rows = []
    for sample, gf in ((nd, pair.nondiseased), (d, pair.diseased)):
        for term, est in zip(_term_names(gf.design, cfg.covariates), gf.fit.beta):
            rows.append([gf.label, term, est])
    write_table(coef_path, ["group", "term", "estimate"], rows)

    weights_path = os.path.join(out, "weights.csv")
    rows = []
    for sample, gf in ((nd, pair.nondiseased), (d, pair.diseased)):
        data_rows = sample.rows if sample.rows is not None else np.arange(1, sample.n + 1)
        for j in range(sample.n):
            rows.append([gf.label, int(data_rows[j]), sample.outcomes[j],
                         gf.fit.std_residuals[j], gf.fit.huber_weights[j],
                         gf.fit.truncated_weights[j]])
    write_table(weights_path,
                ["group", "row", "outcome", "std_residual", "huber_weight",
                 "truncated_weight"], rows)

    for gf in (pair.nondiseased, pair.diseased):
        state = "converged" if gf.fit.converged else "NOT converged"
        print(f"{gf.label}: n={gf.fit.std_residuals.size} sigma={gf.fit.sigma:.6g} "
              f"iterations={gf.fit.iterations} ({state})")
        if not gf.fit.converged:
            print(f"warning: {gf.label} fit hit the iteration cap", file=sys.stderr)
    return [coef_path, weights_path]


def _cmd_select_knots(cfg: RunConfig) -> list[str]:
    _, nd, d = _load_groups(cfg)
    p = len(cfg.covariates)
    raw = cfg.candidates
    counts = sorted({int(s) for s in str(raw).split(",") if s.strip()})
    if not counts or any(c < 0 for c in counts):
        raise UsageError(f"bad candidate list {raw!r}")
    candidates = knot_grid([counts] * p)
    out = _outdir(cfg)
    path = os.path.join(out, "raic.csv")
    rows = []
    fc = _fit_config(cfg)
    for sample in (nd, d):
        report = select_knots(sample, candidates, fc)
        best = report.best
        for i, cand in enumerate(report.candidates):
            rows.append([sample.label, "|".join(str(k) for k in cand.n_interior),
                         cand.sigma, cand.penalty, cand.raic,
                         int(i == report.selected), cand.error or ""])
        print(f"{sample.label}: selected knots "
              f"{','.join(str(k) for k in best.n_interior)} (rAIC {best.raic:.6g})")
    write_table(path, ["group", "knots", "sigma", "penalty", "raic",
                       "selected", "error"], rows)
    return [path]


def _cmd_roc(cfg: RunConfig) -> list[str]:
    _, _, _, pair = _fitted_pair(cfg)
    x = _point(cfg)
    t_grid = _t_grid(cfg)
    result = roc_curve(pair, x, t_grid, n_panels=cfg.simpson_panels)
    out = _outdir(cfg)
    path = os.path.join(out, "roc_curve.csv")
    write_table(path, ["t", "roc"], np.column_stack([result.t_grid, result.roc_values]))
    print(f"AUC at x={cfg.x}: {result.auc_closed_form:.6f} "
          f"(Simpson check {result.auc_simpson:.6f})")
    return [path]


def _cmd_auc(cfg: RunConfig, ci: bool) -> list[str]:
    _, nd, d, pair = _fitted_pair(cfg)
    grid = _x_grid(cfg, pair)
    out = _outdir(cfg)
    path = os.path.join(out, "auc.csv")
    name = cfg.covariates[0]
    if not ci:
        rows = [[x, auc_closed_form(pair, x)] for x in grid]
        write_table(path, [name, "auc"], rows)
    else:
        targets = [BootstrapTarget(x=np.atleast_1d(x)) for x in grid]
        boot = residual_bootstrap(pair, nd, d, targets,
                                  BootstrapConfig(n_replicates=cfg.replicates,
                                                  alpha=cfg.alpha, seed=cfg.seed),
                                  _fit_config(cfg))
        if boot.unreliable:
            print(f"warning: {boot.n_failed}/{boot.n_replicates} bootstrap "
                  "replicates failed; intervals unreliable", file=sys.stderr)
        rows = [[t.x[0], t.auc, t.auc_lower, t.auc_upper] for t in boot.targets]
        write_table(path, [name, "auc", "lower", "upper"], rows)
    print(f"wrote AUC over {len(grid)} grid points to {path}")
    return [path]


def _cmd_youden(cfg: RunConfig) -> list[str]:
    _, _, _, pair = _fitted_pair(cfg)
    if cfg.x:
        points = _point(cfg)[None, :]
    else:
        points = _x_grid(cfg, pair)[:, None]
    out = _outdir(cfg)
    path = os.path.join(out, "youden.csv")
    rows = []
    for xrow in points:
        yi, threshold = youden_index(pair, xrow)
        rows.append([*xrow, yi, threshold])
    write_table(path, [*cfg.covariates, "youden", "threshold"], rows)
    print(f"wrote Youden index at {len(points)} point(s) to {path}")
    return [path]


def _cmd_bootstrap(cfg: RunConfig, youden: bool) -> list[str]:
    _, nd, d, pair = _fitted_pair(cfg)
    x = _point(cfg)
    t_grid = _t_grid(cfg)
    target = BootstrapTarget(x=x, t_grid=t_grid, youden=youden)
    boot = residual_bootstrap(pair, nd, d, [target],
                              BootstrapConfig(n_replicates=cfg.replicates,
                                              alpha=cfg.alpha, seed=cfg.seed),
                              _fit_config(cfg))
    if boot.unreliable:
        print(f"warning: {boot.n_failed}/{boot.n_replicates} bootstrap replicates "
              "failed; intervals unreliable", file=sys.stderr)
    res = boot.targets[0]
    out = _outdir(cfg)
    files = []
    path = os.path.join(out, "auc_ci.csv")
    write_table(path, [*cfg.covariates, "auc", "lower", "upper"],
                [[*res.x, res.auc, res.auc_lower, res.auc_upper]])
    files.append(path)
    path = os.path.join(out, "roc_band.csv")
    write_table(path, ["t", "roc", "lower", "upper"],
                np.column_stack([t_grid, res.roc, res.roc_lower, res.roc_upper]))
    files.append(path)
    if youden:
        path = os.path.join(out, "youden_ci.csv")
        yi, threshold = res.youden
        write_table(path, [*cfg.covariates, "youden", "threshold", "lower", "upper"],
                    [[*res.x, yi, threshold, res.youden_lower, res.youden_upper]])
        files.append(path)
    print(f"AUC at x={cfg.x}: {res.auc:.6f} [{res.auc_lower:.6f}, {res.auc_upper:.6f}]")
    return files


def _cmd_uauc(cfg: RunConfig) -> list[str]:
    if cfg.replicates < 0:
        raise UsageError(f"--replicates must be >= 0 (0 disables the interval), "
                         f"got {cfg.replicates}")
    _, nd, d = _load_groups(cfg, need_covariates=False)
    out = _outdir(cfg)
    path = os.path.join(out, "uauc.csv")
    if cfg.replicates > 0:
        auc, lo, hi, boot = unconditional_auc_bootstrap(
            nd.outcomes, d.outcomes,
            BootstrapConfig(n_replicates=cfg.replicates, alpha=cfg.alpha,
                            seed=cfg.seed),
            _fit_config(cfg))
        if boot.unreliable:
            print(f"warning: {boot.n_failed}/{boot.n_replicates} bootstrap "
                  "replicates failed; interval unreliable", file=sys.stderr)
        write_table(path, ["auc", "lower", "upper"], [[auc, lo, hi]])
        print(f"unconditional AUC: {auc:.6f} [{lo:.6f}, {hi:.6f}]")
    else:
        auc, _, _ = robust_unconditional_auc(nd.outcomes, d.outcomes,
                                             _fit_config(cfg))
        write_table(path, ["auc"], [[auc]])
        print(f"unconditional AUC: {auc:.6f}")
    return [path]


def _parse_sizes(raw: str) -> tuple[int, int]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    try:
        values = [int(s) for s in items]
    except ValueError:
        raise UsageError(f"bad --sizes {raw!r}") from None
    if len(values) != 2 or min(values) < 1:
        raise UsageError("--sizes needs two positive counts: nondiseased,diseased")
    return values[0], values[1]


def _cmd_simulate(cfg: RunConfig) -> list[str]:
    if not cfg.scenario:
        raise UsageError("simulate needs --scenario (I, II, III, or IV)")
    if not cfg.sizes:
        raise UsageError("simulate needs --sizes nondiseased,diseased")
    n_nd, n_d = _parse_sizes(cfg.sizes)
    if cfg.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {cfg.reps}")
    if cfg.grid_points < 1:
        raise UsageError(f"--grid-points must be at least 1, got {cfg.grid_points}")
    kappa = None
    if cfg.kappa:
        values = parse_values(cfg.kappa)
        if values.size != 2:
            raise UsageError("--kappa needs two values: nondiseased,diseased")
        kappa = (values[0], values[1])
    if cfg.outlier_kind not in ("location", "radial"):
        raise UsageError(f"unknown outlier kind {cfg.outlier_kind!r}")
    scn = scenario(cfg.scenario, contamination=cfg.contamination,
                   kappa=kappa, outlier_kind=cfg.outlier_kind)
    knots = parse_knots(cfg.knots, scn.n_covariates)
    if any(k is None for k in knots):
        raise UsageError("simulate expects integer knot counts")
    estimators = tuple(s.strip() for s in cfg.estimators.split(",") if s.strip())
    select = None
    if cfg.select:
        select = sorted({int(s) for s in cfg.select.split(",") if s.strip()})
    n_reps = cfg.reps
    report = run_study(scn, n_nd, n_d, n_reps,
                       seed=cfg.seed, estimators=estimators, n_interior=knots,
                       select_candidates=select, config=_fit_config(cfg),
                       x_grid=scn.default_grid(cfg.grid_points))
    out = _outdir(cfg)
    files = []
    cov_names = [f"x{h + 1}" for h in range(scn.n_covariates)]
    for kind, summary in report.estimators.items():
        path = os.path.join(out, f"sim_{kind}.csv")
        rows = np.column_stack([report.x_grid, report.true_auc, summary.mean,
                                summary.lower, summary.upper, summary.n_ok])
        write_table(path, [*cov_names, "true_auc", "mean", "lower", "upper", "n_ok"],
                    rows)
        files.append(path)
        bias = np.nanmax(np.abs(summary.mean - report.true_auc))
        print(f"{kind}: max |mean - true| = {bias:.4f} over {n_reps} replicates"
              + (f", {summary.n_failed_fits} failed fits" if summary.n_failed_fits else ""))
    if report.knot_counts is not None:
        path = os.path.join(out, "knot_counts.csv")
        rows = []
        for group, counts in report.knot_counts.items():
            for vec, count in sorted(counts.items()):
                rows.append([group, "|".join(str(k) for k in vec), count])
        write_table(path, ["group", "knots", "count"], rows)
        files.append(path)
    return files


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        if args.command == "fit":
            outputs = _cmd_fit(cfg)
        elif args.command == "select-knots":
            outputs = _cmd_select_knots(cfg)
        elif args.command == "roc":
            outputs = _cmd_roc(cfg)
        elif args.command == "auc":
            outputs = _cmd_auc(cfg, args.ci)
        elif args.command == "youden":
            outputs = _cmd_youden(cfg)
        elif args.command == "bootstrap":
            outputs = _cmd_bootstrap(cfg, args.youden)
        elif args.command == "uauc":
            outputs = _cmd_uauc(cfg)
        elif args.command == "simulate":
            outputs = _cmd_simulate(cfg)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command!r}")
        manifest = os.path.join(_outdir(cfg), "manifest.json")
        write_manifest(manifest, args.command, asdict(cfg), outputs)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
