"""Command-line interface.

Subcommands: fit, select-knots, roc, auc, youden, bootstrap, uauc,
simulate.  Options resolve as flag > config file (--config or the
ROBROC_CONFIG environment variable) > built-in default.  Every run writes
CSV tables plus a manifest.json into --out.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.  A new setting is declared once,
as a RunConfig field: its flag, config key, type, default, help, flag group
and least value all come from there.  Option strings (comma-separated
lists, knot counts, start:stop:count grids) are parsed here too.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, residual_bootstrap, unconditional_auc_bootstrap
from .errors import DataError, NumericalError, UsageError
from .huber import FitConfig, _one_blas_thread
from .io import read_csv, write_manifest, write_table
from .model_select import knot_grid, select_knots
from .roc import auc_grid, evaluate, fit_pair, robust_unconditional_auc, roc_curve
from .simulate import ESTIMATORS, run_study, scenario

CONFIG_ENV_VAR = "ROBROC_CONFIG"
_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def load_config(path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _setting(default, group: str, help: str | None = None, least=None, choices=None):
    """A RunConfig field: its default (list for an empty list), the flag
    group that declares its flag, its help, the least value _check allows
    and the values the flag allows."""
    meta = {"group": group, "help": help, "least": least, "choices": choices}
    if default is list:
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _items(raw) -> list[str]:
    """The non-empty items of a comma-separated option string, stripped."""
    return [s.strip() for s in str(raw).split(",") if s.strip()]


def _typed(f, raw, source: str):
    """A flag or config-file string as field f's annotated type; source
    names it in the error.  A typed value (a store_true flag) passes."""
    if not isinstance(raw, str) or f.type.startswith("str"):
        return raw
    if f.type == "list[str]":
        return _items(raw)
    if f.type == "bool":
        value = _BOOLEANS.get(raw.strip().lower())
        if value is None:
            raise UsageError(f"{source}: expected a boolean, got {raw!r}")
        return value
    try:
        return {"int": int, "float": float}[f.type](raw)
    except ValueError:
        raise UsageError(f"{source}: expected {f.type}, got {raw!r}") from None


@dataclass
class RunConfig:
    """Resolved options for one CLI run: flag > config file > default.

    Each field is one setting, the flag --name (with - for _) and the config
    key name, typed by its annotation.  Fields are in the order that each
    subcommand's --help lists them."""

    out: str = _setting(".", "base", "output directory (default .)")
    knots: str = _setting("0", "base", "interior knots per covariate, e.g. 0 or 2,0 or cat")
    tuning: float = _setting(FitConfig.tuning, "base", "Huber tuning constant (1.345)")
    truncation: float = _setting(FitConfig.truncation, "base", "weight truncation threshold (3)")
    max_iterations: int = _setting(FitConfig.max_iterations, "base", "IRLS iteration cap (50)")
    tol: float = _setting(FitConfig.tol, "base", "IRLS convergence tolerance (1e-8)")
    data: str | None = _setting(None, "data", "CSV data file")
    outcome: str = _setting("outcome", "data", "outcome column name")
    disease: str = _setting("disease", "data", "0/1 disease column name")
    covariates: list[str] = _setting(list, "data", "comma-separated covariate columns")
    skip_missing: bool = _setting(False, "data", "drop rows with missing values instead of failing")
    seed: int = _setting(BootstrapConfig.seed, "seed", "RNG seed (default 0)", least=0)
    replicates: int = _setting(
        BootstrapConfig.n_replicates, "boot",
        "bootstrap replicates (default 1000; for uauc 0 skips the interval)", least=0)
    alpha: float = _setting(BootstrapConfig.alpha, "boot", "interval miscoverage (default 0.05)")
    x: str | None = _setting(None, "point",
                             "covariate point, one comma-separated value per covariate")
    x_grid: str | None = _setting(None, "grid", "grid as start:stop:count")
    t_points: int = _setting(201, "t", "ROC grid size on [0,1] (default 201)", least=2)
    candidates: str = _setting("0,1,2,3,4", "select-knots",
                               "knot counts to try per covariate (default 0,1,2,3,4)")
    simpson_panels: int = _setting(200, "roc", "Simpson panel count (default 200)")
    scenario: str | None = _setting(None, "simulate", "I, II, III, or IV")
    sizes: str | None = _setting(None, "simulate", "group sizes as nondiseased,diseased")
    reps: int = _setting(100, "simulate", "Monte Carlo replicates (default 100)", least=1)
    contamination: float = _setting(0.0, "simulate",
                                    "outcome fraction replaced per group (default 0)")
    kappa: str | None = _setting(None, "simulate", "outlier shift multipliers nd,d (default 15,20)")
    outlier_kind: str = _setting("location", "simulate", "outliers shift the mean (location) "
                                 "or inflate the scale (radial); default location",
                                 choices=("location", "radial"))
    select: str | None = _setting(None, "simulate",
                                  "tally rAIC choices among these counts, e.g. 0,3")
    grid_points: int = _setting(21, "simulate", "AUC grid size (default 21)", least=1)
    estimators: str = _setting("robust", "simulate", "comma list from: " + ", ".join(ESTIMATORS))

    @classmethod
    def resolve(cls, flags: dict, config: dict[str, str]) -> RunConfig:
        unknown = set(config) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        values: dict = {}
        for f in fields(cls):
            if flags.get(f.name) is not None:
                values[f.name] = _typed(f, flags[f.name], _flag(f.name))
            elif f.name in config:
                values[f.name] = _typed(f, config[f.name], f"config key {f.name}")
        return cls(**values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with - then a digit or a dot: -5:5:3 and -1e-3 are values
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _flag_groups() -> dict[str, _Parser]:
    """One parent parser per flag group, holding its RunConfig fields' flags
    in field order.  Built once, as every run builds the parser: a
    subcommand parser only reads its parents, and nothing may change them."""
    groups = defaultdict(lambda: _Parser(add_help=False))
    groups["base"].add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        group, text = groups[f.metadata["group"]], f.metadata["help"]
        if f.type == "bool":
            group.add_argument(_flag(f.name), action="store_true", default=None, help=text)
        else:
            group.add_argument(_flag(f.name), help=text, choices=f.metadata["choices"])
    return dict(groups)


def _build_parser() -> _Parser:
    parser = _Parser(prog="robroc",
                     description="Robust covariate-specific ROC analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = _flag_groups()
    for name, run, names, text in (
            ("fit", _cmd_fit, "base data", "fit both groups and report coefficients and weights"),
            ("select-knots", _cmd_select_knots, "base data select-knots",
             "rank interior knot counts per group by robust AIC"),
            ("roc", _cmd_roc, "base data point t roc", "covariate-specific ROC curve at a point"),
            ("auc", _cmd_auc, "base data seed boot grid", "covariate-specific AUC over a grid"),
            ("youden", _cmd_youden, "base data point grid",
             "Youden index and optimal threshold over a grid"),
            ("bootstrap", _cmd_bootstrap, "base data seed boot point t",
             "bootstrap bands for ROC and AUC at a point"),
            ("uauc", _cmd_uauc, "base data seed boot", "unconditional AUC with robust weights"),
            ("simulate", _cmd_simulate, "base seed simulate",
             "Monte Carlo study on a built-in scenario")):
        p = sub.add_parser(name, parents=[groups[g] for g in names.split()], help=text)
        p.set_defaults(run=run)
    sub.choices["auc"].add_argument("--ci", action="store_true", default=False,
                                    help="add bootstrap percentile intervals")
    sub.choices["bootstrap"].add_argument("--youden", action="store_true", default=False,
                                          help="also bootstrap the Youden index")
    return parser


def _resolve(args) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    return RunConfig.resolve(vars(args), load_config(path) if path else {})


def _check(cfg: RunConfig, args) -> tuple[FitConfig, BootstrapConfig | None]:
    """Reject nonsense settings before any file is read; return the FitConfig
    and, for a run that bootstraps, the BootstrapConfig."""
    for f in fields(cfg):
        value, least = getattr(cfg, f.name), f.metadata["least"]
        if least is not None and value < least:
            raise UsageError(f"{_flag(f.name)} must be at least {least}, got {value}")
    if cfg.simpson_panels < 2 or cfg.simpson_panels % 2:
        raise UsageError(f"--simpson-panels must be even and at least 2, got {cfg.simpson_panels}")
    fit_config = FitConfig(tuning=cfg.tuning, truncation=cfg.truncation,
                           max_iterations=cfg.max_iterations, tol=cfg.tol)
    bootstraps = (args.command == "bootstrap" or getattr(args, "ci", False)
                  or (args.command == "uauc" and cfg.replicates > 0))
    if not bootstraps:
        return fit_config, None
    return fit_config, BootstrapConfig(n_replicates=cfg.replicates, alpha=cfg.alpha,
                                       seed=cfg.seed)


def _ints(flag: str, raw: str, least: int) -> list[int]:
    """Parse a non-empty comma-separated list of integers, none below least."""
    try:
        values = [int(s) for s in _items(raw)]
    except ValueError:
        values = []
    if not values or min(values) < least:
        raise UsageError(f"{flag} needs comma-separated integers >= {least}, got {raw!r}")
    return values


def parse_knots(raw: str, n_covariates: int) -> list[int | None]:
    """Per-covariate interior knot counts; 'cat' marks a 0/1 passthrough
    column; a single entry broadcasts to all covariates."""
    items = _items(raw)
    if not items:
        raise UsageError("empty knots specification")
    parsed: list[int | None] = []
    for item in items:
        if item.lower() == "cat":
            parsed.append(None)
        else:
            try:
                value = int(item)
            except ValueError:
                raise UsageError(f"bad knot count {item!r}") from None
            if value < 0:
                raise UsageError(f"knot count must be >= 0, got {value}")
            parsed.append(value)
    if len(parsed) == 1 and n_covariates > 1:
        parsed = parsed * n_covariates
    if len(parsed) != n_covariates:
        raise UsageError(
            f"{len(parsed)} knot entries for {n_covariates} covariates"
        )
    return parsed


def parse_grid(raw: str) -> np.ndarray:
    """Parse 'start:stop:count' into an inclusive linspace."""
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {raw!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid must be start:stop:count, got {raw!r}") from None
    if count < 1:
        raise UsageError("grid count must be >= 1")
    return np.linspace(start, stop, count)


def parse_values(raw: str) -> np.ndarray:
    try:
        return np.asarray([float(s) for s in _items(raw)])
    except ValueError:
        raise UsageError(f"bad numeric list {raw!r}") from None


def _n_covariates(cfg: RunConfig) -> int:
    if not cfg.covariates:
        raise UsageError("no covariates; pass --covariates or set covariates=")
    # a repeated column always makes the design singular
    if len(set(cfg.covariates)) < len(cfg.covariates):
        raise UsageError(f"--covariates names a covariate twice: {','.join(cfg.covariates)}")
    return len(cfg.covariates)


def _load_groups(cfg: RunConfig):
    if not cfg.data:
        raise UsageError("no data file; pass --data or set data= in the config")
    ds = read_csv(cfg.data, cfg.outcome, cfg.disease, cfg.covariates,
                  skip_missing=cfg.skip_missing)
    return ds.nondiseased, ds.diseased


def _fitted_pair(cfg: RunConfig, fit_config: FitConfig):
    knots = parse_knots(cfg.knots, _n_covariates(cfg))
    return fit_pair(*_load_groups(cfg), knots, config=fit_config)


def _bootstrap(args, method, *data, **options):
    """Call a bootstrap with the checked BootstrapConfig, and warn on stderr
    when too many replicates failed."""
    result = method(*data, args.boot_config, **options)
    if result.unreliable:
        print(f"warning: {result.n_failed}/{result.n_replicates} bootstrap replicates "
              "failed; intervals unreliable", file=sys.stderr)
    return result


def _point(cfg: RunConfig) -> np.ndarray:
    """--x, parsed before the data file is read like every other setting."""
    if not cfg.x:
        raise UsageError("this command needs --x")
    x = parse_values(cfg.x)
    if not np.all(np.isfinite(x)):
        raise UsageError(f"--x values must be finite, got {cfg.x!r}")
    if x.size != _n_covariates(cfg):
        raise UsageError(f"--x has {x.size} values for {len(cfg.covariates)} covariates")
    return x


def _x_grid(cfg: RunConfig) -> np.ndarray | None:
    """--x-grid as a column, checked before any file is read; None for the default."""
    if _n_covariates(cfg) != 1:
        raise UsageError("grid commands support a single covariate; use the library API for more")
    if not cfg.x_grid:
        return None
    grid = parse_grid(cfg.x_grid)
    if not np.all(np.isfinite(grid)):
        raise UsageError(f"--x-grid points must be finite, got {cfg.x_grid!r}")
    return grid[:, None]


def _default_grid(cfg: RunConfig, pair) -> np.ndarray:
    # 40 points inside both groups' boundary-knot ranges, as a column
    knots = [g.design.knots[0] for g in (pair.nondiseased, pair.diseased)]
    if any(k is None for k in knots):
        raise UsageError(f"the default grid needs a splined covariate, but "
                         f"{cfg.covariates[0]} passes through; pass --x-grid")
    bounds = [k.boundary for k in knots]
    lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)
    if not lo < hi:
        raise DataError("group covariate ranges do not overlap")
    return np.linspace(lo, hi, 40)[:, None]


def _term_names(design, names) -> list[str]:
    out = ["intercept"]
    for name, k in zip(names, design.knots):
        if k is None:
            out.append(name)
        else:
            out.extend(f"{name}:bs{j + 1}" for j in range(k.n_columns))
    return out


# Each subcommand runs as run(cfg, fit_config, args, write): args carries
# the parser-only flags (--ci, --youden) and the checked boot_config, and
# write(name, header, columns) puts a table into --out and returns its path.

def _cmd_fit(cfg, fit_config, args, write) -> None:
    pair = _fitted_pair(cfg, fit_config)
    groups = (pair.nondiseased, pair.diseased)
    rows = [[gf.sample.label, term, est] for gf in groups
            for term, est in zip(_term_names(gf.design, cfg.covariates), gf.fit.beta)]
    write("coefficients.csv", ["group", "term", "estimate"], list(zip(*rows)))
    per_group = [(gf.sample.rows, gf.sample.outcomes, gf.fit.std_residuals,
                  gf.fit.huber_weights, gf.fit.truncated_weights) for gf in groups]
    write("weights.csv", ["group", "row", "outcome", "std_residual", "huber_weight",
                          "truncated_weight"],
          [[gf.sample.label for gf in groups for _ in range(gf.sample.n)],
           *map(np.concatenate, zip(*per_group))])

    for gf in groups:
        state = "converged" if gf.fit.converged else "NOT converged"
        print(f"{gf.sample.label}: n={gf.fit.std_residuals.size} sigma={gf.fit.sigma:.6g} "
              f"iterations={gf.fit.iterations} ({state})")
        if not gf.fit.converged:
            print(f"warning: {gf.sample.label} fit hit the iteration cap", file=sys.stderr)


def _cmd_select_knots(cfg, fit_config, args, write) -> None:
    counts = sorted(set(_ints("--candidates", cfg.candidates, 0)))
    candidates = knot_grid([counts] * _n_covariates(cfg))
    rows = []
    for sample in _load_groups(cfg):
        report = select_knots(sample, candidates, fit_config)
        for i, cand in enumerate(report.candidates):
            rows.append([sample.label, "|".join(str(k) for k in cand.n_interior),
                         cand.sigma, cand.penalty, cand.raic,
                         int(i == report.selected), cand.error or ""])
        print(f"{sample.label}: selected knots "
              f"{','.join(str(k) for k in report.best.n_interior)} "
              f"(rAIC {report.best.raic:.6g})")
    write("raic.csv", ["group", "knots", "sigma", "penalty", "raic", "selected",
                       "error"], list(zip(*rows)))


def _cmd_roc(cfg, fit_config, args, write) -> None:
    x = _point(cfg)
    pair = _fitted_pair(cfg, fit_config)
    result = roc_curve(pair, x, np.linspace(0.0, 1.0, cfg.t_points),
                       n_panels=cfg.simpson_panels)
    write("roc_curve.csv", ["t", "roc"], [result.t_grid, result.roc_values])
    print(f"AUC at x={cfg.x}: {result.auc_closed_form:.6f} "
          f"(Simpson check {result.auc_simpson:.6f})")


def _cmd_auc(cfg, fit_config, args, write) -> None:
    grid = _x_grid(cfg)
    pair = _fitted_pair(cfg, fit_config)
    grid = _default_grid(cfg, pair) if grid is None else grid
    name = cfg.covariates[0]
    if not args.ci:
        path = write("auc.csv", [name, "auc"], [grid[:, 0], auc_grid(pair, grid)])
    else:
        boot = _bootstrap(args, residual_bootstrap, pair, grid)
        path = write("auc.csv", [name, "auc", "lower", "upper"],
                     [grid[:, 0], boot.auc, boot.auc_lower, boot.auc_upper])
    print(f"wrote AUC over {len(grid)} grid points to {path}")


def _cmd_youden(cfg, fit_config, args, write) -> None:
    points = _point(cfg)[None, :] if cfg.x else _x_grid(cfg)
    pair = _fitted_pair(cfg, fit_config)
    points = _default_grid(cfg, pair) if points is None else points
    best = evaluate(pair, *pair.design_rows(points), youden=True)[2]
    path = write("youden.csv", [*cfg.covariates, "youden", "threshold"], [*points.T, *best.T])
    print(f"wrote Youden index at {len(points)} point(s) to {path}")


def _cmd_bootstrap(cfg, fit_config, args, write) -> None:
    x = _point(cfg)
    pair = _fitted_pair(cfg, fit_config)
    t_grid = np.linspace(0.0, 1.0, cfg.t_points)
    res = _bootstrap(args, residual_bootstrap, pair, x[None, :], t_grid=t_grid,
                     youden=args.youden)
    write("auc_ci.csv", [*cfg.covariates, "auc", "lower", "upper"],
          [*res.x.T, res.auc, res.auc_lower, res.auc_upper])
    write("roc_band.csv", ["t", "roc", "lower", "upper"],
          [t_grid, res.roc[0], res.roc_lower[0], res.roc_upper[0]])
    if args.youden:
        write("youden_ci.csv", [*cfg.covariates, "youden", "threshold", "lower", "upper"],
              [*res.x.T, res.youden, res.threshold, res.youden_lower, res.youden_upper])
    print(f"AUC at x={cfg.x}: {res.auc[0]:.6f} [{res.auc_lower[0]:.6f}, {res.auc_upper[0]:.6f}]")


def _cmd_uauc(cfg, fit_config, args, write) -> None:
    nd, d = _load_groups(cfg)
    auc, pair = robust_unconditional_auc(nd.outcomes, d.outcomes, fit_config)
    if cfg.replicates > 0:
        res = _bootstrap(args, unconditional_auc_bootstrap, pair)
        lo, hi = res.auc_lower[0], res.auc_upper[0]
        write("uauc.csv", ["auc", "lower", "upper"], [[auc], [lo], [hi]])
        print(f"unconditional AUC: {auc:.6f} [{lo:.6f}, {hi:.6f}]")
    else:
        write("uauc.csv", ["auc"], [[auc]])
        print(f"unconditional AUC: {auc:.6f}")


def _cmd_simulate(cfg, fit_config, args, write) -> None:
    sizes = _ints("--sizes", cfg.sizes, 1)
    if len(sizes) != 2:
        raise UsageError("--sizes needs two positive counts: nondiseased,diseased")
    kappa = None
    if cfg.kappa:
        values = parse_values(cfg.kappa)
        if values.size != 2:
            raise UsageError("--kappa needs two values: nondiseased,diseased")
        kappa = (values[0], values[1])
    scn = scenario(cfg.scenario, contamination=cfg.contamination,
                   kappa=kappa, outlier_kind=cfg.outlier_kind)
    knots = parse_knots(cfg.knots, scn.n_covariates)
    if any(k is None for k in knots):
        raise UsageError("simulate expects integer knot counts")
    estimators = tuple(_items(cfg.estimators))
    if not estimators:
        raise UsageError(f"--estimators needs one or more of: {', '.join(ESTIMATORS)}")
    select = sorted(set(_ints("--select", cfg.select, 0))) if cfg.select else None
    report = run_study(scn, *sizes, cfg.reps,
                       seed=cfg.seed, estimators=estimators, n_interior=knots,
                       select_candidates=select, config=fit_config,
                       x_grid=scn.default_grid(cfg.grid_points))
    cov_names = [f"x{h + 1}" for h in range(scn.n_covariates)]
    for kind, summary in report.estimators.items():
        # n_ok is written as a float, as column_stack makes it
        columns = np.column_stack([report.x_grid, report.true_auc, summary.mean,
                                   summary.lower, summary.upper, summary.n_ok]).T
        write(f"sim_{kind}.csv",
              [*cov_names, "true_auc", "mean", "lower", "upper", "n_ok"], columns)
        # np.nanmax's own reduction, without its warning when every
        # replicate failed and the bias is NaN
        bias = np.fmax.reduce(np.abs(summary.mean - report.true_auc))
        print(f"{kind}: max |mean - true| = {bias:.4f} over {cfg.reps} replicates"
              + (f", {summary.n_failed_fits} failed fits" if summary.n_failed_fits else ""))
    if report.knot_counts is not None:
        rows = [[group, "|".join(str(k) for k in vec), count]
                for group, counts in report.knot_counts.items()
                for vec, count in sorted(counts.items())]
        write("knot_counts.csv", ["group", "knots", "count"], list(zip(*rows)))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args)
        fit_config, args.boot_config = _check(cfg, args)
        outputs: list[str] = []

        def path(name: str) -> str:
            os.makedirs(cfg.out, exist_ok=True)
            return os.path.join(cfg.out, name)

        def write(name: str, header, columns) -> str:
            outputs.append(path(name))
            write_table(outputs[-1], header, columns)
            return outputs[-1]

        # one BLAS thread a pool: the count is process-wide, and the CLI
        # owns its process
        with _one_blas_thread():
            args.run(cfg, fit_config, args, write)
        write_manifest(path("manifest.json"), args.command, asdict(cfg), outputs)
        return 0
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, MemoryError) as exc:
        # any allocation that fails: numpy refuses a count too large to hold
        # before allocating, but memory can also run out partway, after
        # some tables are written and before the manifest
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
