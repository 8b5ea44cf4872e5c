"""The four benchmark workloads: their seeded inputs, the CLI calls that make
one operation, and the checks every operation's outputs must pass.

Only the standard library is imported here, so that importing this module
does not pre-load numpy or scipy before the benchmark times
`import robroc.cli`.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
# Reference outputs of the default seed must agree within
# REF_RTOL * max(1, |reference|).  A reordered but equivalent computation
# (batched IRLS agrees to about 5e-15; a refit that stops one IRLS step
# earlier or later moves coefficients by ~1e-9) passes; anything near the
# paper's 1e-3 checks fails.
REF_RTOL = 1e-7

# Input data sets: (scenario, contamination, n_nondiseased, n_diseased) per size.
DATASETS = {
    "full": {"small": ("I", 0.05, 200, 100), "large": ("I", 0.05, 20000, 10000)},
    "tiny": {"small": ("I", 0.05, 80, 50), "large": ("I", 0.05, 800, 400)},
}
# Replicates per operation: bootstrap replicates for boot_*, Monte Carlo
# replicates for study.  Operations are kept short (well under a second on
# a quiet 2-core host) so that a run holds dozens of them and their median
# is steady.
REPLICATES = {
    "full": {"boot_point": 100, "boot_grid": 50, "study": 25},
    "tiny": {"boot_point": 20, "boot_grid": 10, "study": 5},
}
# A run cycles through this many variants, one per operation.  A variant has
# its own seed, variant_seed(seed, v), for the input data set and the CLI.
# The bootstrap workloads use four data sets, so that one run's median
# averages over the data-dependent cost (IRLS iterations) of several; their
# speeds differed by up to 10% between seeds.  study checks the bias on the
# pool of the latest output of each of its 8 variants: 8 x 25 = 200
# replicates.  200, not 100: at 100 the robust maximum bias over 21 grid
# points reached 0.0285 on seeds 0-79 (Monte Carlo noise against the 0.03
# bound); 200 halves the noise variance.
VARIANTS = {
    "full": {"boot_point": 4, "boot_grid": 4, "study": 8, "large_n": 1},
    "tiny": {"boot_point": 2, "boot_grid": 2, "study": 2, "large_n": 1},
}
# The A2 contrast needs about 100 pooled replicates to hold.
A2_MIN_REPLICATES = 100
STUDY_SIZES = {"full": "200,100", "tiny": "100,60"}
# Default-grid sizes of the CLI, fixed here so a changed default shows as a
# failed check rather than as a speed-up.
AUC_GRID_POINTS = 40
ROC_POINTS = 201
STUDY_GRID_POINTS = 21
LARGE_N_CANDIDATES = (0, 1, 2, 3, 4)
# Scenario I lines (intercept, slope) and scales, to check the large-n fit.
TRUE_MEANS = {"nondiseased": (0.5, 1.0, 1.5), "diseased": (2.0, 4.0, 2.0)}
MEAN_CHECK_POINTS = [k / 10 for k in range(1, 10)]
CSV_COMMON = ["--outcome", "y", "--disease", "d", "--covariates", "x1"]


class CheckFailed(Exception):
    """An operation's outputs broke a stated property."""


@dataclass
class Context:
    """Everything an operation needs: inputs, output directory and sizes."""

    seed: int
    size: str
    inputs: dict[str, Path]
    out: Path
    variant: int = 0
    notes: dict = field(default_factory=dict)
    # per-variant summaries that a check pools across operations
    pool: dict = field(default_factory=dict)


def variant_seed(seed: int, variant: int) -> int:
    """Seed of a run's variant: distinct across runs and variants, and equal
    to the run's seed for variant 0."""
    return 100 * seed + variant


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_columns(path: Path) -> dict[str, list[str]]:
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    _require(len(rows) >= 1, f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    for row in body:
        _require(len(row) == len(header), f"{path.name}: ragged row {row}")
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def iter_rows(path: Path):
    """Rows of a large CSV as dicts, without holding the file in memory."""
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as handle:
        yield from csv.DictReader(handle)


def floats(table: dict[str, list[str]], name: str, path: str) -> list[float]:
    _require(name in table, f"{path}: no column {name!r}")
    try:
        values = [float(v) for v in table[name]]
    except ValueError as exc:
        raise CheckFailed(f"{path}: column {name!r}: {exc}") from None
    _require(all(math.isfinite(v) for v in values), f"{path}: non-finite {name}")
    return values


def _check_interval(table, path, names=("auc", "lower", "upper")) -> None:
    point, lower, upper = (floats(table, n, path) for n in names)
    for col, values in zip(names, (point, lower, upper)):
        _require(all(0.0 <= v <= 1.0 for v in values), f"{path}: {col} outside [0, 1]")
    _require(all(lo <= hi for lo, hi in zip(lower, upper)), f"{path}: lower > upper")


def _check_rows(table, path, expected: int) -> None:
    n = len(next(iter(table.values()), []))
    _require(n == expected, f"{path}: {n} rows, expected {expected}")


def _check_manifest(out: Path) -> None:
    path = out / "manifest.json"
    _require(path.is_file(), "missing manifest.json")
    with open(path) as handle:
        payload = json.load(handle)
    for name in payload.get("outputs", []):
        _require(Path(name).is_file(), f"manifest lists missing output {name}")


class Workload:
    name: str
    data: str | None = None
    # Layers the traced run must see at least one call into.
    layers: tuple[str, ...]

    def units(self, size: str) -> int:
        """Work per operation, the numerator of units_per_s."""
        return REPLICATES[size][self.name]

    def variants(self, size: str) -> int:
        """Distinct operations the run cycles through (ctx.variant)."""
        return VARIANTS[size][self.name]

    def operation(self, ctx: Context, call) -> None:
        """Run the CLI call(s) of one operation through call(argv)."""
        raise NotImplementedError

    def check(self, ctx: Context) -> dict:
        """Check the outputs; return the values compared to the reference."""
        raise NotImplementedError


class BootPoint(Workload):
    name = "boot_point"
    data = "small"
    layers = ("cli", "io", "splines", "huber", "wecdf", "roc", "bootstrap")

    def operation(self, ctx, call):
        call(["bootstrap", "--data", str(ctx.inputs["small"]), *CSV_COMMON,
              "--knots", "0", "--x", "0.5", "--youden",
              "--replicates", str(self.units(ctx.size)),
              "--seed", str(variant_seed(ctx.seed, ctx.variant)),
              "--out", str(ctx.out)])

    def check(self, ctx):
        _check_manifest(ctx.out)
        auc = read_columns(ctx.out / "auc_ci.csv")
        _check_rows(auc, "auc_ci.csv", 1)
        _check_interval(auc, "auc_ci.csv")
        _require(floats(auc, "x1", "auc_ci.csv") == [0.5], "auc_ci.csv: wrong x1")
        band = read_columns(ctx.out / "roc_band.csv")
        _check_rows(band, "roc_band.csv", ROC_POINTS)
        _check_interval(band, "roc_band.csv", ("roc", "lower", "upper"))
        t = floats(band, "t", "roc_band.csv")
        _require(t[0] == 0.0 and t[-1] == 1.0 and all(a < b for a, b in zip(t, t[1:])),
                 "roc_band.csv: t is not an increasing grid on [0, 1]")
        roc = floats(band, "roc", "roc_band.csv")
        _require(all(a <= b for a, b in zip(roc, roc[1:])),
                 "roc_band.csv: ROC curve decreases")
        youden = read_columns(ctx.out / "youden_ci.csv")
        _check_rows(youden, "youden_ci.csv", 1)
        _check_interval(youden, "youden_ci.csv", ("youden", "lower", "upper"))
        floats(youden, "threshold", "youden_ci.csv")
        return {"auc_ci.csv": auc, "roc_band.csv": band, "youden_ci.csv": youden}


class BootGrid(Workload):
    name = "boot_grid"
    data = "small"
    layers = ("cli", "io", "splines", "huber", "wecdf", "roc", "bootstrap")

    def operation(self, ctx, call):
        call(["auc", "--data", str(ctx.inputs["small"]), *CSV_COMMON,
              "--knots", "0", "--ci", "--replicates", str(self.units(ctx.size)),
              "--seed", str(variant_seed(ctx.seed, ctx.variant)), "--out", str(ctx.out)])

    def check(self, ctx):
        _check_manifest(ctx.out)
        auc = read_columns(ctx.out / "auc.csv")
        _check_rows(auc, "auc.csv", AUC_GRID_POINTS)
        _check_interval(auc, "auc.csv")
        x = floats(auc, "x1", "auc.csv")
        _require(all(a < b for a, b in zip(x, x[1:])) and 0.0 <= x[0] and x[-1] <= 1.0,
                 "auc.csv: grid is not increasing inside [0, 1]")
        return {"auc.csv": auc}


class Study(Workload):
    name = "study"
    layers = ("cli", "io", "splines", "huber", "wecdf", "roc", "model_select",
              "simulate")

    def operation(self, ctx, call):
        call(["simulate", "--scenario", "IV", "--sizes", STUDY_SIZES[ctx.size],
              "--contamination", "0.05", "--estimators", "robust,ols_linear",
              "--select", "0,3", "--reps", str(self.units(ctx.size)),
              "--seed", str(variant_seed(ctx.seed, ctx.variant)), "--out", str(ctx.out)])

    def check(self, ctx):
        _check_manifest(ctx.out)
        reps = self.units(ctx.size)
        tables, summary = {}, {}
        for kind in ("robust", "ols_linear"):
            path = f"sim_{kind}.csv"
            table = read_columns(ctx.out / path)
            _check_rows(table, path, STUDY_GRID_POINTS)
            _check_interval(table, path, ("mean", "lower", "upper"))
            truth = floats(table, "true_auc", path)
            _require(all(0.0 <= v <= 1.0 for v in truth), f"{path}: true_auc outside [0, 1]")
            n_ok = floats(table, "n_ok", path)
            _require(all(0 < v <= reps for v in n_ok), f"{path}: n_ok outside (0, {reps}]")
            summary[kind] = (truth, floats(table, "mean", path), n_ok)
            tables[path] = table
        counts = read_columns(ctx.out / "knot_counts.csv")
        _require(set(counts.get("knots", [])) <= {"0|0", "3|3"},
                 "knot_counts.csv: knot vector outside the candidates")
        for group in ("nondiseased", "diseased"):
            total = sum(int(c) for g, c in zip(counts["group"], counts["count"])
                        if g == group)
            _require(total == reps, f"knot_counts.csv: {group} tallies {total} of {reps}")
        tables["knot_counts.csv"] = counts
        ctx.pool[ctx.variant] = summary
        if len(ctx.pool) == self.variants(ctx.size):
            self._check_pooled_bias(ctx)
        return tables

    def _check_pooled_bias(self, ctx):
        """Maximum bias of the n_ok-weighted mean over every variant's
        latest output: the same estimate as one study of all their replicates."""
        bias = {}
        for kind in ("robust", "ols_linear"):
            parts = [ctx.pool[v][kind] for v in sorted(ctx.pool)]
            truth = parts[0][0]
            _require(all(p[0] == truth for p in parts), "true_auc differs between seeds")
            pooled = [sum(p[1][i] * p[2][i] for p in parts) / sum(p[2][i] for p in parts)
                      for i in range(len(truth))]
            bias[kind] = max(abs(m - t) for m, t in zip(pooled, truth))
        ctx.notes["max_bias"] = bias
        if self.units(ctx.size) * len(ctx.pool) >= A2_MIN_REPLICATES:
            _require(bias["robust"] < 0.03,
                     f"robust max bias {bias['robust']:.4f} not < 0.03")
            _require(bias["ols_linear"] > 0.08,
                     f"ols_linear max bias {bias['ols_linear']:.4f} not > 0.08")
        else:
            _require(bias["robust"] < bias["ols_linear"],
                     "robust max bias not below ols_linear's")


def bspline_mean(x: float, coefficients: list[float], column: list[float],
                 n_interior: int) -> float:
    """The design's fitted mean at x, recomputed here by the Cox-de Boor
    recursion: intercept plus the clamped cubic basis without its first
    function, interior knots at linearly interpolated quantiles of column."""
    values = sorted(column)
    interior = []
    for k in range(1, n_interior + 1):
        pos = k / (n_interior + 1) * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        interior.append(values[lo] + (pos - lo) * (values[hi] - values[lo]))
    t = [values[0]] * 4 + interior + [values[-1]] * 4
    basis = [1.0 if t[j] <= x < t[j + 1] else 0.0 for j in range(len(t) - 1)]
    for d in range(1, 4):
        basis = [((x - t[j]) / (t[j + d] - t[j]) * basis[j] if t[j + d] > t[j] else 0.0)
                 + ((t[j + d + 1] - x) / (t[j + d + 1] - t[j + 1]) * basis[j + 1]
                    if t[j + d + 1] > t[j + 1] else 0.0)
                 for j in range(len(t) - d - 1)]
    return coefficients[0] + sum(c * b for c, b in zip(coefficients[1:], basis[1:]))


class LargeN(Workload):
    name = "large_n"
    data = "large"
    layers = ("cli", "io", "splines", "huber", "wecdf", "roc", "model_select")

    def units(self, size):
        _, _, n_nd, n_d = DATASETS[size]["large"]
        return n_nd + n_d

    def operation(self, ctx, call):
        data = ["--data", str(ctx.inputs["large"]), *CSV_COMMON]
        call(["select-knots", *data, "--out", str(ctx.out)])
        # the CLI fits both groups at one knot count: take the larger choice
        raic = read_columns(ctx.out / "raic.csv")
        chosen = [int(k) for k, s in zip(raic["knots"], raic["selected"]) if s == "1"]
        _require(len(chosen) == 2, f"raic.csv selects {len(chosen)} rows, expected 2")
        ctx.notes["knots"] = max(chosen)
        call(["fit", *data, "--knots", str(max(chosen)), "--out", str(ctx.out)])

    def check(self, ctx):
        _check_manifest(ctx.out)
        raic = read_columns(ctx.out / "raic.csv")
        _check_rows(raic, "raic.csv", 2 * len(LARGE_N_CANDIDATES))
        _require(all(e == "" for e in raic["error"]), "raic.csv: a candidate fit failed")
        scores = floats(raic, "raic", "raic.csv")
        for group in ("nondiseased", "diseased"):
            rows = [(s, int(k), sel) for g, k, s, sel
                    in zip(raic["group"], raic["knots"], scores, raic["selected"])
                    if g == group]
            _require(sorted(k for _, k, _ in rows) == list(LARGE_N_CANDIDATES),
                     f"raic.csv: {group} candidates differ from 0..4")
            best = min(rows)
            _require([sel for _, _, sel in rows].count("1") == 1 and best[2] == "1",
                     f"raic.csv: {group} selection is not the rAIC minimum")
        knots = ctx.notes["knots"]
        coef = read_columns(ctx.out / "coefficients.csv")
        estimates = floats(coef, "estimate", "coefficients.csv")
        columns = ([], [])
        for row in iter_rows(ctx.inputs["large"]):
            columns[int(row["d"])].append(float(row["x1"]))
        for column, (group, (a, b, sd)) in zip(columns, TRUE_MEANS.items()):
            got = [e for g, e in zip(coef["group"], estimates) if g == group]
            _require(len(got) == knots + 4,
                     f"coefficients.csv: {group} has {len(got)} terms, expected {knots + 4}")
            # 0.15 sd for the bias that 5% one-sided outliers leave in a Huber
            # fit (0.06-0.12 sd over seeds 0-139), plus six standard errors
            # of a (knots + 4)-parameter mean; the worst of the nine points
            # stayed within 2.7 of them over those seeds
            tolerance = sd * (0.15 + 6.0 * math.sqrt((knots + 4) / len(column)))
            worst = max(abs(bspline_mean(x, got, column, knots) - (a + b * x))
                        for x in MEAN_CHECK_POINTS)
            _require(worst <= tolerance, f"coefficients.csv: {group} fitted mean is "
                     f"{worst:.3f} off the true line (tolerance {tolerance:.3f})")
        # streamed and summarised, so that checking adds little to peak_rss_mib
        sums = dict.fromkeys(("outcome", "std_residual", "huber_weight",
                              "truncated_weight"), 0.0)
        rows = down = 0
        for row in iter_rows(ctx.out / "weights.csv"):
            values = {name: float(row[name]) for name in sums}
            _require(all(math.isfinite(v) for v in values.values()),
                     "weights.csv: non-finite value")
            _require(0.0 < values["huber_weight"] <= values["truncated_weight"] <= 1.0,
                     "weights.csv: weights outside 0 < huber <= truncated <= 1")
            for name, value in values.items():
                sums[name] += value
            rows += 1
            down += values["truncated_weight"] < 1.0
        n = self.units(ctx.size)
        _require(rows == n, f"weights.csv: {rows} rows, expected {n}")
        _require(0.04 <= down / n <= 0.2, f"weights.csv: {down / n:.3f} of rows "
                 "downweighted, expected the ~5% outliers")
        summary = {name: [value] for name, value in sums.items()}
        summary["downweighted"] = [down / n]
        return {"raic.csv": raic, "coefficients.csv": coef, "weights.csv": summary}


WORKLOADS = {w.name: w for w in (BootPoint(), BootGrid(), Study(), LargeN())}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def compare_reference(workload: str, variant: int, values: dict) -> None:
    """Compare checked outputs with the stored default-seed reference."""
    path = reference_path(workload)
    _require(path.is_file(), f"no reference outputs {path.name}")
    with open(path) as handle:
        reference = json.load(handle).get(str(variant))
    _require(reference is not None, f"{path.name} has no variant {variant}")
    _require(sorted(reference) == sorted(values),
             f"reference covers {sorted(reference)}, outputs are {sorted(values)}")
    for fname, columns in reference.items():
        got_columns = values[fname]
        _require(sorted(columns) == sorted(got_columns),
                 f"{fname}: columns differ from the reference")
        for col, want in columns.items():
            got = got_columns[col]
            _require(len(got) == len(want), f"{fname}:{col}: length differs from reference")
            for i, (g, w) in enumerate(zip(got, want)):
                if isinstance(w, str):
                    _require(str(g) == w, f"{fname}:{col}[{i}] = {g!r}, reference {w!r}")
                else:
                    g = float(g)
                    _require(abs(g - w) <= REF_RTOL * max(1.0, abs(w)),
                             f"{fname}:{col}[{i}] = {g!r}, reference {w!r}")


def reference_values(values: dict) -> dict:
    """Checked outputs in the stored form: numbers as floats, labels as strings."""
    out = {}
    for fname, columns in values.items():
        out[fname] = {}
        for col, cells in columns.items():
            try:
                out[fname][col] = [float(c) for c in cells]
            except ValueError:
                out[fname][col] = [str(c) for c in cells]
    return out


def write_reference(workload: str, values: dict[int, dict]) -> Path:
    """Store each variant's checked outputs as the reference."""
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    stored = {str(v): reference_values(vals) for v, vals in values.items()}
    with open(tmp, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path
