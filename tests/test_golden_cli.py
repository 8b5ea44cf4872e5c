"""Golden CLI outputs: every subcommand on fixed inputs reproduces the
recorded tables and printed summary, and accepts the recorded options.

tests/golden/ holds a seeded 160-row study CSV (data.csv, written by
write_study_data) and one directory per entry of CASES with the CSV tables,
the path-normalized manifest and the stdout (out directory shown as <out>)
that case wrote when recorded.  Table labels must match exactly and numbers
within 1e-12 relative; stdout must match byte for byte.  A deliberate
change of output is re-recorded with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import argparse
import csv
import json
import math
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from robroc.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

CASES = {
    "fit": ["fit", "--covariates", "x", "--knots", "2"],
    "fit_passthrough": ["fit", "--covariates", "x,z", "--knots", "1,cat"],
    "select_knots": ["select-knots", "--covariates", "x", "--candidates", "0,1,2"],
    "roc": ["roc", "--covariates", "x", "--knots", "1", "--x", "0.4",
            "--t-points", "51", "--simpson-panels", "50"],
    "auc": ["auc", "--covariates", "x", "--knots", "1", "--x-grid", "0.1:0.9:9"],
    "auc_ci": ["auc", "--covariates", "x", "--x-grid", "0.2:0.8:4", "--ci",
               "--replicates", "30", "--seed", "3"],
    "youden_default_grid": ["youden", "--covariates", "x"],
    "bootstrap": ["bootstrap", "--covariates", "x", "--x", "0.5", "--t-points", "21",
                  "--replicates", "30", "--seed", "7", "--youden"],
    "uauc": ["uauc", "--covariates", "x", "--replicates", "0"],
    "uauc_ci": ["uauc", "--covariates", "x", "--replicates", "40", "--seed", "1",
                "--alpha", "0.1"],
    "uauc_integer": ["uauc", "--covariates", "x", "--outcome", "score",
                     "--replicates", "40", "--seed", "2"],
    "simulate_iv": ["simulate", "--scenario", "IV", "--sizes", "60,60", "--reps", "6",
                    "--contamination", "0.05", "--select", "0,2", "--grid-points", "7",
                    "--estimators", "robust,ols_linear,ols_bspline", "--seed", "5"],
    "simulate_iii_radial": ["simulate", "--scenario", "III", "--sizes", "60,60",
                            "--reps", "6", "--contamination", "0.1",
                            "--outlier-kind", "radial", "--kappa", "5,5",
                            "--knots", "1", "--estimators", "robust,ols_linear",
                            "--seed", "9"],
}

_COMMON = {"-h", "--help", "--config", "--out"}
_FIT = {"--knots", "--tuning", "--truncation", "--max-iterations", "--tol"}
_DATA = _COMMON | _FIT | {"--data", "--outcome", "--disease", "--covariates",
                          "--skip-missing"}
_BOOT = {"--replicates", "--alpha", "--seed"}
OPTIONS = {
    "fit": _DATA,
    "select-knots": _DATA | {"--candidates"},
    "roc": _DATA | {"--x", "--t-points", "--simpson-panels"},
    "auc": _DATA | _BOOT | {"--x-grid", "--ci"},
    "youden": _DATA | {"--x", "--x-grid"},
    "bootstrap": _DATA | _BOOT | {"--x", "--t-points", "--youden"},
    "uauc": _DATA | _BOOT,
    "simulate": _COMMON | _FIT | {"--seed", "--scenario", "--sizes", "--reps",
                                  "--contamination", "--kappa", "--outlier-kind",
                                  "--select", "--grid-points", "--estimators"},
}


def write_study_data(path) -> None:
    """80 nondiseased and 80 diseased rows: scenario I means and scales
    plus a binary covariate z, four 15-sigma outliers per group, and an
    integer-valued copy of the outcome (score) with many cross-group ties."""
    rng = np.random.default_rng(20201)
    rows = []
    for disease, (a, b, s) in enumerate(((0.5, 1.0, 1.5), (2.0, 4.0, 2.0))):
        x = rng.uniform(0.0, 1.0, 80)
        z = rng.integers(0, 2, 80)
        y = a + b * x + 0.5 * z + s * rng.standard_normal(80)
        y[rng.choice(80, size=4, replace=False)] += 15.0 * s
        for xi, zi, yi in zip(x, z, y):
            rows.append([repr(float(yi)), disease, repr(float(xi)), int(zi),
                         int(round(float(yi)))])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["outcome", "disease", "x", "z", "score"])
        writer.writerows(rows)


def run_case(name: str, data: Path, out: Path) -> tuple[int, str]:
    """Exit code and stdout, with the out directory shown as <out>."""
    argv = list(CASES[name])
    if argv[0] != "simulate":
        argv += ["--data", str(data)]
    stdout = StringIO()
    with redirect_stdout(stdout):
        code = main([*argv, "--out", str(out)])
    return code, stdout.getvalue().replace(str(out), "<out>")


def normalized_manifest(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    options = manifest["options"]
    options["out"] = "<out>"
    if options.get("data"):
        options["data"] = "<data>"
    manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
    return manifest


def read_csv_cells(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def cells_match(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= REL_TOL * max(abs(g), abs(w))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    expected = GOLDEN / name
    out = tmp_path / "out"
    code, stdout = run_case(name, GOLDEN / "data.csv", out)
    assert code == 0
    assert stdout == (expected / "stdout.txt").read_text()
    manifest = normalized_manifest(out)
    assert manifest == json.loads((expected / "manifest.json").read_text())
    for table in manifest["outputs"]:
        got = read_csv_cells(out / table)
        want = read_csv_cells(expected / table)
        assert got[0] == want[0], f"{table}: header"
        assert len(got) == len(want), f"{table}: row count"
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
            assert len(g_row) == len(w_row), f"{table} row {i}: width"
            for g, w, column in zip(g_row, w_row, want[0]):
                assert cells_match(g, w), f"{table} row {i} {column}: {g} != {w}"


def test_subcommand_options():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings}
           for name, p in sub.choices.items()}
    assert got == OPTIONS


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    write_study_data(GOLDEN / "data.csv")
    for name in CASES:
        out = GOLDEN / name
        code, stdout = run_case(name, GOLDEN / "data.csv", out)
        if code != 0:
            raise SystemExit(f"case {name} failed")
        (out / "stdout.txt").write_text(stdout)
        manifest = normalized_manifest(out)
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden_cli.py --record")
    record()
