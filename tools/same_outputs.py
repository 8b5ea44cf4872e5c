"""Byte-for-byte comparison of the CLI's outputs at a base revision and in
the working tree, for a change that must leave every output bit unchanged.

Exports a base revision (the parent) with tools/ab_bench.py's export into a
temporary directory, writes the input CSVs once, runs every case on both
sides as `python -m robroc` with PYTHONPATH at that side's src/, and
reports each exit code, stdout, stderr or output file (CSV tables and
manifest.json) that differs byte for byte.  Each side's output directory
is shown as <out> in stdout, stderr and manifest.json before the
comparison, so manifest paths do not count; the inputs are shared, so
their paths match.

The cases are every CASES entry of tests/test_golden_cli.py on
tests/golden/data.csv (CASES is read with ast, not imported), the runs
of EXTRA_CASES below on the benchmark's seed-0 inputs, written by
bench/inputs.py: bootstraps and studies whose replicates cross the refit
chunks, capped iterations, and the large-n knot selection and fit, and
the failing runs of FAILING_CASES: usage errors, and data errors on small
CSVs that this tool writes (SMALL_FILES), whose messages and exit codes
must match too.

    python3 tools/same_outputs.py --base HEAD [--cases fit,boot_knots2]

Exits 0 when every case matches and 1 otherwise.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import csv
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, export

GOLDEN = ROOT / "tests" / "golden"
# bench/inputs.py arguments (scenario, contamination, sizes) of the
# benchmark's inputs, generated at seed 0
INPUTS = {"small": ("I", "0.05", "200", "100"), "large": ("I", "0.05", "20000", "10000")}
COLUMNS = ["--outcome", "y", "--disease", "d", "--covariates", "x1"]
# At n = 200 a refit chunk holds 51 replicates, and a study chunk 51 draws.
EXTRA_CASES = {
    "boot_point": ("small", ["bootstrap", "--knots", "0", "--x", "0.5", "--youden",
                             "--replicates", "100"]),
    "boot_knots2": ("small", ["bootstrap", "--knots", "2", "--x", "0.3", "--youden",
                              "--t-points", "21", "--replicates", "120", "--seed", "3"]),
    "boot_capped": ("small", ["bootstrap", "--knots", "1", "--x", "0.7", "--replicates", "60",
                              "--max-iterations", "3", "--seed", "4"]),
    "boot_grid": ("small", ["auc", "--knots", "0", "--ci", "--replicates", "60", "--seed", "1"]),
    "boot_grid_knots2": ("small", ["auc", "--knots", "2", "--ci", "--replicates", "55",
                                   "--seed", "2"]),
    "uauc": ("small", ["uauc", "--knots", "1", "--replicates", "120", "--seed", "5"]),
    "golden_boot_knots2": ("golden", ["bootstrap", "--covariates", "x", "--knots", "2",
                                      "--x", "0.5", "--youden", "--replicates", "200",
                                      "--seed", "8"]),
    "study_iv": (None, ["simulate", "--scenario", "IV", "--sizes", "200,100",
                        "--contamination", "0.05", "--estimators",
                        "robust,ols_linear,ols_bspline", "--select", "0,3", "--reps", "60",
                        "--seed", "6"]),
    "study_i_knots2": (None, ["simulate", "--scenario", "I", "--sizes", "200,200",
                              "--contamination", "0.1", "--knots", "2", "--reps", "110",
                              "--seed", "7"]),
    "large_select": ("large", ["select-knots", "--candidates", "0,1,2,3,4"]),
    "large_fit": ("large", ["fit", "--knots", "4"]),
}


def clean_rows() -> list[list[str]]:
    """30 nondiseased then 30 diseased rows of outcome, disease and age."""
    rng = random.Random(0)
    return [[repr(rng.gauss(2.0 * d, 1.0)), str(d), repr(rng.random())]
            for d in (0, 1) for _ in range(30)]


def with_cells(*changes):
    """The clean rows with each (row, column, cell) change made."""
    rows = clean_rows()
    for i, j, cell in changes:
        rows[i][j] = cell
    return rows


# Small data files, by name: their rows under the header outcome,disease,age
SMALL_FILES = {
    "clean": clean_rows,
    "one_class": lambda: [[y, "1", x] for y, _, x in clean_rows()],
    "na_cell": lambda: with_cells((3, 0, "NA")),
    "bad_cell": lambda: with_cells((4, 2, "old")),
    "code_2": lambda: with_cells((35, 1, "2")),
    "inf_outcome": lambda: with_cells((40, 0, "inf")),
    "nan_covariate": lambda: with_cells((6, 2, "-nan")),
    "empty": lambda: [],
    "missing_cells": lambda: with_cells((2, 0, "NA"), (31, 2, ""), (50, 0, "null")),
}
# Runs that fail, and one that skips rows, by name: (input kind, argv); an
# input kind "small:<name>" is the SMALL_FILES entry, "small:absent" a path
# where no file is
FAILING_CASES = {
    "usage_bad_x": ("small:clean", ["roc", "--covariates", "age", "--x", "abc"]),
    "usage_empty_knots": ("small:clean", ["fit", "--covariates", "age", "--knots", ","]),
    "usage_grid_count": ("small:clean", ["auc", "--covariates", "age", "--x-grid", "0:1:0"]),
    "usage_sizes": (None, ["simulate", "--scenario", "I", "--sizes", "5"]),
    "usage_kappa": (None, ["simulate", "--scenario", "I", "--sizes", "20,20", "--kappa", "5"]),
    "data_missing_column": ("small:clean", ["fit", "--covariates", "weight"]),
    **{f"data_{name}": (f"small:{name}", ["fit", "--covariates", "age"])
       for name in ("one_class", "na_cell", "bad_cell", "code_2", "inf_outcome",
                    "nan_covariate", "empty", "absent")},
    "skip_missing": ("small:missing_cells", ["fit", "--covariates", "age", "--skip-missing"]),
}


def golden_cases() -> dict[str, tuple[str | None, list[str]]]:
    """tests/test_golden_cli.py's CASES, each on the golden data unless it
    simulates."""
    tree = ast.parse((ROOT / "tests" / "test_golden_cli.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "CASES" for t in n.targets))
    return {name: (None if argv[0] == "simulate" else "golden", argv)
            for name, argv in ast.literal_eval(node.value).items()}


def write_inputs(kinds: set[str], dest: Path) -> dict[str, list[str]]:
    """The --data arguments of each input kind, the CSVs written under dest
    with the working tree's bench/inputs.py."""
    args = {"golden": ["--data", str(GOLDEN / "data.csv")]}
    for kind in sorted(kinds & INPUTS.keys()):
        path = dest / f"{kind}.csv"
        subprocess.run([sys.executable, str(ROOT / "bench" / "inputs.py"), *INPUTS[kind],
                        f"0={path}"], check=True, cwd=ROOT)
        args[kind] = ["--data", str(path), *COLUMNS]
    for kind in sorted(k for k in kinds if k.startswith("small:")):
        name = kind.partition(":")[2]
        path = dest / f"small_{name}.csv"
        if name in SMALL_FILES:
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerows([["outcome", "disease", "age"], *SMALL_FILES[name]()])
        args[kind] = ["--data", str(path)]
    return args


def run_case(src: Path, argv: list[str], out: Path) -> dict[str, bytes]:
    """The exit code, stdout, stderr and each output file of one CLI run,
    with the out directory shown as <out> in stdout, stderr and the
    manifest."""
    proc = subprocess.run([sys.executable, "-m", "robroc", *argv, "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          timeout=900)
    marker = str(out).encode()
    outputs = {"exit code": str(proc.returncode).encode(),
               "stdout": proc.stdout.replace(marker, b"<out>"),
               "stderr": proc.stderr.replace(marker, b"<out>")}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        outputs[path.name] = data.replace(marker, b"<out>") if path.suffix == ".json" else data
    return outputs


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One line per output present on one side only or differing, with its
    first differing line."""
    found = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            found.append(f"{name}: only in the {'change' if name in change else 'parent'}")
        elif parent[name] != change[name]:
            a, b = parent[name].splitlines(), change[name].splitlines()
            line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            found.append(f"{name}: differs from line {line + 1}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--cases", help="comma-separated case names (default all)")
    args = parser.parse_args(argv)
    cases = {**golden_cases(), **EXTRA_CASES, **FAILING_CASES}
    if args.cases:
        unknown = set(args.cases.split(",")) - cases.keys()
        if unknown:
            parser.error(f"unknown cases {sorted(unknown)}; choose from {sorted(cases)}")
        cases = {name: cases[name] for name in args.cases.split(",")}

    work = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        sha = export(args.base, work / "parent")
        print(f"parent {sha}; change is the working tree {ROOT}")
        data = write_inputs({kind for kind, _ in cases.values() if kind}, work)
        sides = {"parent": work / "parent" / "src", "change": ROOT / "src"}
        differing = 0
        for name, (kind, case) in cases.items():
            argv = [*case, *data.get(kind, [])]
            got = {side: run_case(src, argv, work / side / "out" / name)
                   for side, src in sides.items()}
            found = differences(got["parent"], got["change"])
            differing += bool(found)
            outputs = ", ".join(k for k in got["change"] if k != "exit code")
            print(f"{name}: {'DIFFERS' if found else 'same'} (exit "
                  f"{got['change']['exit code'].decode()}; {outputs})", flush=True)
            for line in found:
                print(f"  {line}")
        print(f"{len(cases) - differing} of {len(cases)} cases byte-identical")
        return 1 if differing else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
