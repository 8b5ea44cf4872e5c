"""Fuzzed CLI contract: on small, awkward data sets and settings every
subcommand ends with one of the documented exit codes (0 through 3), never
with a traceback, and a run that succeeds writes every file its manifest
lists.

The data sets mix tied outcomes and covariates, constant covariates,
one-row groups, magnitudes from 1e-8 to 1e8, and outcomes of 1e150, 1e200
and 1e300, whose sums of squares overflow; at those outcomes
test_huge_outcomes_fit_and_select also draws clean data sets, which
select-knots, fit and auc must fit.  test_every_subcommand
draws each argv from the subcommand's recorded option set (OPTIONS in
test_golden_cli.py), with values valid and invalid, on CSVs that also hold
NaN and inf cells, missing tokens, disease codes other than 0/1, empty
groups and binary or negative covariates.
"""

import csv
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robroc.cli import main
from test_golden_cli import OPTIONS


# outcome magnitudes from 1e-8 to 1e8, and 1e150 to 1e300: y @ y overflows past 1e153
Y_EXPONENTS = st.sampled_from([*range(-8, 9), 150, 200, 300])


@st.composite
def data_sets(draw):
    """CSV text with an outcome, the disease code, x and a binary z, and
    the point to bootstrap at."""
    sizes = [draw(st.sampled_from([25, 12, 6, 2, 1])) for _ in range(2)]
    x_scale = 10.0 ** draw(st.integers(-8, 8))
    y_scale = 10.0 ** draw(Y_EXPONENTS)
    x_kind = draw(st.sampled_from(["spread"] * 3 + ["tied", "constant"]))
    tied_y = draw(st.booleans())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["outcome", "disease", "x", "z"])
    xs = []
    for code, n in enumerate(sizes):
        for _ in range(n):
            if x_kind == "constant":
                x = 1.0
            elif x_kind == "tied":
                x = float(draw(st.integers(0, 2)))
            else:
                x = draw(st.floats(0.0, 1.0, allow_nan=False))
            y = (float(draw(st.integers(-3, 3))) if tied_y
                 else draw(st.floats(-3.0, 3.0, allow_nan=False)))
            xs.append(x * x_scale)
            writer.writerow([repr(y * y_scale), code, repr(xs[-1]), draw(st.integers(0, 1))])
    # a point inside the data, or one beyond it that the fit must refuse
    return buffer.getvalue(), draw(st.sampled_from([sorted(xs)[len(xs) // 2],
                                                    2.0 * max(xs) + 1.0]))


ARGV = st.sampled_from([
    ["bootstrap", "--covariates", "x", "--knots", "0", "--youden", "--t-points", "5"],
    ["bootstrap", "--covariates", "x", "--knots", "1", "--youden", "--t-points", "5"],
    ["bootstrap", "--covariates", "z", "--knots", "cat", "--youden", "--t-points", "5"],
    ["auc", "--covariates", "x", "--knots", "0", "--ci"],
    ["auc", "--covariates", "z", "--knots", "cat", "--ci"],
])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=data_sets(), argv=ARGV, replicates=st.integers(1, 6))
def test_exit_code_without_traceback(tmp_path_factory, data, argv, replicates):
    text, point = data
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "data.csv"
    path.write_text(text)
    argv = [*argv, "--data", str(path), "--out", str(work / "out"),
            "--replicates", str(replicates)]
    if argv[0] == "bootstrap":
        argv += ["--x", "1" if "cat" in argv else repr(point)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


@st.composite
def huge_outcome_sets(draw):
    """CSV text of two groups of 25 to 60 clean rows, x spread over its
    range and outcomes of 1e150 to 1e300: every fit must succeed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x_scale = 10.0 ** draw(st.integers(-8, 8))
    y_scale = 10.0 ** draw(st.sampled_from([150, 200, 300]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["outcome", "disease", "x"])
    for code in (0, 1):
        n = draw(st.integers(25, 60))
        x = rng.uniform(0.0, 1.0, n)
        y = rng.uniform(-3.0, 3.0, n) + x + 2.0 * code
        writer.writerows([repr(float(yi)), code, repr(float(xi))]
                         for yi, xi in zip(y * y_scale, x * x_scale))
    return buffer.getvalue()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(text=huge_outcome_sets())
def test_huge_outcomes_fit_and_select(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("huge")
    (work / "data.csv").write_text(text)
    for command in ("select-knots", "fit", "auc"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--data", str(work / "data.csv"), "--covariates", "x",
                         "--out", str(work / command)])
        assert code == 0, err.getvalue()
    with open(work / "select-knots" / "raic.csv", newline="") as handle:
        selected = [row for row in csv.DictReader(handle) if row["selected"] == "1"]
    assert len(selected) == 2
    assert all(np.isfinite(float(row["raic"])) for row in selected)


# Values drawn for each option that takes one: (valid, invalid), an
# invalid one drawn one time in eight.  <mid>, <lo> and <hi> stand for the
# data's median, lower and upper quartile of x.  The replicate, repetition
# and size choices are small so that every run is quick.
VALUES = {
    "--knots": (["0", "1", "2", "cat", "0,cat"], ["1,1,1", "-1", "x", ""]),
    "--tuning": (["1.345", "0.5", "1e-8", "1e8"], ["0", "-1", "nan", "inf"]),
    "--truncation": (["3", "0.5", "1e-8", "1e8"], ["0", "-2", "nan"]),
    "--max-iterations": (["50", "1", "2"], ["0", "-1"]),
    "--tol": (["1e-8", "1e-3", "1e-14"], ["0", "-1e-3", "nan"]),
    "--outcome": (["outcome", "score"], ["x", "absent"]),
    "--disease": (["disease"], ["z", "outcome", "absent"]),
    "--covariates": (["x", "z", "x,z"], ["x,x", "absent", ","]),
    "--candidates": (["0", "0,1", "0,2,4"], ["cat", "-1", "x", ""]),
    "--x": (["<mid>", "-0.5", "0.5"], ["1e9", "nan", "inf", "x", "", "1,2,3"]),
    "--t-points": (["2", "5", "11"], ["1", "0", "-3"]),
    "--simpson-panels": (["2", "10"], ["3", "0", "-2"]),
    "--replicates": (["3", "1", "6", "0"], ["-1"]),
    "--alpha": (["0.05", "0.5", "0.9"], ["0", "1", "-0.1", "nan"]),
    "--seed": (["0", "7"], ["-1"]),
    "--x-grid": (["<lo>:<hi>:3", "<mid>:<mid>:1", "-5:5:3"],
                 ["1:0:0", "nan:1:2", "0:1", "a:b:c"]),
    "--scenario": (["I", "II", "III", "IV"], ["V", "iv"]),
    "--sizes": (["12,10", "20,20", "8,15"], ["1,1", "0,5", "5", "x,y", "-2,4"]),
    "--reps": (["1", "2", "3"], ["0", "-1"]),
    "--contamination": (["0", "0.05", "0.5", "1"], ["-0.1", "1.5", "nan"]),
    "--kappa": (["15,20", "-5,5", "0,0", "1e8,1e8"], ["nan,1", "1"]),
    "--outlier-kind": (["location", "radial"], ["sideways"]),
    "--select": (["0,2", "0", "1,3"], ["-1", "x"]),
    "--grid-points": (["1", "3"], ["0", "-2"]),
    "--estimators": (["robust", "robust,ols_linear", "ols_bspline,robust", "ols_linear"],
                     ["bogus", ","]),
}
FLAGS = {"--skip-missing", "--ci", "--youden"}
# lines of the file given to --config
CONFIG_LINES = ["", "seed=3", "knots=cat", "skip_missing=yes", "# a comment", "seed=3",
                "skip_missing=maybe", "bogus=1", "not a pair"]
# --help prints and exits by design, and the test sets --out and --data
SET_BY_TEST = {"-h", "--help", "--out", "--data"}
# drawn into every argv of its subcommand: the data file, and for runs
# that bootstrap or simulate the options that bound their work
ALWAYS = {"--data", "--replicates", "--sizes", "--reps", "--scenario"}
CELL_FAULTS = ["nan", "inf", "-inf", "", "NA", "null", "2", "-1", "0.5", "abc"]


def test_every_option_has_values():
    drawn = set(VALUES) | FLAGS | SET_BY_TEST | {"--config"}
    assert set().union(*OPTIONS.values()) == drawn


@st.composite
def faulty_csv(draw):
    """CSV text with outcome, disease, x, z and an integer score column, and
    the quartiles and median of x (0.5 when no row parses)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = [draw(st.sampled_from([25, 25, 12, 12, 6, 2, 1, 0])) for _ in range(2)]
    x_kind = draw(st.sampled_from(["spread", "spread", "spread", "negative", "negative",
                                   "constant", "binary", "tied"]))
    x_scale = 10.0 ** draw(st.integers(-8, 8))
    y_scale = 10.0 ** draw(Y_EXPONENTS)
    tied_y = draw(st.booleans())
    rows, xs = [], []
    for code, n in enumerate(sizes):
        x = {"spread": rng.uniform(0.0, 1.0, n), "negative": rng.uniform(-1.0, 0.2, n),
             "constant": np.ones(n), "binary": rng.integers(0, 2, n).astype(float),
             "tied": rng.integers(0, 3, n).astype(float)}[x_kind] * x_scale
        y = (rng.integers(-3, 4, n) if tied_y else rng.uniform(-3.0, 3.0, n)) + 2.0 * code
        for xi, yi, zi in zip(x, y * y_scale, rng.integers(0, 2, n)):
            rows.append([repr(float(yi)), str(code), repr(float(xi)), str(zi),
                         str(int(round(yi)))])
            xs.append(float(xi))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        token = draw(st.sampled_from(CELL_FAULTS))
        if rows:
            rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 4))] = token
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["outcome", "disease", "x", "z", "score"])
    writer.writerows(rows)
    marks = np.quantile(xs, [0.25, 0.5, 0.75]) if xs else [0.5] * 3
    return buffer.getvalue(), dict(zip(("<lo>", "<mid>", "<hi>"), map(repr, map(float, marks))))


@st.composite
def subcommand_argv(draw, command):
    """argv options for command drawn from its recorded option set, and the
    --config file's text (None when not drawn)."""
    options = sorted(OPTIONS[command] - SET_BY_TEST)
    chosen = set(draw(st.lists(st.sampled_from(options), unique=True, max_size=5)))
    chosen |= ALWAYS & OPTIONS[command]
    if command not in ("uauc", "simulate"):
        chosen.add("--covariates")
    if command in ("roc", "bootstrap"):
        chosen.add("--x")
    values = {}
    for option in sorted(chosen - FLAGS - {"--data", "--config"}):
        valid, invalid = VALUES[option]
        values[option] = draw(st.sampled_from(invalid if draw(st.integers(0, 7)) == 7 else valid))
    if "," in values.get("--covariates", "") and values.get("--x") in VALUES["--x"][0]:
        values["--x"] += ",1"  # a value for z too
    argv = [command, *sorted(chosen & FLAGS)]
    for option, value in values.items():
        # as --opt VALUE or as --opt=VALUE
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    config = None
    if "--config" in chosen:
        config = "\n".join(draw(st.lists(st.sampled_from(CONFIG_LINES), max_size=3)))
    return argv, config


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_every_subcommand(tmp_path_factory, command, data):
    (text, marks), (argv, config) = data.draw(faulty_csv()), data.draw(subcommand_argv(command))
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "data.csv"
    path.write_text(text)
    for mark, value in marks.items():
        argv = [a.replace(mark, value) for a in argv]
    if config is not None:
        (work / "run.cfg").write_text(config)
        argv += ["--config", str(work / "run.cfg")]
    if command != "simulate":
        argv += ["--data", str(work / "missing.csv" if data.draw(st.integers(0, 7)) == 7 else path)]
    out = work / "out"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs and all(os.path.isfile(p) for p in outputs)
