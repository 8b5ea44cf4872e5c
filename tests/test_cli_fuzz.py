"""Fuzzed CLI contract for the bootstrap subcommands: on small, awkward data
sets `bootstrap --youden` and `auc --ci` end with one of the documented exit
codes (0 through 3) and never with a traceback.

The data sets mix tied outcomes and covariates, constant covariates,
one-row groups and magnitudes from 1e-8 to 1e8.
"""

import csv
import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from robroc.cli import main


@st.composite
def data_sets(draw):
    """CSV text with an outcome, the disease code, x and a binary z, and
    the point to bootstrap at."""
    sizes = [draw(st.sampled_from([25, 12, 6, 2, 1])) for _ in range(2)]
    x_scale = 10.0 ** draw(st.integers(-8, 8))
    y_scale = 10.0 ** draw(st.integers(-8, 8))
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
