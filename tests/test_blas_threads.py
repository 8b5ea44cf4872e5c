"""The CLI's one-thread BLAS scope (huber._one_blas_thread).

The CLI runs each subcommand with numpy's and scipy's OpenBLAS pools at one
thread each and gives back the counts it found, on success and on every
failing exit.  Library calls leave the counts alone, and their results do
not depend on them: a fit large enough for OpenBLAS to split its work
across threads gives the same bits on the default pools and on one thread.
"""

import numpy as np
import pytest

from robroc import cli, huber
from robroc.roc import fit_pair
from robroc.simulate import generate, scenario
from test_golden_cli import GOLDEN, assert_matches_golden, run_case


def counts() -> list[int]:
    return [get() for get, _ in huber._blas_pools()]


@pytest.fixture
def two_threads():
    """Both pools at two threads for the test, so that a count left at one
    shows; the counts found are put back afterwards."""
    before = counts()
    for _, put in huber._blas_pools():
        put(2)
    yield counts()
    for (_, put), count in zip(huber._blas_pools(), before):
        put(count)


def test_numpy_and_scipy_pools_found():
    # the wheels installed here bundle OpenBLAS; another BLAS finds none
    assert len(huber._blas_pools()) == 2


def test_library_fit_same_bits_on_one_thread():
    nd, d = generate(scenario("I", contamination=0.05), 15000, 15000, seed=17)
    default = fit_pair(nd, d, 3)
    with huber._one_blas_thread():
        assert counts() == [1] * len(counts())
        single = fit_pair(nd, d, 3)
    for a, b in ((default.nondiseased.fit, single.nondiseased.fit),
                 (default.diseased.fit, single.diseased.fit)):
        assert a.beta.tobytes() == b.beta.tobytes()
        assert a.sigma == b.sigma
        assert a.huber_weights.tobytes() == b.huber_weights.tobytes()
        assert a.truncated_weights.tobytes() == b.truncated_weights.tobytes()


def constant_outcomes(path) -> None:
    """60 rows whose outcome is constant in each group: the MAD is zero."""
    path.write_text("outcome,disease,x\n" + "".join(
        f"{1.0 + code},{code},{i / 30}\n" for i in range(30) for code in (0, 1)))


@pytest.mark.parametrize("case, code", [
    ("golden_fit", 0),
    ("simulate_bad_sizes", 1),
    ("missing_data", 2),
    ("zero_mad", 3),
])
def test_cli_restores_counts(case, code, two_threads, tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    constant_outcomes(data)
    argv = {"golden_fit": ["fit", "--data", str(GOLDEN / "data.csv"), "--covariates", "x"],
            "simulate_bad_sizes": ["simulate", "--sizes", "5"],
            "missing_data": ["fit", "--data", str(tmp_path / "missing.csv"),
                             "--covariates", "x"],
            "zero_mad": ["fit", "--data", str(data), "--covariates", "x"]}[case]
    seen = []
    write_table = cli.write_table

    def spy(*args):
        seen.append(counts())
        write_table(*args)

    monkeypatch.setattr(cli, "write_table", spy)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == code
    assert counts() == two_threads
    assert all(c == [1] * len(c) for c in seen)
    assert bool(seen) == (code == 0)


def test_golden_fit_without_openblas(monkeypatch, tmp_path):
    # as under a BLAS the finder does not know: the scope changes nothing
    monkeypatch.setattr(huber, "_blas_pools", lambda: ())
    out = tmp_path / "out"
    code, stdout = run_case("fit", GOLDEN / "data.csv", out)
    assert code == 0
    assert_matches_golden("fit", out, stdout)
    for table in ("coefficients.csv", "weights.csv"):
        assert (out / table).read_bytes() == (GOLDEN / "fit" / table).read_bytes()
