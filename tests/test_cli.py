"""End-to-end CLI tests: exit codes, output schemas, config precedence."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_table
from robroc.cli import _build_parser, main
from robroc.simulate import generate, scenario

GOLDEN = Path(__file__).parent / "golden"


def run_module(*argv) -> subprocess.CompletedProcess:
    """python -m robroc from src/ in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "robroc", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})


def write_study_csv(path, n=60, outlier=False, seed=3):
    nd, d = generate(scenario("I"), n, n, seed=seed)
    if outlier:
        nd.outcomes[0] = nd.outcomes[0] + 75.0
    lines = ["outcome,disease,age"]
    for sample, flag in ((nd, 0), (d, 1)):
        for y, x in zip(sample.outcomes, sample.covariates[:, 0]):
            lines.append(f"{float(y)!r},{flag},{float(x)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def data_csv(tmp_path):
    return write_study_csv(tmp_path / "data.csv")


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


class TestFit:
    def test_outputs_and_manifest(self, tmp_path, data_csv, capsys):
        code, out = run(tmp_path, "fit", "--data", str(data_csv),
                        "--covariates", "age", "--knots", "0")
        assert code == 0
        header, rows = read_table(out / "coefficients.csv")
        assert header == ["group", "term", "estimate"]
        assert len(rows) == 8  # intercept + 3 basis columns per group
        assert {r[0] for r in rows} == {"nondiseased", "diseased"}
        assert rows[0][1] == "intercept"

        header, rows = read_table(out / "weights.csv")
        assert header == ["group", "row", "outcome", "std_residual",
                          "huber_weight", "truncated_weight"]
        assert len(rows) == 120

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["options"]["knots"] == "0"
        assert str(out / "coefficients.csv") in manifest["outputs"]
        assert "sigma" in capsys.readouterr().out

    def test_outlier_row_is_downweighted(self, tmp_path):
        data = write_study_csv(tmp_path / "data.csv", outlier=True)
        code, out = run(tmp_path, "fit", "--data", str(data),
                        "--covariates", "age")
        assert code == 0
        _, rows = read_table(out / "weights.csv")
        first = next(r for r in rows if r[0] == "nondiseased" and r[1] == "1")
        assert float(first[5]) < 0.1

    def test_deterministic_rerun(self, tmp_path, data_csv):
        _, out1 = run(tmp_path / "a", "fit", "--data", str(data_csv),
                      "--covariates", "age")
        _, out2 = run(tmp_path / "b", "fit", "--data", str(data_csv),
                      "--covariates", "age")
        assert (out1 / "coefficients.csv").read_bytes() == \
            (out2 / "coefficients.csv").read_bytes()
        assert (out1 / "weights.csv").read_bytes() == \
            (out2 / "weights.csv").read_bytes()


class TestExitCodes:
    def test_usage_errors(self, tmp_path, data_csv):
        assert run(tmp_path, "fit", "--bogus")[0] == 1
        assert run(tmp_path, "fit")[0] == 1  # no data file
        assert run(tmp_path, "roc", "--data", str(data_csv),
                   "--covariates", "age")[0] == 1  # no --x
        assert run(tmp_path, "fit", "--data", str(data_csv),
                   "--covariates", "age", "--knots", "two")[0] == 1

    def test_bad_config_key(self, tmp_path, data_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bandwidth=3\n")
        code, _ = run(tmp_path, "fit", "--data", str(data_csv),
                      "--covariates", "age", "--config", str(cfg))
        assert code == 1

    def test_data_errors(self, tmp_path, data_csv):
        assert run(tmp_path, "fit", "--data", str(data_csv),
                   "--covariates", "weight")[0] == 2
        assert run(tmp_path, "roc", "--data", str(data_csv),
                   "--covariates", "age", "--x", "99")[0] == 2

    def test_bad_disease_flag_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("outcome,disease,age\n1.0,0,30\n2.0,2,40\n")
        assert run(tmp_path, "fit", "--data", str(bad),
                   "--covariates", "age")[0] == 2

    @pytest.mark.parametrize("tail, message", [
        (b'"' + b"9" * 200_000 + b'",1,0.5\n', "field larger than field limit"),
        (b"2.0,1,\xe9\n", "cannot decode data file"),
    ], ids=["long_field", "non_utf8"])
    def test_csv_faults_are_data_errors(self, tmp_path, data_csv, tail, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data_csv.read_bytes() + tail)
        proc = run_module("fit", "--data", str(bad), "--covariates", "age",
                          "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("data error: ") and str(bad) in proc.stderr
        assert message in proc.stderr

    def test_numerical_error(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        lines = ["outcome,disease,age"]
        for x in rng.uniform(0, 1, 30):
            lines.append(f"1.0,0,{float(x)!r}")  # constant nondiseased outcome
        for x in rng.uniform(0, 1, 30):
            lines.append(f"{float(rng.normal(2.0))!r},1,{float(x)!r}")
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(lines) + "\n")
        code, _ = run(tmp_path, "fit", "--data", str(data),
                      "--covariates", "age")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, message", [
        (["fit", "--max-iterations", "0"], "max_iterations"),
        (["fit", "--tol", "0"], "tol"),
        (["fit", "--tol", "-1"], "tol"),
        (["fit", "--tuning", "0"], "tuning"),
        (["fit", "--truncation", "0"], "truncation"),
        (["roc", "--x", "0.5", "--t-points", "1"], "--t-points"),
        (["bootstrap", "--x", "0.5", "--t-points", "0"], "--t-points"),
        (["uauc", "--replicates", "-3"], "--replicates"),
        (["bootstrap", "--x", "0.5", "--alpha", "1.5"], "alpha"),
        (["bootstrap", "--x", "0.5", "--replicates", "0"], "bootstrap replicate"),
        (["auc", "--ci", "--replicates", "0"], "bootstrap replicate"),
        (["uauc", "--replicates", "5", "--alpha", "0"], "alpha"),
        (["roc", "--x", "0.5", "--simpson-panels", "3"], "--simpson-panels"),
        (["roc", "--x", "0.5", "--simpson-panels", "0"], "--simpson-panels"),
        (["roc", "--x", "0.5", "--simpson-panels", "-2"], "--simpson-panels"),
        (["roc"], "needs --x"),
        (["bootstrap"], "needs --x"),
        (["roc", "--x", "0.1,0.2"], "--x has 2 values for 1 covariates"),
        (["youden", "--x", "abc"], "bad numeric list 'abc'"),
        (["auc", "--x-grid", "1:2"], "start:stop:count"),
        (["youden", "--x-grid", "0:1:0"], "grid count"),
        (["auc", "--covariates", "age,z"], "single covariate"),
        (["youden", "--covariates", "age,z"], "single covariate"),
        (["roc", "--x", "nan"], "--x values must be finite"),
        (["bootstrap", "--x", "inf"], "--x values must be finite"),
        (["auc", "--x-grid", "0:nan:5"], "--x-grid points must be finite"),
        (["youden", "--x-grid", "nan:0.5:3"], "--x-grid points must be finite"),
        (["bootstrap", "--x", "0.5", "--seed", "-1", "--replicates", "3"],
         "--seed must be at least 0, got -1"),
        (["auc", "--ci", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["uauc", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["fit", "--covariates", "age,age", "--knots", "2,cat"],
         "--covariates names a covariate twice: age,age"),
    ])
    def test_nonsense_settings_rejected(self, tmp_path, data_csv, capsys, argv, message):
        # settings are checked before the data file is read; the case's own
        # options follow the data options, so that they win
        for data in (data_csv, tmp_path / "missing.csv"):
            code, _ = run(tmp_path, argv[0], "--data", str(data), "--covariates", "age",
                          *argv[1:])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error") and message in err

    def test_bootstrap_settings_unused_without_ci(self, tmp_path, data_csv):
        assert run(tmp_path, "auc", "--data", str(data_csv), "--covariates", "age",
                   "--replicates", "0")[0] == 0

    @pytest.mark.parametrize("command", ["auc", "youden"])
    def test_default_grid_needs_splined_covariate(self, tmp_path, command):
        proc = run_module(command, "--data", str(GOLDEN / "data.csv"),
                          "--outcome", "outcome", "--disease", "disease", "--covariates", "z",
                          "--knots", "cat", "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage error") and "splined covariate" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["select-knots", "--data", str(GOLDEN / "data.csv"), "--covariates", "x",
         "--candidates", "0,x"],
        ["simulate", "--scenario", "I", "--sizes", "30,30", "--select", "0,x"],
    ])
    def test_bad_knot_count_list(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv)[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"{argv[-2]} " in err and "'0,x'" in err

    @pytest.mark.parametrize("argv, message", [
        (["--reps", "0"], "--reps"),
        (["--grid-points", "0"], "--grid-points"),
        (["--max-iterations", "0"], "max_iterations"),
        (["--contamination", "0.1", "--kappa", "nan,5"], "kappa nan is not finite"),
        (["--contamination", "0.1", "--kappa", "5,inf"], "kappa inf is not finite"),
        (["--contamination", "0.1", "--kappa=-5,5", "--outlier-kind", "radial"],
         "radial outliers need kappa >= 0"),
        (["--estimators", ","], "--estimators needs one or more"),
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
    ])
    def test_nonsense_study_settings_rejected(self, tmp_path, capsys, argv, message):
        code, _ = run(tmp_path, "simulate", "--scenario", "I", "--sizes", "30,30", *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and message in err


class TestNegativeOptionValues:
    """A value that starts with - and then a digit or a dot is a value, not
    a flag, whether it is given as --opt VALUE or as --opt=VALUE."""

    @staticmethod
    def centered_csv(path):
        # age centered on 0, so that points below 0 lie inside the data,
        # and a 0/1 column z
        nd, d = generate(scenario("I"), 60, 60, seed=7)
        rng = np.random.default_rng(7)
        lines = ["outcome,disease,age,z"]
        for sample, flag in ((nd, 0), (d, 1)):
            for y, x in zip(sample.outcomes, sample.covariates[:, 0]):
                lines.append(f"{float(y)!r},{flag},{float(x) - 0.5!r},{rng.integers(0, 2)}")
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("argv, code, message", [
        (["auc", "--covariates", "age", "--x-grid", "-0.4:0.4:3"], 0, "3 grid points"),
        (["auc", "--covariates", "age", "--x-grid", "-5:5:3"], 2, "outside boundary knots"),
        (["roc", "--covariates", "age,z", "--knots", "1,cat", "--x", "-0.25,1"], 0, "AUC at"),
        (["youden", "--covariates", "age", "--x", "-.25"], 0, "1 point(s)"),
        (["fit", "--covariates", "age", "--tol", "-1e-3"], 1, "tol must be positive"),
        (["simulate", "--scenario", "I", "--sizes", "20,20", "--reps", "2", "--grid-points",
          "3", "--kappa", "-5,5"], 0, "robust:"),
        (["simulate", "--scenario", "I", "--sizes", "20,20", "--reps", "2", "--grid-points",
          "3", "--kappa=-5,5"], 0, "robust:"),
    ], ids=["x-grid", "x-grid-outside", "x-two-covariates", "x-leading-dot", "tol", "kappa",
            "kappa-equals"])
    def test_read_as_values(self, tmp_path, capsys, argv, code, message):
        data = [] if argv[0] == "simulate" else ["--data", str(self.centered_csv(tmp_path / "c.csv"))]
        assert run(tmp_path, argv[0], *data, *argv[1:])[0] == code
        captured = capsys.readouterr()
        assert message in (captured.out if code == 0 else captured.err)


class TestCurveCommands:
    def test_roc_grid_size(self, tmp_path, data_csv, capsys):
        code, out = run(tmp_path, "roc", "--data", str(data_csv),
                        "--covariates", "age", "--x", "0.5",
                        "--t-points", "51")
        assert code == 0
        header, rows = read_table(out / "roc_curve.csv")
        assert header == ["t", "roc"]
        assert len(rows) == 51
        values = np.array([[float(c) for c in r] for r in rows])
        assert np.all(np.diff(values[:, 1]) >= 0)
        assert "AUC at x=0.5" in capsys.readouterr().out

    def test_auc_explicit_grid(self, tmp_path, data_csv):
        code, out = run(tmp_path, "auc", "--data", str(data_csv),
                        "--covariates", "age", "--x-grid", "0.1:0.9:21")
        assert code == 0
        header, rows = read_table(out / "auc.csv")
        assert header == ["age", "auc"]
        assert len(rows) == 21
        aucs = [float(r[1]) for r in rows]
        assert min(aucs) >= 0.0 and max(aucs) <= 1.0

    def test_auc_default_grid(self, tmp_path, data_csv):
        code, out = run(tmp_path, "auc", "--data", str(data_csv),
                        "--covariates", "age")
        assert code == 0
        _, rows = read_table(out / "auc.csv")
        assert len(rows) == 40

    def test_auc_with_intervals(self, tmp_path, data_csv):
        code, out = run(tmp_path, "auc", "--data", str(data_csv),
                        "--covariates", "age", "--x-grid", "0.3:0.7:3",
                        "--ci", "--replicates", "20", "--seed", "1")
        assert code == 0
        header, rows = read_table(out / "auc.csv")
        assert header == ["age", "auc", "lower", "upper"]
        assert len(rows) == 3
        for r in rows:
            assert float(r[2]) <= float(r[3])

    def test_youden_point_and_grid(self, tmp_path, data_csv):
        code, out = run(tmp_path, "youden", "--data", str(data_csv),
                        "--covariates", "age", "--x", "0.5")
        assert code == 0
        header, rows = read_table(out / "youden.csv")
        assert header == ["age", "youden", "threshold"]
        assert len(rows) == 1
        code, out = run(tmp_path / "g", "youden", "--data", str(data_csv),
                        "--covariates", "age")
        assert code == 0
        _, rows = read_table(out / "youden.csv")
        assert len(rows) == 40

    def test_youden_at_a_two_covariate_point(self, tmp_path, capsys):
        code, out = run(tmp_path, "youden", "--data", str(GOLDEN / "data.csv"),
                        "--covariates", "x,z", "--knots", "1,cat", "--x", "0.4,1")
        assert code == 0
        header, rows = read_table(out / "youden.csv")
        assert header == ["x", "z", "youden", "threshold"]
        assert len(rows) == 1 and rows[0][:2] == ["0.4", "1.0"]
        assert "at 1 point(s)" in capsys.readouterr().out

    def test_bootstrap_files(self, tmp_path, data_csv):
        code, out = run(tmp_path, "bootstrap", "--data", str(data_csv),
                        "--covariates", "age", "--x", "0.5",
                        "--replicates", "15", "--t-points", "21", "--youden")
        assert code == 0
        header, rows = read_table(out / "auc_ci.csv")
        assert header == ["age", "auc", "lower", "upper"]
        assert len(rows) == 1
        header, rows = read_table(out / "roc_band.csv")
        assert header == ["t", "roc", "lower", "upper"]
        assert len(rows) == 21
        header, rows = read_table(out / "youden_ci.csv")
        assert header == ["age", "youden", "threshold", "lower", "upper"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 3

    def test_uauc_point_and_interval(self, tmp_path, data_csv):
        code, out = run(tmp_path, "uauc", "--data", str(data_csv),
                        "--covariates", "age", "--replicates", "0")
        assert code == 0
        header, rows = read_table(out / "uauc.csv")
        assert header == ["auc"]
        assert len(rows) == 1
        code, out = run(tmp_path / "ci", "uauc", "--data", str(data_csv),
                        "--covariates", "age", "--replicates", "20")
        assert code == 0
        header, _ = read_table(out / "uauc.csv")
        assert header == ["auc", "lower", "upper"]

    def test_uauc_needs_no_covariates(self, tmp_path):
        code, out = run(tmp_path, "uauc", "--data", str(GOLDEN / "data.csv"),
                        "--replicates", "0")
        assert code == 0
        assert (out / "uauc.csv").read_bytes() == (GOLDEN / "uauc" / "uauc.csv").read_bytes()
        assert run(tmp_path / "fit", "fit", "--data", str(GOLDEN / "data.csv"))[0] == 1


class TestSelectKnots:
    def test_table_and_selection(self, tmp_path, data_csv, capsys):
        code, out = run(tmp_path, "select-knots", "--data", str(data_csv),
                        "--covariates", "age", "--candidates", "0,2")
        assert code == 0
        header, rows = read_table(out / "raic.csv")
        assert header == ["group", "knots", "sigma", "penalty", "raic",
                          "selected", "error"]
        assert len(rows) == 4  # two candidates per group
        for group in ("nondiseased", "diseased"):
            selected = [r for r in rows if r[0] == group and r[5] == "1"]
            assert len(selected) == 1
        assert "selected knots" in capsys.readouterr().out


class TestConfigPrecedence:
    def test_config_file_supplies_options(self, tmp_path, data_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data_csv}\ncovariates=age\nknots=0\n"
                       "t_points=11\nx=0.5\n")
        code, out = run(tmp_path, "roc", "--config", str(cfg))
        assert code == 0
        _, rows = read_table(out / "roc_curve.csv")
        assert len(rows) == 11

    def test_flag_overrides_config(self, tmp_path, data_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data_csv}\ncovariates=age\nknots=0\n"
                       "t_points=11\nx=0.5\n")
        code, out = run(tmp_path, "roc", "--config", str(cfg),
                        "--t-points", "5")
        assert code == 0
        _, rows = read_table(out / "roc_curve.csv")
        assert len(rows) == 5

    def test_environment_variable_config(self, tmp_path, data_csv, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data_csv}\ncovariates=age\nknots=0\nx=0.5\n")
        monkeypatch.setenv("ROBROC_CONFIG", str(cfg))
        code, out = run(tmp_path, "roc")
        assert code == 0
        assert (out / "roc_curve.csv").exists()

    def test_explicit_config_beats_environment(self, tmp_path, data_csv,
                                               monkeypatch):
        broken = tmp_path / "broken.cfg"
        broken.write_text("bandwidth=1\n")
        good = tmp_path / "good.cfg"
        good.write_text(f"data={data_csv}\ncovariates=age\nx=0.5\n")
        monkeypatch.setenv("ROBROC_CONFIG", str(broken))
        code, _ = run(tmp_path, "roc", "--config", str(good))
        assert code == 0


class TestSimulateCommand:
    def test_study_outputs(self, tmp_path, capsys):
        code, out = run(tmp_path, "simulate", "--scenario", "I",
                        "--sizes", "30,25", "--reps", "2", "--knots", "0",
                        "--estimators", "robust,ols_linear",
                        "--grid-points", "5", "--seed", "3")
        assert code == 0
        for kind in ("robust", "ols_linear"):
            header, rows = read_table(out / f"sim_{kind}.csv")
            assert header == ["x1", "true_auc", "mean", "lower", "upper",
                              "n_ok"]
            assert len(rows) == 5
        assert not (out / "knot_counts.csv").exists()
        assert "max |mean - true|" in capsys.readouterr().out

    def test_every_fit_failing_prints_no_warning(self, tmp_path):
        # n=5 is too few rows for scenario IV's seven robust coefficients
        proc = run_module("simulate", "--scenario", "IV", "--sizes", "5,5", "--reps", "3",
                          "--estimators", "robust,ols_linear", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith(
            "robust: max |mean - true| = nan over 3 replicates, 3 failed fits\n")

    def test_repeated_estimator_counted_once(self, tmp_path, capsys):
        code, out = run(tmp_path, "simulate", "--scenario", "IV", "--sizes", "5,5",
                        "--reps", "3", "--estimators", "robust,robust")
        assert code == 0
        assert capsys.readouterr().out.startswith(
            "robust: max |mean - true| = nan over 3 replicates, 3 failed fits\n")
        assert sorted(p.name for p in out.glob("sim_*.csv")) == ["sim_robust.csv"]

    def test_selection_tally(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--scenario", "I",
                        "--sizes", "40,40", "--reps", "2", "--select", "0,3",
                        "--grid-points", "5", "--seed", "5")
        assert code == 0
        header, rows = read_table(out / "knot_counts.csv")
        assert header == ["group", "knots", "count"]
        assert sum(int(r[2]) for r in rows if r[0] == "nondiseased") == 2

    def test_config_file_can_define_study(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenario=I\nsizes=30,25\nreps=2\ngrid_points=5\n"
                       "seed=3\nknots=0\n")
        code, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert code == 0
        assert (out / "sim_robust.csv").exists()

    def test_usage_errors(self, tmp_path):
        assert run(tmp_path, "simulate", "--sizes", "30,25")[0] == 1
        assert run(tmp_path, "simulate", "--scenario", "I")[0] == 1
        assert run(tmp_path, "simulate", "--scenario", "I",
                   "--sizes", "30")[0] == 1
        assert run(tmp_path, "simulate", "--scenario", "V",
                   "--sizes", "30,25")[0] == 1
        assert run(tmp_path, "simulate", "--scenario", "I",
                   "--sizes", "30,25", "--estimators", "lasso")[0] == 1


class TestEntryPoints:
    def test_public_names_resolve(self):
        import robroc

        missing = [name for name in robroc.__all__ if not hasattr(robroc, name)]
        assert missing == []

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_module_execution(self, tmp_path, data_csv):
        out = tmp_path / "out"
        proc = run_module("auc", "--data", str(data_csv), "--covariates", "age",
                          "--x-grid", "0.3:0.7:5", "--out", str(out))
        assert proc.returncode == 0
        assert (out / "auc.csv").exists()
        assert (out / "manifest.json").exists()

    def test_every_option_has_help(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, p in sub.choices.items():
            for action in p._actions:
                assert action.help, f"{name} {'/'.join(action.option_strings)} has no help"
