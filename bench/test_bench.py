"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Runs every workload end to end (both seeds of the smoke set, untraced and
traced), checks that the result line matches BENCHMARK.json, and checks the
tracer's patching and the reference comparison.  The tiny sizes keep each
run to a few seconds; their timings mean nothing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed, trace", [(0, 0), (1, 0), (1, 1)])
def test_tiny_run(workload, seed, trace):
    proc = run_bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding_and_restores_them():
    import robroc.bootstrap
    import robroc.huber
    import robroc.roc
    import robroc.wecdf
    from tracer import Tracer

    original_fit = robroc.huber.irls_fit
    original_build = vars(robroc.wecdf.WeightedEcdf)["from_residuals"]
    tracer = Tracer()
    tracer.install()
    try:
        for module in (robroc.huber, robroc.roc, robroc.bootstrap):
            assert module.irls_fit is not original_fit
            assert module.irls_fit.__wrapped__ is original_fit
        assert isinstance(vars(robroc.wecdf.WeightedEcdf)["from_residuals"], classmethod)
        robroc.wecdf.WeightedEcdf.from_residuals([0.5, -1.0, 2.0])
    finally:
        tracer.uninstall()
    assert robroc.roc.irls_fit is original_fit
    assert vars(robroc.wecdf.WeightedEcdf)["from_residuals"] is original_build
    assert tracer.counts["wecdf.builds"] == 1
    assert tracer.layer_calls["wecdf"] == 1 and len(tracer.spans) == 1


def test_reference_comparison_detects_a_change():
    from workloads import CheckFailed, compare_reference

    with open(BENCH / "reference" / "boot_grid.json") as handle:
        values = json.load(handle)["0"]
    compare_reference("boot_grid", 0, values)
    values["auc.csv"]["auc"][3] += 1e-5
    with pytest.raises(CheckFailed):
        compare_reference("boot_grid", 0, values)
    with pytest.raises(CheckFailed):
        compare_reference("boot_grid", 1, values)
