"""Alternating parent/change runs of bench/run.py, for a speed claim.

Exports a base revision (the parent) with `git archive` into a temporary
directory and runs `bench/run.py` there and in this working tree (the
change), one run at a time, in pairs whose first side alternates: the
parent runs first in even pairs.  Pairs are the outer loop, then seeds,
then workloads.  Each run prints one line with its end-to-end metrics; a
pair prints the change/parent ratio of each.  At the end, per workload and
seed, each side's median and quartiles, the change's wins (ties count for
neither), the relative change of the medians and the parent's interquartile
range are printed for every metric, with each side's median cpu_s/wall_s,
which reads about 1.0 for a run that keeps one core busy.  `within bound`
reads NO where the change's median is worse than the parent's by more than
the metric's bound in BENCHMARK.json, and `claim` reads yes where ten or
more pairs ran, the change won at least nine tenths of them and the medians
differ by more than the parent's interquartile range.

    python3 tools/ab_bench.py --base HEAD --workloads boot_grid,study \\
        --seeds 0,7 --pairs 10 [--out record.json]

Each run lasts BENCHMARK.json's run_seconds, and the metric directions and
bounds come from there too.  An export, unlike a git worktree, registers
nothing in the repository, so an interrupted run leaves only its temporary
directory, which is removed on exit.  A warning is
printed when the two sides' bench/ directories differ, since a claim needs
the same benchmark code on both.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """The commit rev names, with its tracked files written under dest."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def same_tree(a: Path, b: Path) -> bool:
    """Whether the files of two directories match by name and content."""
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__", ".bench_work"])
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return (not (cmp.left_only or cmp.right_only or mismatch or errors)
            and all(same_tree(a / d, b / d) for d in cmp.common_dirs))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run: its result line, or an error and exit code."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (exclusive method; one value is its own)."""
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins, the relative
    change of the medians, the parent's IQR, whether the change's median is
    within the metric's regression bound and whether a gain holds."""
    out = {}
    for metric in spec:
        name, direction = metric["name"], metric["better"]
        got = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
               if all(name in p[side].get("metrics", {}) for side in ("parent", "change"))]
        if not got:
            continue
        parent, change = (quartiles([g[i] for g in got]) for i in (0, 1))
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in got)
        iqr = parent["q3"] - parent["q1"]
        diff = change["median"] - parent["median"]
        out[name] = {"parent": parent, "change": change, "change_wins": wins, "pairs": len(got),
                     "relative_change": diff / parent["median"] if parent["median"] else None,
                     "parent_iqr": iqr,
                     "within_bound": -sign * diff <= metric["bound"] * abs(parent["median"]),
                     "claim": len(got) >= 10 and wins >= 0.9 * len(got) and sign * diff > iqr}
    return out


def cpu_per_wall(pairs: list[dict]) -> dict:
    """Each side's median cpu_s / wall_s: about 1.0 when a run keeps one
    core busy, above it when threads run in parallel or spin."""
    out = {}
    for side in ("parent", "change"):
        ratios = [p[side]["metrics"]["cpu_s"] / p[side]["metrics"]["wall_s"]
                  for p in pairs if "metrics" in p[side]]
        if ratios:
            out[side] = statistics.median(ratios)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    base = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    try:
        sha = export(args.base, base)
        print(f"parent {sha} in {base}; change is the working tree {ROOT}")
        if not same_tree(base / "bench", ROOT / "bench"):
            print("warning: bench/ differs between parent and change", file=sys.stderr)
        sides = {"parent": base, "change": ROOT}
        runs = {}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for seed in seeds:
                for workload in workloads:
                    result = {side: run_bench(sides[side], workload, seed, seconds)
                              for side in order}
                    runs.setdefault((workload, seed), []).append(result)
                    print(f"{workload} seed {seed} pair {pair} ({order[0]} first)")
                    for side in ("parent", "change"):
                        r = result[side]
                        print(f"  {side:6} " + (json.dumps(r["metrics"]) if "metrics" in r
                                                else f"exit {r['exit']}: {r['error']}"))
                    if all("metrics" in r for r in result.values()):
                        ratios = {k: round(v / result["parent"]["metrics"][k], 4)
                                  for k, v in result["change"]["metrics"].items()
                                  if result["parent"]["metrics"].get(k)}
                        print(f"  change/parent {json.dumps(ratios)}", flush=True)
        summary = []
        for (workload, seed), pairs in runs.items():
            metrics = summarize(pairs, spec["end_to_end"])
            ratio = cpu_per_wall(pairs)
            summary.append({"workload": workload, "seed": seed, "metrics": metrics,
                            "cpu_per_wall": ratio,
                            "correct": all(p[s].get("correct") for p in pairs for s in sides)})
            print(f"\n{workload} seed {seed}: correct {summary[-1]['correct']}  cpu_s/wall_s "
                  + "  ".join(f"{side} {value:.3g}" for side, value in ratio.items()))
            for name, m in metrics.items():
                rel = m["relative_change"]
                print(f"  {name:13} parent {m['parent']['median']:.5g} "
                      f"[{m['parent']['q1']:.5g}, {m['parent']['q3']:.5g}]  change "
                      f"{m['change']['median']:.5g} [{m['change']['q1']:.5g}, "
                      f"{m['change']['q3']:.5g}]  "
                      f"{'n/a' if rel is None else f'{100 * rel:+.1f}%'}  wins "
                      f"{m['change_wins']}/{m['pairs']}  within bound "
                      f"{'yes' if m['within_bound'] else 'NO'}  "
                      f"claim {'yes' if m['claim'] else 'no'}")
        if args.out:
            args.out.write_text(json.dumps(
                {"parent_sha": sha, "seconds": seconds, "summary": summary,
                 "runs": [{"workload": w, "seed": s, "pair": i, **{k: p[k] for k in sides}}
                          for (w, s), pairs in runs.items() for i, p in enumerate(pairs)]},
                indent=1) + "\n")
        return 0 if all(s["correct"] for s in summary) else 1
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
