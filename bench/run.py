"""robroc benchmark: one workload, one process, the CLI called in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--size full|tiny] [--update-reference]

Each operation calls robroc.cli.main(argv) in this process, so an
operation costs what one CLI call costs a user, minus interpreter start-up
(reported separately as setup_s).  A run cycles through the workload's
variants, each with its own seed derived from --seed; inputs are generated
once per seed, before anything is timed.  After one warm-up operation,
operations start while one of median length still ends within --seconds;
each one's exit code and output files are checked.

Every operation and every timed import is bracketed by a fixed
calibration loop, and the reported times are rescaled to the loop's
reference time (see speed_factors).  The shared host's speed swings
by up to 2x within seconds; the rescaling removes most of that swing from
the metrics while leaving the program's own cost in them.  The measured
seconds are printed on the `measured` line and kept in the record.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
operations with operations traced per module (see tracer.py) and reports
the per-layer metrics.  The last line of standard output is the result
object; a fuller record (environment, per-operation times, per-function
trace table) goes to .bench_work/results/, spans to .bench_work/trace/.
Exit code 0 when every check passed, 1 when one failed, 2 when the
benchmark could not start (for example, no robroc sources to import).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (DATASETS, DEFAULT_SEED, WORKLOADS, CheckFailed,  # noqa: E402
                       Context, compare_reference, variant_seed, write_reference)

END_TO_END = {"setup_s": "s", "wall_s": "s", "units_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mib": "MiB", "ok_frac": "frac"}
PER_LAYER = {
    "huber.fits": "count", "huber.iterations": "count", "huber.self_s": "s",
    "huber.s_per_iteration": "s", "huber.nonconverged": "count",
    "huber.failed": "count", "huber.computed_gflop": "GFLOP",
    "splines.calls": "count", "splines.rows": "count", "splines.self_s": "s",
    "roc.points": "count", "roc.self_s": "s",
    "wecdf.builds": "count", "wecdf.evals": "count", "wecdf.self_s": "s",
    "bootstrap.replicates": "count", "bootstrap.replicates_failed": "count",
    "bootstrap.self_s": "s",
    "model_select.candidates": "count", "model_select.candidates_failed": "count",
    "model_select.self_s": "s",
    "simulate.replicates": "count", "simulate.fits_failed": "count",
    "simulate.nan_points": "count", "simulate.self_s": "s",
    "io.read_csv.s": "s", "io.read_csv.rows": "count", "io.write_table.s": "s",
    "io.write_table.rows": "count", "io.bytes_written": "bytes", "io.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac", "trace.unattributed_s": "s",
}
SETUP_SAMPLES = {"full": 5, "tiny": 2}
# The calibration loop (CALIBRATION_PY_STEPS of interpreter arithmetic, then
# CALIBRATION_NP_STEPS small least-squares solves), timed CALIBRATION_REPEATS
# times on each side of a timed interval, and one loop's time on a quiet host
# (10th percentile on a shared 2-core x86_64 VM, Python 3.11, OpenBLAS): the
# reference speed that reported times are scaled to.  An operation's speed is
# taken from the loops of the SMOOTHING_NEIGHBOURS operations on each side of
# it as well.
CALIBRATION_PY_STEPS = 12_500
CALIBRATION_NP_STEPS = 40
CALIBRATION_REPEATS = 4
REFERENCE_LOOP_S = 0.0017
SMOOTHING_NEIGHBOURS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import robroc.cli; "
                "print(repr(time.perf_counter() - t))")
SUBPROCESS_TIMEOUT_S = 120


class StartError(Exception):
    """The benchmark cannot run here."""


@functools.cache
def _calibration_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return np, rng.standard_normal((300, 8)), rng.standard_normal(300)


def calibration_loops() -> list[float]:
    """Seconds of each of CALIBRATION_REPEATS runs of a fixed loop: the
    host's current speed.

    Half of the loop is interpreter arithmetic and half is small numpy
    solves, like an IRLS step; together they tracked operation times better
    than either did alone on the shared host (README, "Reference
    speed").  The loop does not use robroc, so no change to the program
    moves it.  Call it only after robroc.cli is imported, so that it does
    not load numpy first."""
    np, a, b = _calibration_arrays()
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_PY_STEPS):
            x += i * i % 7
        for _ in range(CALIBRATION_NP_STEPS):
            r = b - a @ np.linalg.solve(a.T @ a, a.T @ b)
            np.minimum(1.0, 1.345 / np.maximum(np.abs(r), 1e-12))
        times.append(time.perf_counter() - start)
    return times


def speed_factors(ops: list[dict]) -> list[float]:
    """Each operation's scale from measured seconds to seconds at the
    reference speed: REFERENCE_LOOP_S over the median of its own calibration
    loops and those of its neighbours in run order.  The median ignores a
    loop that a momentary stall of the host lengthened."""
    k = SMOOTHING_NEIGHBOURS
    return [REFERENCE_LOOP_S
            / statistics.median(t for op in ops[max(0, i - k):i + k + 1]
                                for t in op["calibration"])
            for i in range(len(ops))]


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as handle:
            return [float(v) for v in handle.read().split()[:3]]
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "robroc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "openblas_configuration": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        return {"name": None}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def import_cli():
    """Import robroc.cli from this checkout's src/."""
    if not (SRC / "robroc" / "cli.py").is_file():
        raise StartError(f"no robroc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import robroc.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "robroc":
        raise StartError(f"imported robroc from {cli.__file__}, not from {SRC}")
    return cli


def fresh_import_seconds() -> dict:
    """Time `import robroc.cli` in a new interpreter, as a user pays it, with
    the calibration loops on either side."""
    calibration = calibration_loops()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    calibration += calibration_loops()
    if proc.returncode != 0:
        raise StartError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return {"s": float(proc.stdout.strip().splitlines()[-1]),
            "factor": REFERENCE_LOOP_S / statistics.median(calibration)}


def prepare_inputs(kind: str | None, seeds: list[int], size: str) -> list[dict[str, Path]]:
    """The workload's input CSV for each variant's seed, generated once and
    cached."""
    if kind is None:
        return [{} for _ in seeds]
    scn, frac, n_nd, n_d = DATASETS[size][kind]
    paths = [WORK / "inputs" / f"{kind}-{size}-seed{seed}.csv" for seed in seeds]
    missing = [f"{seed}={path}" for seed, path in zip(seeds, paths) if not path.is_file()]
    if missing:
        paths[0].parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, str(BENCH / "inputs.py"), scn, str(frac),
                               str(n_nd), str(n_d), *missing],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0 or not all(path.is_file() for path in paths):
            raise StartError(f"input generation failed: {proc.stderr.strip()[-500:]}")
    return [{kind: path} for path in paths]


class OperationFailed(Exception):
    """A CLI call exited with a non-zero code."""


def cli_caller(cli):
    def call(argv: list[str]) -> None:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"`{argv[0]}` exited {code}: {err.getvalue().strip()[-300:]}")
    return call


def run_operation(workload, ctx: Context, call, check_reference: bool) -> dict:
    """One timed operation, calibrated on both sides, plus its (untimed)
    output checks."""
    started = time.perf_counter()
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.notes.clear()
    error = None
    cal_before = calibration_loops()
    cpu0 = time.process_time()
    t0 = time.perf_counter_ns()
    try:
        workload.operation(ctx, call)
    except (OperationFailed, CheckFailed) as exc:
        error = str(exc)
    except Exception:  # a crash inside the CLI counts as a failed operation
        error = traceback.format_exc(limit=5)
    wall_ns = time.perf_counter_ns() - t0
    cpu_s = time.process_time() - cpu0
    calibration = cal_before + calibration_loops()
    values = None
    if error is None:
        try:
            values = workload.check(ctx)
            if check_reference:
                compare_reference(workload.name, ctx.variant, values)
        except CheckFailed as exc:
            error = f"check: {exc}"
    return {"wall_ns": wall_ns, "cpu_s": cpu_s, "calibration": calibration, "error": error,
            "values": values, "variant": ctx.variant, "notes": dict(ctx.notes),
            "elapsed_s": time.perf_counter() - started}


def end_to_end_metrics(workload, size, setup, ops) -> tuple[dict, dict]:
    """The reported metrics, with times at the reference speed, and the same
    medians in measured seconds.  ops are in run order."""
    for op, factor in zip(ops, speed_factors(ops)):
        op["factor"] = factor
    timed = [op for op in ops if op["timed"]]
    units = workload.units(size)
    attempted = len(ops)
    failed = sum(op["error"] is not None for op in ops)
    measured = {
        "setup_s": statistics.median(s["s"] for s in setup),
        "wall_s": statistics.median(op["wall_ns"] / 1e9 for op in timed),
        "cpu_s": statistics.median(op["cpu_s"] for op in timed),
    }
    measured["units_per_s"] = units / measured["wall_s"]
    walls = [op["wall_ns"] / 1e9 * op["factor"] for op in timed]
    metrics = {
        "setup_s": statistics.median(s["s"] * s["factor"] for s in setup),
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median([units / w for w in walls]),
        "cpu_s": statistics.median([op["cpu_s"] * op["factor"] for op in timed]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, measured


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    n = len(traced)

    def per_op(count):
        return count / n

    def seconds(ns):
        return ns / 1e9 / n

    c = tracer.counts
    huber_self = tracer.layer_self_ns["huber"] / 1e9
    metrics = {
        "huber.fits": per_op(c["huber.fits"]),
        "huber.iterations": per_op(c["huber.iterations"]),
        "huber.self_s": huber_self / n,
        "huber.s_per_iteration": huber_self / c["huber.iterations"] if c["huber.iterations"] else 0.0,
        "huber.nonconverged": per_op(c["huber.nonconverged"]),
        "huber.failed": per_op(c["huber.failed"]),
        "huber.computed_gflop": per_op(c["huber.computed_flop"]) / 1e9,
        "splines.calls": per_op(tracer.layer_calls["splines"]),
        "splines.rows": per_op(c["splines.rows"]),
        "roc.points": per_op(c["roc.points"]),
        "wecdf.builds": per_op(c["wecdf.builds"]),
        "wecdf.evals": per_op(c["wecdf.evals"]),
        "bootstrap.replicates": per_op(c["bootstrap.replicates"]),
        "bootstrap.replicates_failed": per_op(c["bootstrap.replicates_failed"]),
        "model_select.candidates": per_op(c["model_select.candidates"]),
        "model_select.candidates_failed": per_op(c["model_select.candidates_failed"]),
        "simulate.replicates": per_op(c["simulate.replicates"]),
        "simulate.fits_failed": per_op(c["simulate.fits_failed"]),
        "simulate.nan_points": per_op(c["simulate.nan_points"]),
        "io.read_csv.s": seconds(tracer.functions.get("io.read_csv", (0, 0))[1]),
        "io.read_csv.rows": per_op(c["io.read_csv.rows"]),
        "io.write_table.s": seconds(tracer.functions.get("io.write_table", (0, 0))[1]),
        "io.write_table.rows": per_op(c["io.write_table.rows"]),
        "io.bytes_written": per_op(c["io.bytes_written"]),
        "trace.overhead_frac": (statistics.median([op["wall_ns"] for op in traced])
                                / statistics.median([op["wall_ns"] for op in untraced]) - 1.0),
        "trace.unattributed_s": seconds(sum(op["unattributed_ns"] for op in traced)),
    }
    for layer in ("splines", "roc", "wecdf", "bootstrap", "model_select", "simulate",
                  "io", "cli"):
        metrics[f"{layer}.self_s"] = seconds(tracer.layer_self_ns[layer])
    return {name: metrics[name] for name in PER_LAYER}


def trace_summary(tracer: Tracer, traced) -> dict:
    n = len(traced)
    layers = {layer: {"calls_per_op": tracer.layer_calls[layer] / n,
                      "self_s_per_op": tracer.layer_self_ns[layer] / 1e9 / n}
              for layer in LAYERS}
    functions = {name: {"calls_per_op": calls / n,
                        "inclusive_ms_per_call": incl / 1e6 / calls,
                        "self_ms_per_call": own / 1e6 / calls}
                 for name, (calls, incl, own) in sorted(tracer.functions.items())}
    dominant = max(LAYERS, key=lambda layer: tracer.layer_self_ns[layer])
    return {"layers": layers, "functions": functions, "dominant_layer": dominant}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's outputs as the default-seed reference")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    full_default = args.size == "full" and args.seed == DEFAULT_SEED
    if args.update_reference and not full_default:
        parser.error("--update-reference needs --size full and the default seed")

    load_before = loadavg()
    try:
        cli = import_cli()
        setup = ([] if args.trace else
                 [fresh_import_seconds() for _ in range(SETUP_SAMPLES[args.size])])
        variants = workload.variants(args.size)
        inputs = prepare_inputs(workload.data,
                                [variant_seed(args.seed, v) for v in range(variants)],
                                args.size)
        env = environment()
    except (StartError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    ctx = Context(seed=args.seed, size=args.size, inputs=inputs[0],
                  out=WORK / "out" / workload.name)
    call = cli_caller(cli)
    check_ref = full_default and not args.update_reference
    ops = []  # every operation, in run order

    def run_variant(variant: int, timed: bool = True) -> dict:
        ctx.variant, ctx.inputs = variant, inputs[variant]
        op = run_operation(workload, ctx, call, check_ref)
        op["timed"] = timed
        ops.append(op)
        return op

    run_variant(0, timed=False)  # warm-up
    tracer = Tracer() if args.trace else None
    untraced, traced, trace_errors = [], [], []
    deadline = time.perf_counter() + args.seconds

    def fits_before_deadline() -> bool:
        # start an operation only if one of median length (checks and
        # calibration included) ends in time, so a run lasts --seconds and
        # never a whole operation more
        typical = statistics.median(op["elapsed_s"] for op in ops)
        return time.perf_counter() + typical <= deadline

    while not untraced or (tracer is not None and not traced) or fits_before_deadline():
        variant = (1 + len(untraced) + len(traced)) % variants
        if tracer is not None and len(untraced) > len(traced):
            self_before, root_before = sum(tracer.layer_self_ns.values()), tracer.root_ns
            tracer.install()
            try:
                op = run_variant(variant)
            finally:
                tracer.uninstall()
            root_ns = tracer.root_ns - root_before
            self_ns = sum(tracer.layer_self_ns.values()) - self_before
            op["traced"] = True
            op["unattributed_ns"] = op["wall_ns"] - root_ns
            # self times telescope to the root spans; checked exactly in ns
            if self_ns + op["unattributed_ns"] != op["wall_ns"]:
                trace_errors.append(f"self times {self_ns} ns + unattributed "
                                    f"{op['unattributed_ns']} ns != wall {op['wall_ns']} ns")
            traced.append(op)
        else:
            untraced.append(run_variant(variant))
    # a short run still runs every variant once, untimed, so that every
    # reference comparison and study's pooled check are made
    for variant in sorted(set(range(variants)) - {op["variant"] for op in ops}):
        run_variant(variant, timed=False)
    if args.update_reference and all(op["error"] is None for op in ops):
        first = {}
        for op in ops:
            first.setdefault(op["variant"], op["values"])
        write_reference(workload.name, first)

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "environment": env, "loadavg_before": load_before,
              "setup_samples_s": setup}
    if tracer is None:
        metrics, measured = end_to_end_metrics(workload, args.size, setup, ops)
        units = END_TO_END
        record["measured"] = measured
    else:
        metrics = per_layer_metrics(tracer, traced, untraced)
        units = PER_LAYER
        missing = [layer for layer in workload.layers if tracer.layer_calls[layer] == 0]
        if missing:
            trace_errors.append(f"no calls recorded into {', '.join(missing)}")
        record["trace_summary"] = trace_summary(tracer, traced)
        spans_path = WORK / "trace" / f"{workload.name}-{args.size}-seed{args.seed}.spans.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["trace_errors"] = trace_errors

    failed = sum(op["error"] is not None for op in ops)
    correct = failed == 0 and not trace_errors
    record["loadavg_after"] = loadavg()
    record["operations"] = [{"wall_s": op["wall_ns"] / 1e9, "cpu_s": op["cpu_s"],
                             "calibration_s": statistics.median(op["calibration"]),
                             "speed_factor": op.get("factor"), "variant": op["variant"],
                             "timed": op["timed"], "traced": op.get("traced", False),
                             "error": op["error"],
                             "notes": op["notes"]} for op in ops]
    record["metrics"] = metrics
    record_path = (WORK / "results"
                   / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for message in sorted({op["error"] for op in ops if op["error"]} | set(trace_errors)):
        print(f"FAILED: {message}", file=sys.stderr)
    print("environment " + json.dumps({**env, "loadavg_before": load_before,
                                       "loadavg_after": record["loadavg_after"]}))
    print(f"record {record_path.relative_to(ROOT)}")
    if "measured" in record:
        print("measured " + json.dumps(record["measured"]))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
