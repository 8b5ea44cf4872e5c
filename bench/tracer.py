"""Per-module tracing of robroc from outside, by wrapping its public functions.

Each public function and public method defined in a traced module is
replaced, at every module-level name that binds it (`from .huber import
irls_fit` binds irls_fit in roc, bootstrap and model_select as well as in
huber), by a wrapper that records a span.  A call from a module into
itself records nothing, so spans sit only at module boundaries and a
module's self time is the time of its spans minus the time of the spans
they caused.  Spans (name, start, end, parent) are kept in memory and
written out by the caller when the run ends.  `data` and `errors` only
validate inputs and are not traced: their time counts to their caller.

Probes read counts off arguments and results at the same boundaries.
Nothing under src/ is changed; uninstall() restores every patched name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "io", "splines", "huber", "wecdf", "roc", "model_select",
          "bootstrap", "simulate")
POINT_FUNCTIONS = {"auc_closed_form", "auc_simpson", "roc_values", "roc_curve",
                   "youden_index", "adjusted_values", "predict_mean"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _probe_irls(counts, args, kwargs, result, exc):
    counts["huber.fits"] += 1
    if exc is not None:
        counts["huber.failed"] += 1
        return
    n, q = _arg(args, kwargs, 0, "Z").shape
    counts["huber.iterations"] += result.iterations
    counts["huber.nonconverged"] += not result.converged
    # QR of an n x q matrix costs 2nq^2 - 2q^3/3 flops; one per IRLS step
    # plus the least-squares start
    counts["huber.computed_flop"] += (result.iterations + 1) * (2 * n * q * q - 2 * q ** 3 / 3)


def _probe_splines(counts, args, kwargs, result, exc):
    shape = getattr(result, "shape", None)
    if shape:
        counts["splines.rows"] += shape[0] if len(shape) == 2 else 1


def _probe_bootstrap(counts, args, kwargs, result, exc):
    if exc is None:
        summary = result[3] if isinstance(result, tuple) else result
        counts["bootstrap.replicates"] += summary.n_replicates
        counts["bootstrap.replicates_failed"] += summary.n_failed


def _probe_select(counts, args, kwargs, result, exc):
    if exc is None:
        counts["model_select.candidates"] += len(result.candidates)
        counts["model_select.candidates_failed"] += sum(
            c.error is not None for c in result.candidates)


def _probe_study(counts, args, kwargs, result, exc):
    if exc is None:
        counts["simulate.replicates"] += result.n_replicates
        for summary in result.estimators.values():
            counts["simulate.fits_failed"] += summary.n_failed_fits
            counts["simulate.nan_points"] += int(
                result.n_replicates * summary.n_ok.size - summary.n_ok.sum())


def _probe_read_csv(counts, args, kwargs, result, exc):
    if exc is None:
        counts["io.read_csv.rows"] += result.n + result.n_skipped


def _probe_write(counts, args, kwargs, result, exc):
    path = _arg(args, kwargs, 0, "path")
    if exc is None and os.path.isfile(path):
        counts["io.bytes_written"] += os.path.getsize(path)


def _probe_write_table(counts, args, kwargs, result, exc):
    _probe_write(counts, args, kwargs, result, exc)
    rows = _arg(args, kwargs, 2, "rows")
    if exc is None and hasattr(rows, "__len__"):
        counts["io.write_table.rows"] += len(rows)


def _tally(key: str):
    def probe(counts, args, kwargs, result, exc):
        counts[key] += 1
    return probe


PROBES = {
    "huber.irls_fit": _probe_irls,
    "wecdf.WeightedEcdf.from_residuals": _tally("wecdf.builds"),
    "wecdf.WeightedEcdf.cdf": _tally("wecdf.evals"),
    "wecdf.WeightedEcdf.quantile": _tally("wecdf.evals"),
    "bootstrap.residual_bootstrap": _probe_bootstrap,
    "bootstrap.unconditional_auc_bootstrap": _probe_bootstrap,
    "model_select.select_knots": _probe_select,
    "simulate.run_study": _probe_study,
    "io.read_csv": _probe_read_csv,
    "io.write_table": _probe_write_table,
    "io.write_manifest": _probe_write,
}


def _probe_for(layer: str, qualname: str):
    if qualname in PROBES:
        return PROBES[qualname]
    if layer == "splines":
        return _probe_splines
    if layer == "roc" and qualname.split(".")[-1] in POINT_FUNCTIONS:
        return _tally("roc.points")
    return None


class Tracer:
    """Span recorder for the robroc modules in LAYERS."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.layer_self_ns: Counter = Counter()
        self.layer_calls: Counter = Counter()
        # qualname -> [calls, inclusive ns, self ns]
        self.functions: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.root_ns = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, qualname: str, fn):
        stack = self._stack
        probe = _probe_for(layer, qualname)

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = stack[-1][2] if stack else -1
            frame = [layer, 0, span_id]  # layer, child ns, id
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(layer, qualname, frame, span_id, parent, start)
                if probe:
                    probe(self.counts, args, kwargs, None, exc)
                raise
            self._close(layer, qualname, frame, span_id, parent, start)
            if probe:
                probe(self.counts, args, kwargs, result, None)
            return result

        return functools.wraps(fn)(traced)

    def _close(self, layer, qualname, frame, span_id, parent, start):
        end = perf_counter_ns()
        duration = end - start
        self._stack.pop()
        self_ns = duration - frame[1]
        self.layer_self_ns[layer] += self_ns
        self.layer_calls[layer] += 1
        stats = self.functions[qualname]
        stats[0] += 1
        stats[1] += duration
        stats[2] += self_ns
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_ns += duration
        self.spans.append((span_id, parent, qualname, start, end))

    def install(self) -> None:
        """Wrap every public function and method of the LAYERS modules and
        rebind every robroc module-level name that refers to one."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"robroc.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "robroc" and not modname.startswith("robroc."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(layer, qualname, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(layer, qualname, raw.__func__)))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")
