"""Span tracing from the benchmark's side of kbstab's module boundaries.

While a traced invocation runs, :func:`traced` swaps the public functions
that ``cli``, ``harness``, ``filters`` and ``models`` import from their
sibling modules for wrappers that record a span or a count, and restores
them afterwards. Nothing inside ``src/kbstab`` changes, and the untraced
invocations of the same run call the original functions.

A span is ``(id, name, start, end, parent, thread, invocation)``. Spans
stay in memory until the run ends. A span opened on a thread that has no
open span of its own (a harness worker thread) takes as parent the
innermost open span of the invoking thread, which is the span that caused
it.
"""

import contextlib
import itertools
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

FILTER_KINDS = ("ekf", "ukf", "gh", "adf")

# Metric name -> unit, in the order they are printed.
LAYER_UNITS = {
    **{f"filters.run_continuous_ensemble.{k}.s": "s" for k in FILTER_KINDS},
    "filters.self_s": "s",
    "functionals.eval_mean_batch.s": "s",
    "functionals.eval_riccati_cont_batch.s": "s",
    "functionals.field_points": "count",
    "functionals.jac_points": "count",
    "models.simulate_paths.s": "s",
    "quadrature.matrix_sqrt.calls": "count",
    "stability.contractive_certificate.s": "s",
    "stability.integrated_velocity_certificate.s": "s",
    "stability.continuous_mse_bound.calls": "count",
    "harness.self_s": "s",
    "harness.export_result.s": "s",
    "harness.export_bytes": "bytes",
    "harness.parallel_efficiency": "ratio",
    "cli.validation_suite.s": "s",
    "matrix_measures.log_norm_mu.s": "s",
    "matrix_measures.log_norm_nu.s": "s",
    "functionals.check_assumption_continuous.s": "s",
    "functionals.check_assumption_discrete.s": "s",
    "quadrature.check_degree_two_exactness.s": "s",
    "stability.gronwall_continuous.calls": "count",
    "trace.overhead_s": "s",
}

# A metric "<span name>.s" is the summed duration of those spans; a "count"
# or "bytes" metric is a counter of the same name.
_TIMED = {name[:-2] for name in LAYER_UNITS if name.endswith(".s")}
_COUNTED = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]
_ENSEMBLE = "filters.run_continuous_ensemble."
_CHUNK_WORK = ("models.simulate_paths", _ENSEMBLE)


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.workers = {}
        self.invocation = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), self.invocation))

    def add(self, name, n=1):
        with self._lock:
            self.counts[self.invocation][name] += n

    def counted(self, fn, name):
        """Wrap a vectorized field so every evaluated point is counted."""

        def wrapped(z):
            shape = getattr(z, "shape", ())
            self.add(name, math.prod(shape[:-1]))
            return fn(z)

        return wrapped

    def invoke(self, invocation, fn, *args):
        """Run one CLI invocation as the root span ``cli.main``."""
        self.invocation = invocation
        self._main_stack = self._stack()
        try:
            return self.call("cli.main", fn, *args)
        finally:
            self.invocation = None

    def layer_metrics(self, invocation):
        """Per-layer metrics of one traced invocation."""
        spans = [s for s in self.spans if s[6] == invocation]
        children = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)
        out = {name: 0.0 for name in LAYER_UNITS}
        for s in spans:
            if s[1] in _TIMED:
                out[s[1] + ".s"] += s[3] - s[2]
        for name in _COUNTED:
            out[name] = float(self.counts[invocation].get(name, 0))
        busy = capacity = 0.0
        for s in spans:
            if s[1].startswith(_ENSEMBLE):
                out["filters.self_s"] += _self_time(s, children[s[0]])
            elif s[1] == "harness.run_experiment":
                out["harness.self_s"] += _self_time(s, children[s[0]])
                busy += sum(c[3] - c[2] for c in children[s[0]] if c[1].startswith(_CHUNK_WORK))
                capacity += self.workers[invocation] * (s[3] - s[2])
        if capacity:
            out["harness.parallel_efficiency"] = busy / capacity
        return out


def _self_time(span, children):
    """Duration of ``span`` minus the part of it its children cover."""
    covered, reach = 0.0, span[2]
    for _, _, start, end, *_ in sorted(children, key=lambda c: c[2]):
        start, end = max(start, reach), min(end, span[3])
        if end > start:
            covered += end - start
            reach = end
    return (span[3] - span[2]) - covered


def _wrappers(tr):
    """The traced call sites as (module, attribute, wrapper), and the originals."""
    from kbstab import cli, filters, harness, models

    kinds = {}

    def make_filter_config(kind, model, *args, **kwargs):
        config = orig["make_filter_config"](kind, model, *args, **kwargs)
        kinds[id(config)] = (kind, config)
        return config

    def run_continuous_ensemble(model, config, *args, **kwargs):
        kind = kinds.get(id(config), ("other",))[0]
        return tr.call(_ENSEMBLE + kind, orig["run_continuous_ensemble"], model, config, *args, **kwargs)

    def eval_mean_batch(F, g, x, P):
        return tr.call("functionals.eval_mean_batch", orig["eval_mean_batch"],
                       F, tr.counted(g, "functionals.field_points"), x, P)

    def eval_riccati_cont_batch(F, g, x, P, jac=None):
        if jac is not None:
            jac = tr.counted(jac, "functionals.jac_points")
        return tr.call("functionals.eval_riccati_cont_batch", orig["eval_riccati_cont_batch"],
                       F, tr.counted(g, "functionals.field_points"), x, P, jac=jac)

    def run_experiment(spec, *args, **kwargs):
        tr.workers[tr.invocation] = spec.workers
        return tr.call("harness.run_experiment", orig["run_experiment"], spec, *args, **kwargs)

    def export_result(result, directory):
        paths = tr.call("harness.export_result", orig["export_result"], result, directory)
        tr.add("harness.export_bytes", sum(Path(p).stat().st_size for p in paths))
        return paths

    def spanned(name, key):
        def wrapper(*args, **kwargs):
            return tr.call(name, orig[key], *args, **kwargs)
        return wrapper

    def counting(name, key):
        def wrapper(*args, **kwargs):
            tr.add(name)
            return orig[key](*args, **kwargs)
        return wrapper

    table = [
        (harness, "make_filter_config", make_filter_config),
        (harness, "run_continuous_ensemble", run_continuous_ensemble),
        (harness, "simulate_paths", spanned("models.simulate_paths", "simulate_paths")),
        (harness, "contractive_certificate",
         spanned("stability.contractive_certificate", "contractive_certificate")),
        (harness, "integrated_velocity_certificate",
         spanned("stability.integrated_velocity_certificate", "integrated_velocity_certificate")),
        (harness, "continuous_mse_bound",
         counting("stability.continuous_mse_bound.calls", "continuous_mse_bound")),
        (filters, "eval_mean_batch", eval_mean_batch),
        (filters, "eval_riccati_cont_batch", eval_riccati_cont_batch),
        (models, "matrix_sqrt", counting("quadrature.matrix_sqrt.calls", "matrix_sqrt")),
        (cli, "run_experiment", run_experiment),
        (cli, "export_result", export_result),
        (cli, "validation_suite", spanned("cli.validation_suite", "validation_suite")),
        (cli, "log_norm_mu", spanned("matrix_measures.log_norm_mu", "log_norm_mu")),
        (cli, "log_norm_nu", spanned("matrix_measures.log_norm_nu", "log_norm_nu")),
        (cli, "check_assumption_continuous",
         spanned("functionals.check_assumption_continuous", "check_assumption_continuous")),
        (cli, "check_assumption_discrete",
         spanned("functionals.check_assumption_discrete", "check_assumption_discrete")),
        (cli, "check_degree_two_exactness",
         spanned("quadrature.check_degree_two_exactness", "check_degree_two_exactness")),
        (cli, "gronwall_continuous",
         counting("stability.gronwall_continuous.calls", "gronwall_continuous")),
    ]
    orig = {attr: getattr(module, attr) for module, attr, _ in table}
    return table, orig


@contextlib.contextmanager
def traced(tr):
    """Install the tracing wrappers for the duration of the block."""
    table, orig = _wrappers(tr)
    try:
        for module, attr, wrapper in table:
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, _ in table:
            setattr(module, attr, orig[attr])
