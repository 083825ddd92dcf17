"""The benchmark's span tracer must still find and drive every call site it wraps.

``perfbench/spans.py`` swaps named attributes of the ``cli``, ``harness``,
``filters`` and ``models`` modules while it traces a run. Building its
wrapper table looks every one of them up, and one tiny traced invocation
calls the wrappers with the arguments the library passes, so a refactor
that drops, renames or re-signatures a traced call site fails here and not
only in the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_exists():
    spans = load_spans()
    table, orig = spans._wrappers(spans.Tracer())
    for module, attr, wrapper in table:
        assert callable(orig[attr]) and callable(wrapper), f"{module.__name__}.{attr}"


def test_traced_invocation_reports_layers(tmp_path):
    from kbstab.cli import main

    spans = load_spans()
    tracer = spans.Tracer()
    argv = ["simulate", "--model", "contractive3d", "--filter", "ekf", "--filter", "ukf",
            "--trajectories", "4", "--horizon", "0.1", "--workers", "2", "--out", str(tmp_path)]
    with spans.traced(tracer):
        assert tracer.invoke("tiny", main, argv) == 0
    metrics = tracer.layer_metrics("tiny")
    for name in ("filters.run_continuous_ensemble.ekf.s", "filters.run_continuous_ensemble.ukf.s",
                 "models.simulate_paths.s"):
        assert metrics[name] > 0, name
