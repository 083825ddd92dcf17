"""The benchmark's span tracer must still find every call site it wraps.

``perfbench/spans.py`` swaps named attributes of the ``cli``, ``harness``,
``filters`` and ``models`` modules while it traces a run. Building its
wrapper table looks every one of them up, so a refactor that drops or
renames a traced call site fails here and not only in the benchmark's own
tests.
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
