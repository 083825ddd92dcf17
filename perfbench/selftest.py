"""Tests for the benchmark itself, on tiny sizes of every workload.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the library's own suite, which
collects ``test_*.py``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Simulate  # noqa: E402


def tiny(name):
    w = WORKLOADS[name]
    if isinstance(w, Simulate):
        # Far too few paths for the reference MSE, so that check is dropped.
        return dataclasses.replace(w, paths=6, steps=20, mse_ref={})
    return w


@pytest.fixture(autouse=True)
def _out_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def _run(workload, trace=False):
    return run.run(workload, seed=3, seconds=0.0, trace=trace, setup_repeats=1, min_samples=1)


def _report(record, capsys):
    run.report(record)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(name, capsys):
    record = _run(tiny(name))
    lines, result = _report(record, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    for metric, unit in run.E2E_UNITS.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert any(ln.startswith(f"metric {metric} = ") and ln.endswith(f" {unit}") for ln in lines)
    assert any(ln.startswith("ops_failed_frac = 0 ") for ln in lines)


@pytest.mark.parametrize("workload, tolerance", [
    (dataclasses.replace(tiny("fig1"), mse_ref={"ekf": 50.0}), None),
    (tiny("quad_narrow"), 0.0),
    (dataclasses.replace(WORKLOADS["validate"], checks=26), None),
], ids=["fig1-mse", "quad_narrow-agreement", "validate-count"])
def test_wrong_expected_value_fails_every_attempt(workload, tolerance, capsys, monkeypatch):
    if tolerance is not None:
        # gh and adf never agree exactly, so a zero tolerance must fail.
        monkeypatch.setattr(workloads, "AGREE_REL_TOL", tolerance)
    record = _run(workload)
    lines, result = _report(record, capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(ln.startswith("ops_failed_frac = 1 ") for ln in lines)


def test_traced_run_emits_every_named_span():
    names, counts = set(), {}
    for name in sorted(WORKLOADS):
        record = _run(tiny(name), trace=True)
        assert record["correct"], record["problems"]
        names |= {s[1] for s in record["spans"]}
        for metric, m in record["metrics"].items():
            counts[metric] = max(counts.get(metric, 0.0), m["value"])
    timed = {n[:-2] for n in spans.LAYER_UNITS if n.endswith(".s")}
    assert timed - names == set()
    assert {"cli.main", "harness.run_experiment"} <= names
    assert set(counts) == set(spans.LAYER_UNITS)
    for metric, unit in spans.LAYER_UNITS.items():
        if metric != "trace.overhead_s":
            assert counts[metric] > 0, metric
    from kbstab import harness
    from kbstab.filters import run_continuous_ensemble
    assert harness.run_continuous_ensemble is run_continuous_ensemble
