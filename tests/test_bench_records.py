"""The committed benchmark records at the repository root, ``BENCH_<n>.json``.

Each file holds the ``perfbench/_out`` records behind one claimed gain:
for every workload run, the parent's and the change's record of each pair
of runs, and the medians over the pairs that the claim quotes. A file may
add ``traced``: ``--trace 1`` pairs of one workload, and the per-layer
metrics that dropped, against the calibration, in each of them. These
tests check the shape of every such file and that each stated number
follows from its records.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
TRACED = [path for path in FILES if "traced" in json.loads(path.read_text())]
SIDES = ("parent", "change")
PROVENANCE = {"seed", "nproc", "python", "numpy", "scipy", "blas", "thread_pin", "commit", "source_sha256"}


def test_at_least_one_record_file_is_committed():
    assert FILES


@pytest.fixture(params=FILES, ids=lambda path: path.name)
def bench(request):
    return json.loads(request.param.read_text())


def better(value, than, direction):
    return value < than if direction == "lower" else value > than


def assert_run_alike(bench, pair, workload, trace):
    assert pair["first"] in SIDES
    for side in SIDES:
        record = pair[side]
        assert record["workload"] == workload and record["trace"] == trace
        assert set(record["provenance"]) >= PROVENANCE
        assert record["provenance"]["seed"] == pair["seed"]
        assert record["provenance"]["source_sha256"] == bench["sides"][side]["source_sha256"]
        assert record["correct"] and record["failed"] == 0
        assert record["samples"]
        for metric in record["metrics"].values():
            assert set(metric) == {"value", "unit"}
    # both sides ran the same command on the same machine
    parent, change = pair["parent"], pair["change"]
    assert parent["argv"] == change["argv"]
    assert parent["metrics"].keys() == change["metrics"].keys()
    assert parent["provenance"]["nproc"] == change["provenance"]["nproc"]


def test_every_pair_holds_both_sides_run_alike(bench):
    assert set(bench) >= {"claim", "command", "sides", "workloads"}
    assert set(bench["sides"]) == set(SIDES)
    for name, workload in bench["workloads"].items():
        assert workload["pairs"]
        for pair in workload["pairs"]:
            assert_run_alike(bench, pair, name, trace=False)
    assert bench["sides"]["parent"]["source_sha256"] != bench["sides"]["change"]["source_sha256"]


@pytest.mark.parametrize("path", TRACED, ids=lambda path: path.name)
def test_traced_pairs_show_the_layers_they_name(path):
    # a record may add --trace 1 pairs; each layer it says dropped is lower in every one of them.
    # Layer times are raw seconds and the host's speed swings, so each is taken relative to the
    # calibration time of its run's traced invocations, as wall_rel takes the wall time
    bench = json.loads(path.read_text())
    traced = bench["traced"]
    assert traced["pairs"]

    def relative(record, metric):
        calib = statistics.median(s["calib_s"] for s in record["samples"] if s["traced"])
        return record["metrics"][metric]["value"] / calib

    for pair in traced["pairs"]:
        assert_run_alike(bench, pair, traced["workload"], trace=True)
        for metric in traced["dropped"]:
            assert relative(pair["change"], metric) < relative(pair["parent"], metric), metric


def test_stated_medians_follow_from_the_pairs(bench):
    for workload in bench["workloads"].values():
        for side in SIDES:
            stated = workload["medians"][side]
            assert stated.keys() == workload["pairs"][0][side]["metrics"].keys()
            for metric, value in stated.items():
                assert value == statistics.median(p[side]["metrics"][metric]["value"] for p in workload["pairs"])


def test_claim_follows_from_its_workload(bench):
    claim = bench["claim"]
    workload = bench["workloads"][claim["workload"]]
    metric, direction = claim["metric"], claim["better"]
    for side in SIDES:
        assert claim[f"{side}_median"] == workload["medians"][side][metric]
    pairs = [(p["parent"]["metrics"][metric]["value"], p["change"]["metrics"][metric]["value"])
             for p in workload["pairs"]]
    assert claim["pairs"] == len(pairs)
    assert claim["change_better_pairs"] == sum(better(c, p, direction) for p, c in pairs)
    assert better(claim["change_median"], claim["parent_median"], direction)
