"""The committed benchmark records at the repository root, ``BENCH_<n>.json``.

Each file holds the ``perfbench/_out`` records behind one claimed gain:
for every workload run, the parent's and the change's record of each pair
of runs, and the medians over the pairs that the claim quotes. These tests
check the shape of every such file and that each stated number follows
from its records.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
PROVENANCE = {"seed", "nproc", "python", "numpy", "scipy", "blas", "thread_pin", "commit", "source_sha256"}


def test_at_least_one_record_file_is_committed():
    assert FILES


@pytest.fixture(params=FILES, ids=lambda path: path.name)
def bench(request):
    return json.loads(request.param.read_text())


def better(value, than, direction):
    return value < than if direction == "lower" else value > than


def test_every_pair_holds_both_sides_run_alike(bench):
    assert set(bench) >= {"claim", "command", "sides", "workloads"}
    assert set(bench["sides"]) == set(SIDES)
    for name, workload in bench["workloads"].items():
        assert workload["pairs"]
        for pair in workload["pairs"]:
            assert pair["first"] in SIDES
            for side in SIDES:
                record = pair[side]
                assert record["workload"] == name and not record["trace"]
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
    assert bench["sides"]["parent"]["source_sha256"] != bench["sides"]["change"]["source_sha256"]


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
