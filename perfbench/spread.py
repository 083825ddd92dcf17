"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload fig1 ...] [--trace 0]
                                [--first-seed 1] [--write perfbench/baseline.json]

Each run is ``python3 perfbench/run.py`` with the next seed and the
``run_seconds`` of ``BENCHMARK.json``. For every metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, against the metric's bound. Wall-time
samples of all runs are pooled for the tail percentile. ``--write`` stores
the summary, e.g. as the baseline that later changes compare against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workload or names:
        values, walls, correct = {}, [], True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"] and result["failed"] == 0
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            record = json.loads((HERE / "_out" / f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            walls += [s["wall_s"] for s in record["samples"] if not s["traced"]]
            summary.setdefault("provenance", record["provenance"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"correct": correct, "metrics": {k: summarize(v) for k, v in values.items()},
                 "pooled_wall": {"samples": len(walls), "median": statistics.median(walls)}}
        pooled_tail = tail(walls)
        if pooled_tail is not None:
            entry["pooled_wall"]["percentile"], entry["pooled_wall"]["value"] = pooled_tail
        summary["workloads"][name] = entry
        print(f"== {name}: correct={correct}, pooled wall {entry['pooled_wall']}")
        for metric, s in entry["metrics"].items():
            bound = bounds.get(metric)
            if bound is None or s["spread"] is None:
                flag = ""
            elif s["spread"] < bound / 3:
                flag = f" bound {bound} ok"
            else:
                flag = f" bound {bound} " + ("above a third of the bound" if s["spread"] < bound
                                             else "WIDER THAN THE BOUND")
            print(f"   {metric:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}{flag}")
    summary["provenance"].pop("seed", None)
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
