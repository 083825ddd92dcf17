"""kbstab benchmark: one workload, run as a closed loop with one client.

    python3 perfbench/run.py --workload fig1 --seed 7 --seconds 24 --trace 0

The benchmark imports ``kbstab`` from ``src/`` of the checkout it sits in and
calls the real CLI entry point, ``kbstab.cli.main``, in-process. The next
invocation starts only when the previous one has returned. After an untimed
warm-up and an untimed invocation under ``tracemalloc`` for the memory
metric, it invokes the workload until ``--seconds`` have passed, with the
set-up samples spread over the same window, checks every invocation's
outputs, and prints each metric by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Invocation times are reported as ratios to a fixed calibration kernel
timed right before and after each invocation, because the shared host's
speed swings too much for raw seconds to be comparable between runs (see
README.md). The raw medians are printed and recorded as well.

With ``--trace 1`` the invocations alternate between untraced and traced;
the traced ones record spans around kbstab's module boundaries (see
``spans.py``), and the tracing overhead is the difference of the two
groups' median wall times.

A record with provenance, every sample and, when traced, every span is
written to ``perfbench/_out/``.
"""

import os

# Pin every native thread pool before numpy loads. The harness's own worker
# threads are then the only parallelism, so no more threads compute at once
# than the workload's --workers, which is at most nproc = 2.
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"

# Import times vary with the page cache and with other load, so set-up is
# measured several times, spread evenly over the timed window, and the median
# reported. Set-up samples take their share of the window, which spreads the
# timed invocations over more of the host's slow and fast phases.
SETUP_REPEATS = 8
MIN_SAMPLES = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_alloc_mb": "MB",
}
CALIBRATION_STEPS = 120

_READY = "import kbstab, kbstab.cli; print(kbstab.__file__, flush=True)"


class BenchError(Exception):
    """The benchmark cannot run here, e.g. because ``src/kbstab`` is missing."""


def import_kbstab():
    """Import kbstab from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import kbstab
        import kbstab.cli
    except ImportError as exc:
        raise BenchError(f"cannot import kbstab from {SRC}: {exc}") from exc
    if not Path(kbstab.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"kbstab was imported from {kbstab.__file__}, not from {SRC}")
    return kbstab.cli


def setup_time():
    """Seconds from the start of a fresh process until ``kbstab`` is imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _READY], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"set-up import failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def provenance(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pin": THREAD_PIN,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def make_calibration(threads):
    """A fixed kernel shaped like kbstab's work: returns a timer for it.

    On one thread, each step runs the many small-array numpy calls of a
    narrow batch's filter step on (24, 3) inputs, then a scalar recurrence
    in pure Python like the Gronwall checks. On more threads, each step runs
    a batched eigendecomposition, a PSD clamp and small einsums on constant
    (250, 3, 3) inputs, then a short stretch of the recurrence; the
    small-array calls hold the interpreter lock, so there they would time
    its hand-offs rather than the host, while the two-worker workload spends
    its time in wide-batch calls that release it. The kernel runs once on
    each of ``threads`` threads at the same time, as the harness runs its
    chunks, so it meets the same interpreter-lock contention. Its time
    follows the host's speed for the kind of work kbstab does, and no change
    to kbstab can move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((250, 3, 3))
    P = a @ np.swapaxes(a, 1, 2)
    x = rng.standard_normal((250, 3))
    narrow = rng.standard_normal((24, 3))
    M = rng.standard_normal((3, 3))

    def recurrence(terms):
        z = 1.0
        for k in range(terms):
            z = z + 1e-3 * (-0.5 * z + 0.1) + 1e-9 * math.exp(-k * 1e-3)

    def narrow_kernel(_):
        for _ in range(CALIBRATION_STEPS):
            for _ in range(12):
                u = np.einsum("bi,ij->bj", narrow @ M, M)
                np.exp(-0.1 * u * u).sum(axis=0)
                np.where(np.isfinite(u), np.clip(u, -1.0, 1.0), 0.0).mean()
            recurrence(1250)

    def wide_kernel(_):
        for _ in range(CALIBRATION_STEPS):
            vals, vecs = np.linalg.eigh(P)
            clamped = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
            y = np.einsum("bij,bj->bi", clamped, x)
            np.where(np.isfinite(y), y, 0.0).sum()
            recurrence(300)

    def calibrate():
        """Wall and process CPU seconds of one pass of the kernel."""
        start, cpu = time.perf_counter(), time.process_time()
        if threads == 1:
            narrow_kernel(0)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(wide_kernel, range(threads)))
        return time.perf_counter() - start, time.process_time() - cpu

    return calibrate


def invoke(cli, argv, tracer, invocation):
    """One CLI call; returns (exit code, stdout, wall seconds, CPU seconds,
    peak bytes the call allocated, or None while ``tracemalloc`` is off)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.invoke(invocation, cli.main, argv)
        except Exception:  # a crash fails the invocation, not the benchmark
            traceback.print_exc()
            code = "crash"
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else None
    if code != 0 and stderr.getvalue():
        print(stderr.getvalue(), file=sys.stderr)
    return code, stdout.getvalue(), wall, cpu, peak


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None.

    Only percentiles at or above the median are reported.
    """
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS, min_samples=MIN_SAMPLES):
    """Run one workload; returns the result record (see module docstring)."""
    from spans import LAYER_UNITS, Tracer, traced

    cli = import_kbstab()
    setup = [setup_time()]
    calibrate = make_calibration(workload.workers)
    out_dir = OUT / workload.name
    argv = workload.argv(seed, out_dir)
    tracer = Tracer() if trace else None
    samples, layers = [], []
    attempted = failed = 0
    problems, digest = [], None

    def once(invocation, with_trace):
        nonlocal attempted, failed, digest
        shutil.rmtree(out_dir, ignore_errors=True)
        if with_trace:
            with traced(tracer):
                code, stdout, wall, cpu, peak = invoke(cli, argv, tracer, invocation)
        else:
            code, stdout, wall, cpu, peak = invoke(cli, argv, None, invocation)
        outcome = workload.check(code, stdout, out_dir)
        if digest is None:
            digest = outcome.digest
        elif outcome.digest != digest:
            outcome.problems.append("outputs differ from the first invocation's")
            outcome.failed = outcome.attempted
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(f"invocation {invocation}: {p}" for p in outcome.problems)
        return wall, cpu, peak

    once(0, with_trace=False)  # warm-up, checked but not timed
    # kbstab's own memory: the peak of what one invocation allocates (Python
    # objects and numpy arrays) beyond what the process already holds. This
    # invocation is checked but not timed, since tracing allocations slows it.
    tracemalloc.start()
    try:
        peak_alloc = once(0, with_trace=False)[2]
    finally:
        tracemalloc.stop()
    deadline = time.perf_counter() + seconds
    calib_before = calibrate()
    invocation = 1
    while True:
        if len(setup) < setup_repeats and seconds - (deadline - time.perf_counter()) >= \
                len(setup) * seconds / setup_repeats:
            setup.append(setup_time())
            calib_before = calibrate()
        counts = [sum(s["traced"] == t for s in samples) for t in ((False, True) if trace else (False,))]
        if time.perf_counter() >= deadline and min(counts) >= min_samples:
            break
        with_trace = trace and invocation % 2 == 0
        wall, cpu, _ = once(invocation, with_trace)
        calib_after = calibrate()
        calib_wall, calib_cpu = (0.5 * (a + b) for a, b in zip(calib_before, calib_after))
        calib_before = calib_after
        samples.append({"invocation": invocation, "traced": with_trace, "wall_s": wall,
                        "cpu_s": cpu, "calib_s": calib_wall, "calib_cpu_s": calib_cpu})
        if with_trace:
            layers.append(tracer.layer_metrics(invocation))
        invocation += 1
    while len(setup) < setup_repeats:
        setup.append(setup_time())

    plain = [s for s in samples if not s["traced"]]
    walls = [s["wall_s"] for s in plain]
    raw = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s["cpu_s"] for s in plain),
        "calib_s": statistics.median(s["calib_s"] for s in plain),
    }
    raw[workload.work_unit.replace(" ", "_") + "_per_s"] = workload.work / raw["wall_s"]
    if trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in LAYER_UNITS}
        traced_walls = [s["wall_s"] for s in samples if s["traced"]]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - raw["wall_s"]
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_rel": statistics.median(s["wall_s"] / s["calib_s"] for s in plain),
            "cpu_rel": statistics.median(s["cpu_s"] / s["calib_cpu_s"] for s in plain),
            "peak_alloc_mb": peak_alloc / 1e6,
        }
        units = E2E_UNITS
    return {
        "workload": workload.name,
        "argv": argv,
        "trace": trace,
        "provenance": provenance(seed),
        "setup_s": setup,
        "samples": samples,
        "raw": raw,
        "wall_tail": tail(walls),
        "work_per_invocation": {"count": workload.work, "unit": workload.work_unit},
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "output_sha256": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "spans": tracer.spans if trace else [],
    }


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    prov = record["provenance"]
    print(f"workload {record['workload']}: kbstab {' '.join(record['argv'])}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    walls = [s["wall_s"] for s in record["samples"] if not s["traced"]]
    print(f"samples {len(walls)} untraced{', alternating with traced' if record['trace'] else ''}"
          ", after 1 untimed warm-up")
    for name, value in record["raw"].items():
        unit = "1/s" if name.endswith("_per_s") else "s"
        print(f"raw {name} = {value:.6g} {unit} (median)")
    tail_ = record["wall_tail"]
    print("raw wall_s tail " + ("n/a (fewer than 20 samples)" if tail_ is None
                                else f"p{tail_[0]:.1f} = {tail_[1]:.6g} s over {len(walls)} samples"))
    print(f"raw peak_rss_mb = {record['peak_rss_mb']:.6g} MB (whole process, imports included)")
    work = record["work_per_invocation"]
    print(f"work per invocation {work['count']} {work['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"ops_failed_frac = {frac:.6g} ({record['failed']} of {record['attempted']} attempts)")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


def write_record(record, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{int(record['trace'])}"
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps({k: v for k, v in record.items() if k != "spans"}, indent=1) + "\n")
    if record["spans"]:
        fields = ["id", "name", "start", "end", "parent", "thread", "invocation"]
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": fields, "spans": record["spans"]}) + "\n")
    return path


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    write_record(record, args.seed)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
