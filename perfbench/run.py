#!/usr/bin/env python3
"""Benchmark for rqpkit: synth, train and predict workloads.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 15 --trace 0

It sets up SETUP_REPEATS times from the seed, runs operations back to back
for --seconds, checks every output it kept and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 operations
alternate between untraced and traced, and the metrics are the per-layer
ones reduced from the traced operations' spans, plus the tracing
overhead.  It exits non-zero when a check fails.

--workload all runs every workload, each in its own process, and prints
every metric by name with its unit.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before NumPy loads: two threads made no
# difference to a batch-10 step on a 2-CPU machine, and one is steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 600
WORKLOAD_NAMES = ("synth", "train", "predict")

# End-to-end metrics and their units; README.md says what each means per workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "error_ratio": "ratio",
}


def _import_program():
    """Import rqpkit from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import rqpkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rqpkit from {src}: {exc}")
    if Path(rqpkit.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: rqpkit resolved to {rqpkit.__file__}, not {src}")


def _check_spec(per_layer: dict, higher: set) -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        sys.exit("perfbench: BENCHMARK.json end_to_end disagrees with run.py")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    wanted = {n: (u, "higher" if n in higher else "lower") for n, u in per_layer.items()}
    if declared != wanted:
        sys.exit("perfbench: BENCHMARK.json per_layer disagrees with trace.py")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _timed_window(workload, seconds: float, tracer):
    """Run operations until the clock runs out; odd ones traced when tracing.

    Only op() is timed; record() checks and keeps its output afterwards.
    """
    latencies: dict[bool, list[float]] = {False: [], True: []}
    failures: Counter = Counter()
    busy = 0.0
    attempted = 0
    deadline = perf_counter() + seconds
    while attempted == 0 or perf_counter() < deadline:
        index, attempted = attempted, attempted + 1
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            output = workload.op(index)
        except Exception as exc:  # count it, keep the traceback, carry on
            if not failures[type(exc).__name__]:
                traceback.print_exc(file=sys.stderr)
            failures[type(exc).__name__] += 1
            continue
        finally:
            took = perf_counter() - start
            busy += took
            if traced:
                tracer.uninstall()
        latencies[traced].append(took)
        workload.record(index, output)
    return latencies, failures, busy, attempted


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import tracer as tracing
    from workloads import WORKLOADS

    _check_spec(tracing.PER_LAYER, tracing.HIGHER_IS_BETTER)
    print("# env " + json.dumps(_environment()))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup(attempt)
            setup_times.append(perf_counter() - start)
            workload.verify_setup()
        gc.collect()
        tracer = tracing.Tracer() if trace else None
        latencies, failures, busy, attempted = _timed_window(workload, seconds, tracer)
        # Taken before the checks, whose oracle would otherwise set the peak.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = latencies[False] + latencies[True]
        problems = workload.check() if ok else ["no operation succeeded"]
        error_ratio = workload.error_ratio() if ok else float("nan")
        if ok and hasattr(workload, "digest"):
            print(f"# prediction digest {workload.digest()}")
    failed = sum(failures.values())
    print("# failures " + json.dumps(dict(failures)))
    for problem in problems:
        print(f"# check failed: {problem}")

    if trace:
        overhead = (statistics.median(latencies[True]) / statistics.median(latencies[False])
                    if latencies[True] and latencies[False] else float("nan"))
        values = tracer.metrics(workload.nominal_batch, overhead, workload.load_s)
        units = tracing.PER_LAYER
        tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    else:
        lat = sorted(ok) or [float("nan")]
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": workload.items_per_op * len(ok) / busy,
            "p50_ms": 1e3 * statistics.median(lat),
            "p90_ms": 1e3 * (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]),
            "error_ratio": error_ratio,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        rows.append((name, "attempted/failed", f"{result['attempted']}/{result['failed']}", ""))
        rows.append((name, "correct", str(result["correct"]), ""))
        for metric, v in result["metrics"].items():
            rows.append((name, metric, f"{v['value']:.6g}", v["unit"]))
    widths = [max(len(r[i]) for r in rows) for i in range(4)] if rows else []
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
