"""natgrad benchmark: one workload at one seed, timed or traced.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; natgrad is imported from ./src.  Each run
sets up the workload three times (a fresh interpreter importing natgrad,
data, Forster transform, init, one warm-up op per method) and reports
the median, then cycles the library ops of the four methods and one CLI
op until --seconds have passed.  With --trace 1 it instead wraps
natgrad's layers (see tracing.py) and reports per-layer metrics.
Workloads and metrics are listed in catalog.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The environment, the samples
behind each median and any failures go to
.bench_out/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from catalog import DEFAULT_SEED, RUN_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w.name for w in WORKLOADS]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # Part of the benchmark's command line: every run is invoked with
    # --seconds <run_seconds from BENCHMARK.json>, and measures that long.
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in (w.name for w in WORKLOADS):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit code {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # One BLAS thread: on a shared machine a second thread mostly adds
    # contention noise.  Read by the BLAS library when numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import natgrad

    if Path(natgrad.__file__).resolve().parent != SRC / "natgrad":
        print(f"natgrad was imported from {natgrad.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import run_workload

    workload = next(w for w in WORKLOADS if w.name == args.workload)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), OUT, SRC)
    record = {"environment": environment(args), **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in result["metrics"].items():
        samples = result["samples"].get(name)
        note = f"  (n={len(samples)})" if samples else ""
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    for method, layers in result["layer_self_ms"].items():
        total = sum(layers.values())
        shares = ", ".join(f"{layer} {ms / total:.0%}" for layer, ms in layers.items() if ms / total >= 0.005)
        print(f"{method}: traced step {total:.4g} ms self time: {shares}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
