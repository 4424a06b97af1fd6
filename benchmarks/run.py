"""Benchmark of mvspectral: four workloads, each in its own process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py                          # all workloads, seed 0
    python3 benchmarks/run.py --workload csv-cluster --seed 7 --seconds 20
    python3 benchmarks/run.py --workload jdl-sweeps --trace 1

This script imports neither numpy nor mvspectral.  It pins the BLAS thread
variables to one thread in the environment of the processes it starts, then
runs ``workload.py``: with ``--trace 0``, ``SETUP_SAMPLES - 1`` processes
that only set up, followed by one that sets up and measures; with
``--trace 1``, one process that alternates traced and untraced rounds.
``setup_s`` is the median, over those processes, of the time from starting
the interpreter to having the inputs generated and written.

It prints one line per metric, then, as the last line of standard output,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Full results, and with ``--trace 1`` the spans, are
written under ``.benchout/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".benchout"
WORKLOADS = ("csv-cluster", "consistency", "spectral-large", "jdl-sweeps")
SETUP_SAMPLES = 5
DEFAULT_SECONDS = 20
SETUP_TIMEOUT_S = 40
MEASURE_TIMEOUT_S = 120

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    pass


def child_environment() -> dict:
    env = dict(os.environ)
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    # Keep the checkout free of bytecode caches, so every run compiles the
    # package the same way.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start workload.py, wait for it, return (setup seconds, its summary)."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--root", str(ROOT), "--outdir", str(OUTDIR)]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_environment(), stdout=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT_S if setup_only
                              else MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: workload process timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: workload process exited {proc.returncode}")
    summary = json.loads(lines[-1])
    return summary["ready"] - started, summary


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(workload, seed, seconds, trace, setup_only=True)[0])
    setup_s, summary = run_child(workload, seed, seconds, trace, setup_only=False)
    setups.append(setup_s)
    metrics = summary["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    summary["metrics"] = metrics
    summary["setup_samples_s"] = setups
    return summary


def report(workload: str, seed: int, trace: int, summary: dict) -> None:
    env = summary["env"]
    print(f"# {workload} seed={seed} trace={trace} rounds={summary['rounds']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} blas_threads_pinned={env['blas_threads_pinned']}")
    print(f"{workload}  attempted {summary['attempted']}  failed {summary['failed']}"
          + (f" ({', '.join(summary['failed_ops'])})" if summary["failed_ops"] else ""))
    for name, metric in {**summary["metrics"], **summary["breakdown"]}.items():
        print(f"{workload}  {name:<44} {metric['value']:.6g} {metric['unit']}")
    for error in summary["errors"]:
        print(f"{workload}  CHECK FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of mvspectral.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvspectral" / "__init__.py").is_file():
        print(f"run.py: no mvspectral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            summary = run_workload(workload, args.seed, args.seconds, args.trace)
            report(workload, args.seed, args.trace, summary)
            (OUTDIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
            results[workload] = summary
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for workload, summary in results.items():
        line = {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}
        if len(results) > 1:
            print(workload)
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0 if all(s["correct"] for s in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
