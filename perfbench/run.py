"""Benchmark of the covridge pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy-mse --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 it prints the end-to-end metrics (run_s, peak_rss_mb,
setup_s); with --trace 1 the per-layer metrics from a traced run. Both also
print the quality scores, the failure share and the run facts. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

This file uses only the standard library. The program is imported only in
the child processes it starts, from the checkout's src/ with CRP_THREADS and
the BLAS thread variables removed from their environment.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# Every run must end within 180 s; setup and warm-up get what the
# measurement does not use.
RUN_DEADLINE_S = 170
THREAD_VARIABLES = (
    "CRP_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """The program's default thread settings, and the checkout's sources first."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float) -> float:
    """Run a worker process to completion; returns its wall time.

    The worker gets its own process group, so that on a timeout the CLI
    processes it started are stopped with it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {args[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{stderr}")
    return time.perf_counter() - start


def bench_one(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup_times = []
    if not trace:
        # Each setup is a fresh interpreter: import, input generation and a
        # warm-up call, timed from process start to exit.
        for _ in range(SETUP_REPEATS):
            setup_times.append(run_child(["setup", workload, str(seed), str(workdir)],
                                         SETUP_TIMEOUT_S))
    out = workdir / "result.json"
    run_child(
        ["measure", workload, str(seed), str(seconds), "1" if trace else "0", str(workdir), str(out)],
        max(deadline - time.perf_counter(), 1.0),
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    if setup_times:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    return result


def call_time_summary(times: list[float]) -> str:
    """Sample count, fastest, median, and the highest percentile with ten
    samples above it."""
    if not times:
        return "none"
    text = f"n={len(times)} min={min(times):.6g} s median={statistics.median(times):.6g} s"
    percent = int(100 * (1 - 10 / len(times))) if len(times) >= 20 else 0
    if percent >= 50:
        cut = statistics.quantiles(times, n=100)[percent - 1]
        text += f" p{percent}={cut:.6g} s"
    return text


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the human-readable block and return the result line's JSON object."""
    metrics = result["metrics"]
    values_ok = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = result["failed"] == 0 and result["attempted"] >= 1 and values_ok
    print(f"== {workload} seed={seed} trace={int(trace)} calls={result['attempted']} "
          f"failed={result['failed']} correct={correct}")
    for name, metric in sorted(metrics.items()):
        print(f"  {name:26s} {metric['value']:.6g} {metric['unit']}")
    for name, value in result["quality"].items():
        print(f"  {name:26s} {value:.6g} {'count' if name == 'mean_tp' else 'ratio'}")
    print("  facts " + json.dumps(result["facts"], sort_keys=True))
    for note in result["notes"]:
        print(f"  note: {note}")
    print("  call times " + call_time_summary(result["times"]))
    for message in result["messages"]:
        print(f"  failure: {message}")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covridge" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'covridge'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    known = workload_names()
    if args.workload != "all" and args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    names = known if args.workload == "all" else [args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    line = None
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
        try:
            result = bench_one(name, args.seed, args.seconds, bool(args.trace), workdir)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        line = report(name, args.seed, bool(args.trace), result)
    shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
