"""Measurement process for one workload, started by run.py.

    python worker.py setup WORKLOAD SEED WORKDIR
        Import the program, make the inputs of one call (and for tall-csv
        write the CSV) and make one warm-up call on a small instance, then
        exit. run.py times whole setup processes.

    python worker.py measure WORKLOAD SEED SECONDS TRACE WORKDIR OUT
        Warm up with one full-size call, then call the pipeline in a closed
        loop for about SECONDS, check every output, and write a JSON result
        to OUT. With TRACE=1 the first half of the time runs untraced and the
        second half traced, which gives per-layer metrics and the tracing
        overhead.
"""
from __future__ import annotations

import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_manifest, check_report, same_result
from covridge import cli as covridge_cli
from covridge import fileio
from covridge.evalharness import evaluate_ranking
from facts import run_facts
from tracing import Tracer, layer_metrics, renumber
from workloads import (
    RESPONSE,
    WORKLOADS,
    Workload,
    call_cli,
    call_in_process,
    cli_argv,
    make_input,
    pipeline_seed,
    peak_rss_mb,
)

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 3
MAX_FAILURE_MESSAGES = 5


def setup(workload: Workload, seed: int, workdir: Path) -> None:
    data, _ = make_input(workload, seed, 0)
    small = workload.warmup()
    small_data, _ = make_input(small, seed, 0)
    if workload.via_cli:
        fileio.write_csv(workdir / "input.csv", data)
        fileio.write_csv(workdir / "warmup.csv", small_data)
        argv = cli_argv(small, workdir / "warmup.csv", workdir / "warmup.json",
                        pipeline_seed(seed, 0))
        if covridge_cli.main(argv) != 0:
            raise SystemExit("warm-up CLI call failed")
    else:
        call_in_process(small, small_data, pipeline_seed(seed, 0))


class Loop:
    """Closed-loop calls on one workload, with checks and quality scores."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.summaries = []
        self.kkt_max = 0.0
        self.index = 0
        self.fixed = make_input(workload, seed, 0)
        self.csv = workdir / "input.csv"
        if workload.via_cli and not self.csv.exists():
            fileio.write_csv(self.csv, self.fixed[0])
        try:
            self.reference = self.call(0)[0].report
        except Exception as exc:  # reported as a failed call; the loop still runs
            self.reference = None
            self.attempted += 1
            self.fail(f"warm-up call: {type(exc).__name__}: {exc}")

    def call(self, index: int, tracer: Tracer | None = None):
        data, truth = self.fixed if index == 0 or self.workload.via_cli \
            else make_input(self.workload, self.seed, index)
        seed = pipeline_seed(self.seed, index)
        if self.workload.via_cli:
            spans_path = self.workdir / "spans.json" if tracer else None
            result = call_cli(self.workload, self.csv, self.workdir / "report.json", seed,
                              spans_path)
        else:
            with tracer or contextlib.nullcontext():
                result = call_in_process(self.workload, data, seed)
        return result, data, truth

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(message)

    def run(self, seconds: float, tracer: Tracer | None = None) -> tuple[list[float], list]:
        """Calls until the next one would likely end after `seconds`; at least one."""
        times: list[float] = []
        span_lists: list = []
        start = time.perf_counter()
        while True:
            index = self.index
            self.index += 1
            self.attempted += 1
            try:
                result, data, truth = self.call(index, tracer)
                times.append(result.seconds)
                if result.spans is not None:
                    span_lists.append(result.spans)
                self.score(index, result, data, truth)
            except Exception as exc:  # a failed call or check is counted, not fatal
                self.fail(f"call {index}: {type(exc).__name__}: {exc}")
            if time.perf_counter() - start + (times[-1] if times else 0.0) > seconds:
                return times, span_lists

    def score(self, index: int, result, data, truth) -> None:
        problems, kkt = check_report(result.report, data, RESPONSE)
        self.kkt_max = max(self.kkt_max, kkt)
        if self.workload.via_cli:
            problems += check_manifest(result.manifest, self.csv)
        if index == 0 and not (self.reference and same_result(self.reference, result.report)):
            problems.append("repeated call gave different p-values or ranking")
        if problems:
            self.fail(f"call {index}: " + "; ".join(problems))
        self.summaries.append(evaluate_ranking(result.report, truth, h=len(truth.mb)))

    def quality(self) -> dict:
        count = max(len(self.summaries), 1)
        return {
            "failed_frac": self.failed / max(self.attempted, 1),
            "hit_rate": sum(s.hit_at_h for s in self.summaries) / count,
            "subset_rate": sum(s.fp_selected == 0 for s in self.summaries) / count,
            "mean_tp": sum(s.tp_selected for s in self.summaries) / count,
        }


def cli_import_seconds() -> float:
    """Median time to import covridge.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import covridge.cli; print(time.perf_counter() - t)"
    runs = [
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_PROBES)
    ]
    return statistics.median(runs)


def unit_of(name: str) -> str:
    """Unit of a metric, by its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_kb", "kB")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_ratio", ".overlap", ".kkt_max")) else "count"


def call_time(workload: Workload, times: list[float]) -> float:
    """The run's per-call time, by the workload's `run_statistic`.

    On a 2-vCPU VM shared with other tenants, over 20-second windows of a
    continuous loop, the fastest call spread 8-11% and the median 10-18% on
    toy-mse (0.05-0.08 s calls), while on multinomial-cv (0.6-1.1 s calls)
    the fastest call spread 17-28% and the median 7-12%. The fastest call,
    the median and a tail percentile are all printed.
    """
    if not times:
        return float("nan")
    return min(times) if workload.run_statistic == "min" else statistics.median(times)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    loop = Loop(workload, seed, workdir)
    if not trace:
        times, _ = loop.run(seconds)
        # The CLI processes are the only children the worker waits for here.
        who = resource.RUSAGE_CHILDREN if workload.via_cli else resource.RUSAGE_SELF
        values = {"run_s": call_time(workload, times), "peak_rss_mb": peak_rss_mb(who)}
    else:
        plain, _ = loop.run(seconds / 2)
        tracer = Tracer()
        traced, span_lists = loop.run(seconds / 2, tracer)
        times = plain + traced
        values = layer_metrics(renumber(span_lists) if workload.via_cli else tracer.spans,
                               len(traced))
        values["solver.kkt_max"] = loop.kkt_max
        values["cli.import_s"] = cli_import_seconds() if workload.via_cli else 0.0
        values["trace.run_s"] = call_time(workload, traced)
        values["trace.overhead_s"] = call_time(workload, traced) - call_time(workload, plain)
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "messages": loop.messages,
        "quality": loop.quality(),
        "times": times,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
        "facts": run_facts(ROOT, workload.permutations),
        "notes": ["the input CSV is read from the page cache (caches are not dropped)"]
        if workload.via_cli else [],
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        setup(workload, seed, Path(argv[3]))
        return 0
    seconds, trace, workdir, out = float(argv[3]), argv[4] == "1", Path(argv[5]), Path(argv[6])
    result = measure(workload, seed, seconds, trace, workdir)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
