"""The benchmark's workloads: how each one makes its inputs and calls the pipeline.

Every workload is a closed loop with one caller: one process makes one
pipeline call at a time and starts the next only when the previous one has
returned. Inputs come from the benchmark seed alone; the program sees only
the generated data and a CrpConfig or a CLI command line.
"""
from __future__ import annotations

import dataclasses
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import covridge.crp as crp_module
from covridge.bench import derive_seed
from covridge.covmat import SampleMatrix
from covridge.crp import CrpConfig
from covridge.synthgen import GroundTruth, PolyToySpec, gen_poly_toy

RESPONSE = "Y"


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and pipeline settings.

    `family` is "poly" for `gen_poly_toy` gaussian data with `extras` decoy
    columns, or "multinomial" for the three-class data behind acceptance
    criterion 10 (p = extras + 2 gaussian columns, labels from X1 and X2).
    `via_cli` runs each call as one `python -m covridge run` process on one
    CSV, written once per run, instead of an in-process `crp_run` on a fresh
    data set per call.

    `run_statistic` is how a run's call times become its `run_s`: "min" (the
    fastest call) or "median". Other tenants of a shared host slow the
    program down in spells from milliseconds to minutes. Calls of a few tens
    of milliseconds fit between those spells, so their fastest call is
    steady from run to run; calls of a second or more never do, so their
    fastest call depends on luck and their median is steadier.
    """

    name: str
    family: str
    n: int
    extras: int
    loss: str
    permutations: int
    folds: int
    grid: tuple[float, ...] | None = None
    via_cli: bool = False
    run_statistic: str = "median"

    def warmup(self) -> "Workload":
        """A small instance on the same code paths, used to warm a fresh process."""
        return dataclasses.replace(
            self,
            n=min(self.n, 300),
            extras=min(self.extras, 8),
            permutations=min(self.permutations, 20),
            grid=self.grid[-2:] if self.grid else None,
        )

    def config(self, seed: int) -> CrpConfig:
        return CrpConfig(
            loss=self.loss,
            cv_folds=self.folds,
            lambda_grid=self.grid,
            permutations=self.permutations,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The canonical squared-error toy (p=100): CV and permutations share
        # the call, and building 500 per-permutation RNG streams shows.
        Workload(
            "toy-mse", "poly", n=1000, extras=95, loss="mse", permutations=500, folds=10,
            run_statistic="min",
        ),
        # Criterion-10 data shape. The grid is the upper part of the default
        # range and B is 50, so that one call takes about 1.5 s instead of
        # 27 s; gradient-descent CV fits and the refit thread pool still
        # take nearly all of it.
        Workload(
            "multinomial-cv", "multinomial", n=150, extras=4, loss="multinomial",
            permutations=50, folds=5, grid=tuple(float(g) for g in np.geomspace(1e-2, 1e1, 10)),
        ),
        # p >> n: ten 2000x2000 eigendecompositions in CV plus whitening.
        Workload("wide-p2000", "poly", n=200, extras=1995, loss="mse", permutations=500, folds=10),
        # The CLI on a 100k-row CSV with default loss, covariance and folds:
        # CSV parsing, start-up and index shuffles of long vectors dominate.
        Workload(
            "tall-csv", "poly", n=100_000, extras=15, loss="auto", permutations=200, folds=10,
            via_cli=True,
        ),
    )
}


def make_input(workload: Workload, seed: int, index: int) -> tuple[SampleMatrix, GroundTruth]:
    """Data set number `index` of a run seeded with `seed`."""
    data_seed = derive_seed(seed, index, 0)
    if workload.family == "poly":
        return gen_poly_toy(
            PolyToySpec(family="gaussian", extras=workload.extras, n=workload.n, seed=data_seed)
        )
    p = workload.extras + 2
    x = np.random.default_rng(data_seed).standard_normal((workload.n, p))
    # Three equal classes by tertile of a score on X1 and X2: every class is
    # large enough that each CV fold holds all three.
    score = x[:, 0] + 0.5 * x[:, 1]
    labels = np.searchsorted(np.sort(score)[[workload.n // 3, 2 * workload.n // 3]], score,
                             side="right").astype(float)
    names = [f"X{i + 1}" for i in range(p)]
    data = SampleMatrix(np.column_stack([x, labels]), names + [RESPONSE])
    # A fixed function of independent gaussian columns, like the polynomial
    # toys, so its boundary is exactly the columns the labels are built from.
    return data, GroundTruth(RESPONSE, frozenset(names[:2]), "poly")


def pipeline_seed(seed: int, index: int) -> int:
    return derive_seed(seed, index, 1)


@dataclass
class CallResult:
    """One pipeline call: wall time and the report as a plain namespace; for
    CLI calls also the report's manifest and, when traced, the spans."""

    seconds: float
    report: SimpleNamespace
    manifest: dict | None = None
    spans: list | None = None


def call_in_process(workload: Workload, data: SampleMatrix, seed: int) -> CallResult:
    config = workload.config(seed)
    start = time.perf_counter()
    report = crp_module.crp_run(data, RESPONSE, config)
    seconds = time.perf_counter() - start
    return CallResult(seconds, SimpleNamespace(**vars(report)))


def cli_argv(workload: Workload, csv: Path, out: Path, seed: int) -> list[str]:
    """`covridge run` arguments: the workload's B and seed, everything else default."""
    return [
        "run", "--data", str(csv), "--response", RESPONSE,
        "--B", str(workload.permutations), "--seed", str(seed), "--out", str(out),
    ]


def call_cli(
    workload: Workload,
    csv: Path,
    out: Path,
    seed: int,
    spans_path: Path | None = None,
) -> CallResult:
    """One `covridge run` process; with `spans_path`, a traced one.

    The wall time runs from process start to exit, so it includes
    interpreter start-up and imports, as a user sees them.
    """
    argv = cli_argv(workload, csv, out, seed)
    if spans_path is None:
        command = [sys.executable, "-m", "covridge", *argv]
    else:
        child = Path(__file__).with_name("cli_child.py")
        command = [sys.executable, str(child), str(spans_path), *argv]
    start = time.perf_counter()
    proc = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"covridge run exited with {proc.returncode}: {proc.stderr.strip()}")
    raw = json.loads(out.read_text(encoding="utf-8"))
    report = SimpleNamespace(**raw)
    report.p_values = np.asarray(raw["p_values"], dtype=float)
    report.statistics = np.asarray(raw["statistics"], dtype=float)
    report.beta = np.asarray(raw["beta"], dtype=float)
    report.intercept = np.asarray(raw["intercept"], dtype=float)
    spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path else None
    return CallResult(seconds, report, raw.get("manifest"), spans)


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process (RUSAGE_SELF) or of the largest
    child waited for (RUSAGE_CHILDREN), in MB."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6
