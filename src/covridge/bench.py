"""Generate-run-evaluate loop behind the `bench` command.

One runner drives every suite. A suite is a replicate factory: given a
level and a replicate index it draws a synthetic dataset, its ground truth
and the seed of the ranking run. The runner ranks and scores every
replicate against the generator's ground truth and aggregates per group
(per extras level for the polynomial toys, per sample size for the
structural models). Replicate seeds derive from the master seed by index,
so any rep can be reproduced in isolation.

The suites score the selected set against the whole true boundary, which
is a family-wise claim, so they select by the studentized maxT adjusted
p-values (`SUITE_SELECTION`); `crp_run` itself defaults to the marginal
rule.
"""
from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from .covmat import SampleMatrix
from .crp import CrpConfig, crp_run
from .errors import CovridgeError, NumericalError, UsageError
from .evalharness import EvalSummary, aggregate_replicates, evaluate_ranking
from .synthgen import (
    GroundTruth,
    PolyToySpec,
    gen_poly_toy,
    gen_sem_model,
    markov_boundary_of,
    sample_sem,
)

TOY_EXTRAS_LEVELS = (1, 5, 15, 45, 95)
SEM_SAMPLE_SIZES = (50, 100, 200, 300, 400, 500)
SUITE_SELECTION = "maxt"
_FAILURE_FRACTION = 0.10


def derive_seed(*parts: int) -> int:
    """Collision-resistant 64-bit seed derived from an index path."""
    for part in parts:
        if part < 0:
            raise UsageError("seed path components must be >= 0")
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _run_suite(
    suite: str, key: str, levels: Sequence[int], reps: int,
    replicate: Callable[[int, int, int], tuple[SampleMatrix, GroundTruth, int] | None],
    *, b: int, alpha_level: float, count_empty: bool = False,
) -> dict:
    """Rank and score `reps` replicates at every level and aggregate them
    into one group per level, keyed by `key`.

    `replicate(level index, level, rep)` gives the data, the ground truth
    and the ranking seed, or None when the boundary is empty: such a
    replicate cannot be scored (h >= 1), and `count_empty` reports how many
    were skipped per group. A level with no scored replicate raises
    NumericalError if any of its replicates failed numerically, else
    CovridgeError; more than 10% failed replicates overall raise
    NumericalError.
    """
    if reps < 1:
        raise UsageError("need at least 1 replicate")
    if not levels:
        raise UsageError("need at least 1 level")
    groups, summaries_by_level, failures = [], {}, 0
    for li, level in enumerate(map(int, levels)):
        summaries: list[EvalSummary] = []
        empty = failed = 0
        for rep in range(reps):
            drawn = replicate(li, level, rep)
            if drawn is None:
                empty += 1
                continue
            data, truth, run_seed = drawn
            config = CrpConfig(loss="mse", permutations=b, seed=run_seed,
                               alpha_level=alpha_level, selection=SUITE_SELECTION)
            try:
                report = crp_run(data, truth.target, config)
            except NumericalError:
                failed += 1
                continue
            summaries.append(evaluate_ranking(report, truth, h=len(truth.mb), replicate_id=rep))
        failures += failed
        if not summaries:
            raise (NumericalError if failed else CovridgeError)(
                f"no scored replicate at {key}={level}: {failed} failed numerically, "
                f"{empty} had an empty boundary"
            )
        summaries_by_level[level] = summaries
        group = {key: level, "aggregate": asdict(aggregate_replicates(summaries))}
        groups.append(group | {"skipped_empty_boundary": empty} if count_empty else group)
    total = reps * len(levels)
    if failures > _FAILURE_FRACTION * total:
        raise NumericalError(f"{failures} of {total} replicates failed (> 10% tolerated)")
    return {"suite": suite, "groups": groups, "failed_replicates": failures,
            "summaries": summaries_by_level}


def run_poly_suite(
    family: str,
    reps: int,
    seed: int,
    n: int = 1000,
    b: int = 500,
    extras_levels: Sequence[int] = TOY_EXTRAS_LEVELS,
    alpha_level: float = 0.05,
) -> dict:
    """Polynomial toy suite: `reps` replicates at every extras level.

    Returns one group per level with its aggregate, plus the pooled
    per-replicate summaries under "summaries" keyed by level.
    """

    def replicate(li: int, extras: int, rep: int):
        spec = PolyToySpec(family=family, extras=extras, n=n, seed=derive_seed(seed, li, rep, 0))
        return (*gen_poly_toy(spec), derive_seed(seed, li, rep, 1))

    return _run_suite(f"toy-{family}".replace("_", "-"), "extras", extras_levels, reps,
                      replicate, b=b, alpha_level=alpha_level)


def run_sem_suite(
    reps: int,
    seed: int,
    p: int = 50,
    expected_degree: float = 2.0,
    b: int = 500,
    sizes: Sequence[int] = SEM_SAMPLE_SIZES,
    alpha_level: float = 0.05,
) -> dict:
    """Structural-model suite: `reps` replicates at every sample size.

    Replicates whose response has an empty boundary are skipped; the count
    is reported per group under "skipped_empty_boundary".
    """

    def replicate(si: int, size: int, rep: int):
        model = gen_sem_model(p, expected_degree, allow_cycles=True,
                              seed=derive_seed(seed, si, rep, 0))
        truth = markov_boundary_of(model.names, model.parents, model.response, source="sem")
        if not truth.mb:
            return None
        data = sample_sem(model, size, derive_seed(seed, si, rep, 1))
        return data, truth, derive_seed(seed, si, rep, 2)

    return _run_suite("sem", "n", sizes, reps, replicate, b=b, alpha_level=alpha_level,
                      count_empty=True)
