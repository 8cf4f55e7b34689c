"""Score the multinomial loss against a known boundary: discretized
structural models.

Each replicate draws a random linear structural model, samples from its
stationary distribution and cuts the response Y at its sample terciles
into a three-class response Y'. Y' is a function of Y, so every variable
outside the boundary MB(Y) stays independent of Y' given MB(Y), and
MB(Y') lies inside MB(Y). A selection outside MB(Y) is therefore a false
selection. The variables are ranked with the multinomial loss and the maxT
family-wise rule, and each cell (model kind, sample size) reports hit_rate,
subset_rate and mean_tp against MB(Y). Replicates whose boundary is empty
are skipped.

A family-wise rule at level 0.05 keeps the chance of any false selection
in one data set at or below 0.05, so subset_rate should stay at or above
1 - (0.05 + 3 sd), with sd = sqrt(0.05 * 0.95 / m) at the cell's m scored
replicates. The script exits with status 1 when any cell falls below it.
"""
import argparse
import sys

import numpy as np

from covridge import (
    CrpConfig,
    NumericalError,
    SampleMatrix,
    aggregate_replicates,
    crp_run,
    evaluate_ranking,
    gen_sem_model,
    markov_boundary_of,
    sample_sem,
)
from covridge.bench import derive_seed

SEED, REPS, SIZES, B = 2026, 20, (200, 500), 200
P, DEGREE = 50, 2.0
GRID = tuple(float(g) for g in np.geomspace(1e-3, 1e2, 20))
FWER_LEVEL = 0.05


def discretize_response(data: SampleMatrix, response: str) -> SampleMatrix:
    """The data with the response replaced by its tercile class 0, 1 or 2."""
    values = data.values.copy()
    j = data.column_names.index(response)
    cuts = np.quantile(values[:, j], [1 / 3, 2 / 3])
    values[:, j] = np.digitize(values[:, j], cuts)
    return SampleMatrix(values, list(data.column_names))


def fwer_bound(replicates: int) -> float:
    """Lowest subset_rate that a family-wise rule at FWER_LEVEL explains."""
    sd = np.sqrt(FWER_LEVEL * (1 - FWER_LEVEL) / replicates)
    return 1 - (FWER_LEVEL + 3 * sd)


def main() -> None:
    # the settings are fixed, so no option can pick a seed or size that passes
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"discretized sem check  (reps={REPS}, p={P}, degree={DEGREE}, B={B}, "
          f"seed={SEED}, loss=multinomial, selection=maxt)")
    print(f"{'model':>8} {'n':>5} {'reps':>5} {'hit_rate':>9} {'subset_rate':>12} "
          f"{'mean_tp':>8} {'bound':>7} {'failed':>7}  verdict")
    all_pass = True
    for cyclic in (False, True):
        for n in SIZES:
            summaries, failed = [], 0
            for rep in range(REPS):
                model = gen_sem_model(P, DEGREE, allow_cycles=cyclic,
                                      seed=derive_seed(SEED, rep, 0))
                truth = markov_boundary_of(model.names, model.parents, model.response,
                                           source="sem")
                if not truth.mb:
                    continue
                data = discretize_response(
                    sample_sem(model, n, derive_seed(SEED, rep, 1)), truth.target)
                config = CrpConfig(loss="multinomial", lambda_grid=GRID,
                                   permutations=B, seed=derive_seed(SEED, rep, 2),
                                   selection="maxt")
                try:
                    report = crp_run(data, truth.target, config)
                except NumericalError:
                    failed += 1
                    continue
                summaries.append(evaluate_ranking(report, truth, h=len(truth.mb),
                                                  replicate_id=rep))
            agg = aggregate_replicates(summaries)
            bound = fwer_bound(agg.replicates)
            ok = agg.subset_rate >= bound and not failed
            all_pass &= ok
            print(f"{'cyclic' if cyclic else 'acyclic':>8} {n:>5} {agg.replicates:>5} "
                  f"{agg.hit_rate:>9.3f} {agg.subset_rate:>12.3f} {agg.mean_tp:>8.2f} "
                  f"{bound:>7.3f} {failed:>7}  {'pass' if ok else 'FAIL'}")
    sys.exit(0 if all_pass else 1)


if __name__ == "__main__":
    main()
