"""Run the polynomial toy suites and print per-level recovery tables.

Each family generates five boundary variables plus decoy columns; the table
shows, per decoy level, how often the selected set stayed inside the true
boundary and how many boundary variables were recovered on average.
"""
import argparse

from covridge.bench import TOY_EXTRAS_LEVELS, run_poly_suite
from covridge.evalharness import aggregate_replicates
from covridge.synthgen import POLY_FAMILIES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="+", default=list(POLY_FAMILIES), choices=POLY_FAMILIES)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--B", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--extras-levels", type=int, nargs="+", default=list(TOY_EXTRAS_LEVELS))
    args = parser.parse_args()

    for family in args.families:
        result = run_poly_suite(
            family, reps=args.reps, seed=args.seed, n=args.n, b=args.B,
            extras_levels=args.extras_levels,
        )
        print(f"\n{result['suite']}  (reps={args.reps}, n={args.n}, B={args.B}, seed={args.seed})")
        print(f"{'extras':>8} {'subset_rate':>12} {'mean_tp':>8} {'sd_tp':>7} {'hit_rate':>9}")
        for group in result["groups"]:
            agg = group["aggregate"]
            print(f"{group['extras']:>8} {agg['subset_rate']:>12.3f} {agg['mean_tp']:>8.3f} "
                  f"{agg['sd_tp']:>7.3f} {agg['hit_rate']:>9.3f}")
        pooled = aggregate_replicates(
            [s for level in result["summaries"].values() for s in level]
        )
        print(f"{'pooled':>8} {pooled.subset_rate:>12.3f} {pooled.mean_tp:>8.3f} "
              f"{pooled.sd_tp:>7.3f} {pooled.hit_rate:>9.3f}")
        if result["failed_replicates"]:
            print(f"  failed replicates: {result['failed_replicates']}")


if __name__ == "__main__":
    main()
