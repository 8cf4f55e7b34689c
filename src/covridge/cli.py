"""Command-line interface.

Subcommands: `gen` writes synthetic datasets with ground truth, `run`
executes the ranking pipeline on a CSV, `eval` scores a report against a
ground-truth file, `bench` runs the replicated benchmark suites. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, fileio
from .bench import (
    SEM_SAMPLE_SIZES,
    SUITE_SELECTION,
    TOY_EXTRAS_LEVELS,
    run_poly_suite,
    run_sem_suite,
)
from .crp import COVARIANCES, LOSSES, SELECTION_RULES, CrpConfig, crp_run
from .errors import CovridgeError, DataError, NumericalError, UsageError
from .evalharness import evaluate_ranking
from .synthgen import (
    POLY_FAMILIES,
    PolyToySpec,
    gen_poly_toy,
    gen_sem_model,
    markov_boundary_of,
    sample_sem,
)


_FAMILY_NAMES = [family.replace("_", "-") for family in POLY_FAMILIES]


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as UsageError (exit 1)."""

    def error(self, message: str):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of integers, got {text!r}") from None


def _check_out(out: Path, *, directory: bool) -> None:
    """Reject an --out that cannot be written, before any work is done: a
    directory given as an output file, or an existing non-directory where
    the output directory or one of its parents must be."""
    if not directory and out.is_dir():
        raise UsageError(f"--out {out} is a directory, not a file")
    folder = out if directory else out.parent
    for part in (folder, *folder.parents):
        if part.exists():
            if not part.is_dir():
                raise UsageError(f"--out {out}: {part} exists and is not a directory")
            return


def build_parser() -> _Parser:
    parser = _Parser(prog="covridge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"covridge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic data with ground truth")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    poly = gen_sub.add_parser("poly", help="polynomial toy data")
    poly.set_defaults(handler=_cmd_gen_poly)
    poly.add_argument("--family", choices=_FAMILY_NAMES, default="gaussian")
    poly.add_argument("--extras", type=int, default=95)
    poly.add_argument("--n", type=int, default=1000)
    poly.add_argument("--seed", type=int, default=0)
    poly.add_argument("--noise-sd", type=float, default=1e-4)
    poly.add_argument("--out", type=Path, default=".", help="output directory")

    sem = gen_sub.add_parser("sem", help="linear structural model data")
    sem.set_defaults(handler=_cmd_gen_sem)
    sem.add_argument("--p", type=int, default=50)
    sem.add_argument("--degree", type=float, default=2.0)
    sem.add_argument("--n", type=int, default=500)
    sem.add_argument("--seed", type=int, default=0)
    sem.add_argument("--acyclic", action="store_true", help="forbid feedback loops")
    sem.add_argument("--out", type=Path, default=".", help="output directory")

    run = sub.add_parser("run", help="rank the variables of a CSV against a response")
    # every CrpConfig field is an attribute, so the defaults are CrpConfig()'s
    run.set_defaults(handler=_cmd_run, **asdict(CrpConfig()))
    run.add_argument("--data", required=True, help="input CSV")
    run.add_argument("--response", required=True, help="response column name")
    run.add_argument("--loss", choices=LOSSES)
    run.add_argument("--covariance", choices=COVARIANCES)
    run.add_argument("--lambda", dest="lambda_fixed", type=float,
                     help="skip cross validation and use this penalty")
    run.add_argument("--B", dest="permutations", metavar="B", type=int,
                     help="permutation count")
    run.add_argument("--folds", dest="cv_folds", metavar="FOLDS", type=int)
    run.add_argument("--alpha", dest="alpha_level", metavar="ALPHA", type=float)
    run.add_argument("--selection", choices=SELECTION_RULES,
                     help="select by marginal or by maxT family-wise adjusted p-values")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", type=Path, default="report.json")

    ev = sub.add_parser("eval", help="score a report against a ground-truth file")
    ev.set_defaults(handler=_cmd_eval)
    ev.add_argument("--report", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--h", type=int, default=None,
                    help="ranking depth for hit@h (default: boundary size)")
    ev.add_argument("--out", type=Path, default="summary.json")

    bench = sub.add_parser("bench", help="replicated benchmark suites")
    # the suites always select by maxT; as a setting it reaches the manifest
    bench.set_defaults(handler=_cmd_bench, selection=SUITE_SELECTION)
    bench.add_argument("suite", choices=[f"toy-{name}" for name in _FAMILY_NAMES] + ["sem"])
    bench.add_argument("--reps", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--B", type=int, default=500)
    bench.add_argument("--n", type=int, default=1000, help="samples per toy replicate")
    bench.add_argument("--extras-levels", type=_int_list,
                       default=list(TOY_EXTRAS_LEVELS), help="toy suites only")
    bench.add_argument("--p", type=int, default=50, help="sem suite only")
    bench.add_argument("--degree", type=float, default=2.0, help="sem suite only")
    bench.add_argument("--sizes", type=_int_list, default=list(SEM_SAMPLE_SIZES),
                       help="sem suite only")
    bench.add_argument("--alpha", type=float, default=0.05)
    bench.add_argument("--out", type=Path, default="summary.json")
    return parser


# the manifest records input paths under "inputs" and --seed under "seeds"
_INPUTS = ("data", "report", "truth")
_NOT_SETTINGS = {"command", "generator", "handler", "out", "seed", *_INPUTS}


def _settings(args) -> dict:
    """The command's parsed settings: every flag but --out, the input paths
    and --seed."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_SETTINGS}


def _write_artifacts(args, argv, artifacts: dict, config: dict | None = None) -> None:
    """Write each JSON payload of `artifacts` (path -> payload) atomically,
    under the schema version and with one manifest: the command line, the
    parsed settings (or, for `run`, the effective `config` with every
    default filled in), the seed and a digest of every input file."""
    manifest = fileio.build_manifest(
        argv,
        _settings(args) if config is None else config,
        {"seed": args.seed} if hasattr(args, "seed") else {},
        {role: getattr(args, role) for role in _INPUTS if hasattr(args, role)},
    )
    for path, payload in artifacts.items():
        fileio.write_json_atomic(
            path, {"schema_version": fileio.SCHEMA_VERSION} | payload | {"manifest": manifest}
        )


def _cmd_gen_poly(args, argv) -> None:
    args.family = args.family.replace("-", "_")
    data, truth = gen_poly_toy(PolyToySpec(seed=args.seed, **_settings(args)))
    fileio.write_csv(args.out / "data.csv", data)
    _write_artifacts(args, argv, {args.out / "truth.json": fileio.truth_to_dict(truth)})


def _cmd_gen_sem(args, argv) -> None:
    model = gen_sem_model(args.p, args.degree, allow_cycles=not args.acyclic, seed=args.seed)
    truth = markov_boundary_of(model.names, model.parents, model.response, source="sem")
    fileio.write_csv(args.out / "data.csv", sample_sem(model, args.n, args.seed))
    _write_artifacts(args, argv, {args.out / "model.json": fileio.sem_model_to_dict(model),
                                  args.out / "truth.json": fileio.truth_to_dict(truth)})


def _cmd_run(args, argv) -> None:
    config = CrpConfig(**{field.name: getattr(args, field.name) for field in fields(CrpConfig)})
    # crp_run gets the only reference to the matrix, so it can free it early
    report = crp_run(fileio.read_csv(args.data), args.response, config)
    _write_artifacts(args, argv, {args.out: fileio.report_to_dict(report)}, report.config)


def _cmd_eval(args, argv) -> None:
    report = fileio.report_from_dict(fileio.read_json(args.report))
    truth = fileio.truth_from_dict(fileio.read_json(args.truth))
    args.h = len(truth.mb) if args.h is None else args.h
    _write_artifacts(args, argv, {args.out: asdict(evaluate_ranking(report, truth, args.h))})


def _cmd_bench(args, argv) -> None:
    if args.suite == "sem":
        result = run_sem_suite(
            reps=args.reps,
            seed=args.seed,
            p=args.p,
            expected_degree=args.degree,
            b=args.B,
            sizes=args.sizes,
            alpha_level=args.alpha,
        )
    else:
        result = run_poly_suite(
            args.suite.removeprefix("toy-").replace("-", "_"),
            reps=args.reps,
            seed=args.seed,
            n=args.n,
            b=args.B,
            extras_levels=args.extras_levels,
            alpha_level=args.alpha,
        )
    del result["summaries"]  # per-replicate scores are for in-process callers
    _write_artifacts(args, argv, {args.out: result})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out, directory=args.command == "gen")
        args.handler(args, ["covridge"] + argv)
        return 0
    except UsageError as exc:
        print(f"covridge: usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"covridge: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"covridge: numerical failure: {exc}", file=sys.stderr)
        return 3
    except CovridgeError as exc:
        print(f"covridge: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
