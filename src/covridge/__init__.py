"""Covariance-ridge permutation ranking for Markov boundary recovery.

Shrink the explanatory covariance, whiten, fit a ridge-penalized linear
model with a cross-validated penalty, and attach permutation p-values to
every variable. Includes synthetic generators with known boundaries and an
evaluation harness for replicated benchmarks.
"""

__version__ = "0.1.0"

from .covmat import SampleMatrix, fit_whitener
from .crp import CrpConfig, CrpReport, crp_run, default_lambda_grid
from .errors import (
    CovridgeError,
    DataError,
    DegenerateDataError,
    NumericalError,
    UsageError,
)
from .evalharness import (
    AggregateSummary,
    EvalSummary,
    aggregate_replicates,
    evaluate_ranking,
    rank_histogram,
)
from .fileio import (
    build_manifest,
    canonical_dumps,
    read_csv,
    read_json,
    report_from_dict,
    report_to_dict,
    sem_model_from_dict,
    sem_model_to_dict,
    sha256_file,
    truth_from_dict,
    truth_to_dict,
    write_csv,
    write_json_atomic,
)
from .permtest import (
    PermutationResult,
    permutation_pvalues,
    row_abs_sum,
)
from .solver import (
    RidgeFit,
    cv_select_lambda,
    fit_mse,
    fit_multinomial,
    fold_indices,
    loss_value,
    multinomial_feasible,
    multinomial_gradient,
)
from .synthgen import (
    GroundTruth,
    PolyToySpec,
    SemModel,
    gen_poly_toy,
    gen_sem_model,
    markov_boundary_of,
    sample_sem,
    sem_stationary_covariance,
    spectral_radius,
)

__all__ = [
    "AggregateSummary",
    "CovridgeError",
    "CrpConfig",
    "CrpReport",
    "DataError",
    "DegenerateDataError",
    "EvalSummary",
    "GroundTruth",
    "NumericalError",
    "PermutationResult",
    "PolyToySpec",
    "RidgeFit",
    "SampleMatrix",
    "SemModel",
    "UsageError",
    "aggregate_replicates",
    "build_manifest",
    "canonical_dumps",
    "crp_run",
    "cv_select_lambda",
    "default_lambda_grid",
    "evaluate_ranking",
    "fit_mse",
    "fit_multinomial",
    "fit_whitener",
    "fold_indices",
    "gen_poly_toy",
    "gen_sem_model",
    "loss_value",
    "markov_boundary_of",
    "multinomial_feasible",
    "multinomial_gradient",
    "permutation_pvalues",
    "rank_histogram",
    "read_csv",
    "read_json",
    "report_from_dict",
    "report_to_dict",
    "row_abs_sum",
    "sample_sem",
    "sem_model_from_dict",
    "sem_model_to_dict",
    "sem_stationary_covariance",
    "sha256_file",
    "spectral_radius",
    "truth_from_dict",
    "truth_to_dict",
    "write_csv",
    "write_json_atomic",
    "__version__",
]
