"""End-to-end covariance-ridge permutation pipeline.

Given a sample matrix and the name of a response column: choose the
explanatory covariance estimate (shrinking when asked or when the sample
estimate would be rank deficient), whiten in the row space of the centred
data, which also gives the shrinkage intensity, and select the penalty by
cross validation. The permutation test then fits the observed target and
each permutation of it at that penalty, maps the coefficients back and
attaches p-values; the variables are ranked by their marginal p-values.

Selection keeps every variable whose p-value is at or below the
significance level. Under `selection="marginal"` (the default) that is the
marginal p-value, which controls the error rate of each variable on its
own. Under `selection="maxt"` it is the studentized maxT adjusted p-value,
which controls the family-wise error rate: the chance that any variable
outside the boundary is selected. A claim that the selected set lies
inside the boundary is a family-wise claim. Both p-values are reported
either way.
"""
from __future__ import annotations

import platform
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .covmat import SampleMatrix, _whiten
from .errors import DataError, DegenerateDataError, UsageError
from .permtest import DEFAULT_PERMUTATIONS, _permutation_test
from .solver import _rare_class_error, cv_select_lambda, multinomial_feasible

DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 1e2
DEFAULT_GRID_SIZE = 50
DEFAULT_ALPHA_LEVEL = 0.05
MAX_AUTO_CLASSES = 20
LOSSES = ("auto", "mse", "multinomial")
COVARIANCES = ("auto", "sample")
SELECTION_RULES = ("marginal", "maxt")


def default_lambda_grid() -> tuple[float, ...]:
    """50 log-spaced penalty candidates spanning [1e-4, 1e2]."""
    return tuple(float(g) for g in np.geomspace(DEFAULT_GRID_MIN, DEFAULT_GRID_MAX, DEFAULT_GRID_SIZE))


@dataclass(frozen=True)
class CrpConfig:
    loss: str = "auto"
    covariance: str = "auto"
    cv_folds: int = 10
    lambda_grid: tuple[float, ...] | None = None
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = 0
    alpha_level: float = DEFAULT_ALPHA_LEVEL
    lambda_fixed: float | None = None
    selection: str = "marginal"

    def __post_init__(self) -> None:
        if self.loss not in LOSSES:
            raise UsageError(f"unknown loss {self.loss!r}")
        if self.covariance not in COVARIANCES:
            raise UsageError(f"unknown covariance choice {self.covariance!r}")
        if self.cv_folds < 2:
            raise UsageError(f"need at least 2 CV folds, got {self.cv_folds}")
        if self.permutations < 0:
            raise UsageError(f"permutation count must be >= 0, got {self.permutations}")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not 0.0 < self.alpha_level < 1.0:
            raise UsageError(f"alpha level must lie in (0, 1), got {self.alpha_level}")
        if self.selection not in SELECTION_RULES:
            raise UsageError(f"unknown selection rule {self.selection!r}")
        grid = default_lambda_grid() if self.lambda_grid is None else self.lambda_grid
        object.__setattr__(self, "lambda_grid", tuple(float(g) for g in grid))
        if self.lambda_fixed is not None and (
            not np.isfinite(self.lambda_fixed) or self.lambda_fixed < 0.0
        ):
            raise UsageError(f"fixed lambda must be finite and >= 0, got {self.lambda_fixed}")
        if self.loss == "multinomial" and self.lambda_fixed == 0.0:
            raise UsageError("multinomial fits require lambda > 0")


@dataclass
class CrpReport:
    """Everything a run produces, aligned to the explanatory column order."""

    variable_names: list[str]
    response: str
    ranking: list[str]
    selected: list[str]
    p_values: np.ndarray
    statistics: np.ndarray
    beta: np.ndarray
    intercept: np.ndarray
    lambda_used: float
    rho_used: float
    loss_used: str
    covariance_used: str
    class_levels: list[float] | None
    config: dict
    seed: int
    versions: dict
    adjusted_p_values: np.ndarray | None = None


def _resolve_loss(config: CrpConfig, y: np.ndarray) -> tuple[str, np.ndarray, list[float] | None]:
    """Map the requested loss onto a concrete one plus the encoded target.

    Integer-coded responses with 2..MAX_AUTO_CLASSES distinct values, of
    either sign (0/1 and -1/+1 alike), go multinomial when every class has
    at least as many members as there are CV folds, so that each
    class-dealt fold holds every class; everything else is squared error.
    The fold count applies only when CV runs: with a fixed penalty no fold
    is built, and any class will do. A fixed penalty of 0, which the
    multinomial loss does not take, is squared error. The labels are the
    ranks of the sorted codes, kept as class levels. An explicit multinomial
    request on such data is a DataError naming the rare class.
    """
    if config.loss == "mse" or config.lambda_fixed == 0.0:
        return "mse", y, None
    folds = config.cv_folds if config.lambda_fixed is None else 1  # no CV, no folds to fill
    integer_coded = np.all(y == np.round(y))
    classes = np.unique(y) if integer_coded else y[:0]  # no sort of a continuous y
    if 2 <= len(classes) <= MAX_AUTO_CLASSES:
        labels = np.searchsorted(classes, y).astype(int)
        if multinomial_feasible(labels, folds):
            return "multinomial", labels, [float(c) for c in classes]
        if config.loss == "multinomial":
            raise _rare_class_error(y, folds)
    elif config.loss == "multinomial":
        raise DataError(
            "multinomial loss requires an integer-coded response with "
            f"2..{MAX_AUTO_CLASSES} distinct values"
        )
    return "mse", y, None


def _shrinks(choice: str, x: SampleMatrix) -> bool:
    """Shrink for `auto`, and whenever the sample estimate would be rank
    deficient (n - 1 < p); otherwise use the plain sample estimator,
    which a constant column would make singular."""
    constant = np.flatnonzero(np.all(x.values == x.values[0], axis=0))
    if choice == "sample" and x.n - 1 >= x.p:
        if constant.size:
            raise DegenerateDataError(
                f"explanatory column {x.column_names[constant[0]]!r} is constant, so its "
                "sample covariance is singular; drop it or use a shrinkage covariance"
            )
        return False
    if constant.size == x.p:
        raise DegenerateDataError("all samples identical, covariance is zero")
    return True


def crp_run(data: SampleMatrix, response: str, config: CrpConfig | None = None) -> CrpReport:
    """Run the full pipeline on `data` with `response` as the target column."""
    config = config or CrpConfig()
    response_idx = data.column_index(response)
    y = data.values[:, response_idx].copy()  # a view would pin all of `data`
    keep = [j for j in range(data.p) if j != response_idx]
    if not keep:
        raise UsageError("no explanatory columns besides the response")
    names = [data.column_names[j] for j in keep]
    x = SampleMatrix(data.values[:, keep], names)
    del data  # a caller that hands its only reference over frees the matrix here

    loss_used, target, class_levels = _resolve_loss(config, y)
    shrink = _shrinks(config.covariance, x)
    t, back, rho = _whiten(x.values, shrink)  # x is our own copy, whitened in place
    del x  # CV and refits use t
    if config.lambda_fixed is not None:
        lam = float(config.lambda_fixed)
    else:
        lam, _ = cv_select_lambda(
            t, target, loss_used, config.lambda_grid, config.cv_folds, config.seed
        )

    # the test owns t: the squared-error model centres it in place
    perm = _permutation_test(
        t, target, loss_used, lam, back, b=config.permutations, seed=config.seed
    )
    stats, p_values = perm.observed, perm.p_values
    # ascending p, then descending statistic, then column order
    order = np.lexsort((np.arange(len(names)), -stats, p_values))
    ranking = [names[j] for j in order]
    cut = perm.adjusted_p_values if config.selection == "maxt" else p_values
    selected = [names[j] for j in order if cut[j] <= config.alpha_level]

    return CrpReport(
        variable_names=names,
        response=response,
        ranking=ranking,
        selected=selected,
        p_values=p_values,
        adjusted_p_values=perm.adjusted_p_values,
        statistics=stats,
        beta=perm.beta,
        intercept=perm.fit.alpha,
        lambda_used=float(lam),
        rho_used=rho,
        loss_used=loss_used,
        covariance_used="lw2004" if shrink else "sample",
        class_levels=class_levels,
        config=asdict(config),
        seed=config.seed,
        versions={
            "covridge": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    )

