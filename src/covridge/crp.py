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
from .covmat import SampleMatrix
from .errors import DataError, DegenerateDataError, UsageError
from .permtest import DEFAULT_PERMUTATIONS, PermutationConfig, permutation_pvalues
from .solver import MultinomialInfeasible, cv_select_lambda, multinomial_feasible
from .whiten import fit_whitener

DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 1e2
DEFAULT_GRID_SIZE = 50
DEFAULT_ALPHA_LEVEL = 0.05
MAX_AUTO_CLASSES = 20
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
        if self.loss not in ("auto", "mse", "multinomial"):
            raise UsageError(f"unknown loss {self.loss!r}")
        if self.covariance not in ("auto", "sample", "lw2004"):
            raise UsageError(f"unknown covariance choice {self.covariance!r}")
        if self.cv_folds < 2:
            raise UsageError(f"need at least 2 CV folds, got {self.cv_folds}")
        if self.permutations < 0:
            raise UsageError("permutation count must be >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not 0.0 < self.alpha_level < 1.0:
            raise UsageError(f"alpha level must lie in (0, 1), got {self.alpha_level}")
        if self.selection not in SELECTION_RULES:
            raise UsageError(f"unknown selection rule {self.selection!r}")
        if self.lambda_grid is not None:
            object.__setattr__(self, "lambda_grid", tuple(float(g) for g in self.lambda_grid))
        if self.lambda_fixed is not None and (
            not np.isfinite(self.lambda_fixed) or self.lambda_fixed < 0.0
        ):
            raise UsageError(f"fixed lambda must be finite and >= 0, got {self.lambda_fixed}")

    def grid(self) -> tuple[float, ...]:
        return self.lambda_grid if self.lambda_grid is not None else default_lambda_grid()


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


def _integer_coded(y: np.ndarray) -> bool:
    return bool(np.all(y == np.round(y)) and np.all(y >= 0))


def _resolve_loss(
    requested: str, y: np.ndarray, folds: int, seed: int
) -> tuple[str, np.ndarray, list[float] | None]:
    """Map the requested loss onto a concrete one plus the encoded target.

    Integer-coded responses with 2..MAX_AUTO_CLASSES distinct values go
    multinomial when the fold layout supports it; everything else is squared
    error. An explicit multinomial request on unsupportable data is an error
    rather than a silent fallback.
    """
    if requested == "mse":
        return "mse", y, None
    classes = np.unique(y)
    coded = _integer_coded(y) and 2 <= len(classes) <= MAX_AUTO_CLASSES
    if requested == "multinomial":
        if not coded:
            raise DataError(
                "multinomial loss requires an integer-coded response with "
                f"2..{MAX_AUTO_CLASSES} distinct values"
            )
        labels = np.searchsorted(classes, y).astype(int)
        if not multinomial_feasible(labels, folds, seed):
            raise MultinomialInfeasible(
                "a class is too rare for the fold layout; use --loss mse or auto"
            )
        return "multinomial", labels, [float(c) for c in classes]
    # auto
    if coded:
        labels = np.searchsorted(classes, y).astype(int)
        if multinomial_feasible(labels, folds, seed):
            return "multinomial", labels, [float(c) for c in classes]
    return "mse", y, None


def _shrinks(choice: str, x: SampleMatrix) -> bool:
    """Shrink for `lw2004`, for `auto`, and whenever the sample estimate would
    be rank deficient (n - 1 < p); otherwise use the plain sample estimator,
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
    y = data.values[:, response_idx]
    keep = [j for j in range(data.p) if j != response_idx]
    if not keep:
        raise UsageError("no explanatory columns besides the response")
    names = [data.column_names[j] for j in keep]
    x = SampleMatrix(data.values[:, keep], names)

    loss_used, target, class_levels = _resolve_loss(
        config.loss, y, config.cv_folds, config.seed
    )
    shrink = _shrinks(config.covariance, x)
    t, back, rho = fit_whitener(x, shrink)
    if config.lambda_fixed is not None:
        lam = float(config.lambda_fixed)
    else:
        lam, _ = cv_select_lambda(
            t, target, loss_used, config.grid(), config.cv_folds, config.seed
        )

    perm = permutation_pvalues(
        t, target, loss_used, lam, back, PermutationConfig(b=config.permutations, seed=config.seed)
    )
    stats, p_values = perm.observed, perm.p_values
    order = sorted(range(x.p), key=lambda j: (p_values[j], -stats[j], j))
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
        config=_config_dict(config),
        seed=config.seed,
        versions={
            "covridge": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    )


def _config_dict(config: CrpConfig) -> dict:
    out = asdict(config)
    out["lambda_grid"] = list(config.grid())
    return out
