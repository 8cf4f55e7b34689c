"""Permutation p-values for per-variable coefficient statistics.

The observed fit is the identity permutation, so the test makes it too: at
a fixed penalty it yields, per variable, the absolute row sum of the
coefficients mapped back to original coordinates. Each of the b
permutations shuffles the target rows with its own RNG stream derived from
(seed, permutation index), refits at the same penalty in the whitened
coordinates, and maps the refit back with the same back-map. The observed
squared-error fit and every refit share one eigendecomposition of the
design, with one product per batch of permuted targets; the multinomial
refits of a batch are one stacked Newton fit, and the observed fit, made by
`fit_multinomial`, is a stack of one.
p_j = (1 + #{b : s_j_b >= s_j}) / (1 + b).

The p x b matrix of null statistics s_j_b is kept and also yields
family-wise adjusted p-values by the single-step maxT rule of Westfall &
Young (1993, Resampling-Based Multiple Testing): each variable is
studentized by the root mean square of its own null draws, and its observed
value is compared against the per-permutation maximum over all variables.
A refit that cannot be solved or does not converge leaves a NaN column in
the null matrix, is counted once in `failed`, and counts as an exceedance
for every variable, marginal and adjusted alike, so p stays on the
(1 + c) / (1 + b) lattice and the adjusted p is never below the marginal
one.

Per-permutation streams are derived by index, never drawn sequentially, so
every permutation's shuffle is a pure function of (seed, index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmat import SampleMatrix
from .errors import NumericalError, UsageError
from .solver import RidgeFit, _CentredEigen, _fit_multinomial_stack, _validated, fit_multinomial

DEFAULT_PERMUTATIONS = 1000
_BATCH = 256
_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class PermutationConfig:
    b: int = DEFAULT_PERMUTATIONS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.b < 0:
            raise UsageError(f"permutation count must be >= 0, got {self.b}")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")


@dataclass
class PermutationResult:
    fit: RidgeFit
    beta: np.ndarray
    observed: np.ndarray
    exceed_counts: np.ndarray
    p_values: np.ndarray
    adjusted_p_values: np.ndarray
    null_statistics: np.ndarray
    failed: int = 0


def row_abs_sum(beta: np.ndarray) -> np.ndarray:
    """Per-variable statistic: sum of absolute coefficients across outputs."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 1:
        return np.abs(beta)
    return np.abs(beta).sum(axis=1)


def permutation_stream(seed: int, index: int) -> np.random.Generator:
    """RNG stream for permutation `index`, a pure function of (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def permutation_pvalues(
    t: SampleMatrix | np.ndarray,
    target: np.ndarray,
    loss: str,
    lam: float,
    back: np.ndarray,
    config: PermutationConfig,
) -> PermutationResult:
    """Observed fit and permutation p-values for every variable at the fixed
    penalty `lam`.

    `t` is the whitened design and `back` maps coefficients fitted on it to
    the original coordinates. The observed fit is the identity permutation:
    its statistic is row_abs_sum(back @ gamma). An observed multinomial fit
    that does not converge raises NumericalError before any permutation runs.
    """
    tv, target, k = _validated(t, target, loss, lam)
    back = np.asarray(back, dtype=float)
    if back.shape[1:] != tv.shape[1:]:
        raise UsageError(f"design {tv.shape} and back-map {back.shape} do not fit together")
    null = np.empty((back.shape[0], config.b))
    if loss == "mse":
        factor = _CentredEigen(tv)
        fit = factor.fit(target, lam)
        _mse_null_statistics(factor, target, lam, back, config, null)
        failed = 0
    else:
        fit = fit_multinomial(tv, target, lam)
        if not fit.converged:
            raise NumericalError(f"observed fit at lambda={lam:g} did not converge "
                                 f"in {fit.iterations} iterations")
        failed = _multinomial_null_statistics(tv, target, k, lam, back, config, null)
    if failed > _FAILURE_FRACTION * config.b:
        raise NumericalError(f"{failed} of {config.b} permutation refits failed (> 1% tolerated)")
    beta = back @ fit.gamma
    observed = row_abs_sum(beta)
    counts = exceedance_counts(observed, null)
    return PermutationResult(
        fit=fit,
        beta=beta,
        observed=observed,
        exceed_counts=counts,
        p_values=(1.0 + counts) / (1.0 + config.b),
        adjusted_p_values=maxt_adjusted_pvalues(observed, null),
        null_statistics=null,
        failed=failed,
    )


def _column_batches(b: int):
    return (slice(start, min(start + _BATCH, b)) for start in range(0, b, _BATCH))


def exceedance_counts(observed: np.ndarray, null: np.ndarray) -> np.ndarray:
    """#{b : s_j_b >= s_j} per variable; a NaN column (a lost refit)
    is an exceedance for every variable, since NaN < s is false."""
    counts = np.zeros(len(observed), dtype=np.int64)
    for cols in _column_batches(null.shape[1]):
        counts += np.logical_not(null[:, cols] < observed[:, None]).sum(axis=1)
    return counts


def maxt_adjusted_pvalues(observed: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Single-step maxT adjusted p-values from the p x b null statistics.

    rms_j = sqrt(mean_b s_j_b^2) over the refits that succeeded,
    t_j = s_j / rms_j, M_b = max_j s_j_b / rms_j and
    p~_j = (1 + #{b : M_b >= t_j}) / (1 + b). Studentizing puts variables
    in different units on one scale. A lost refit (NaN column) has
    M_b = inf. A variable whose null draws are all zero has no scale: it
    takes no part in M_b and gets p~ = 1. Temporaries stay batch-sized.
    """
    p, b = null.shape
    adjusted = np.ones(p)
    if b == 0:
        return adjusted
    lost = np.isnan(null[0])
    sum_sq = np.zeros(p)
    for cols in _column_batches(b):
        block = null[:, cols][:, ~lost[cols]]
        sum_sq += np.einsum("jb,jb->j", block, block)
    rms = np.sqrt(sum_sq / np.count_nonzero(~lost))
    scaled = rms > 0.0
    if not scaled.any():
        return adjusted
    maxima = np.full(b, np.inf)
    for cols in _column_batches(b):
        maxima[cols] = (null[scaled, cols] / rms[scaled, None]).max(axis=0)
    maxima[lost] = np.inf
    # #{b : M_b >= t} is b minus the number of maxima strictly below t
    below = np.searchsorted(np.sort(maxima), observed[scaled] / rms[scaled], side="left")
    adjusted[scaled] = (1.0 + b - below) / (1.0 + b)
    return adjusted


def _mse_null_statistics(
    factor: _CentredEigen,
    y: np.ndarray,
    lam: float,
    back: np.ndarray,
    config: PermutationConfig,
    null: np.ndarray,
) -> None:
    """Closed-form refits for all permutations, processed in fixed-size
    batches; writes the statistic of permutation b into column b of `null`.

    Permuting y leaves its mean unchanged, so the centered permuted target is
    just the centered target reindexed. The design never changes: the
    eigendecomposition of the observed fit serves every refit, and a batch of
    permuted targets, filled row by row, takes one product.
    """
    yc = y - y.mean()
    for cols in _column_batches(config.b):
        permuted = np.empty((cols.stop - cols.start, factor.n))
        for j in range(cols.start, cols.stop):
            permuted[j - cols.start] = yc[permutation_stream(config.seed, j).permutation(factor.n)]
        np.abs(back @ factor.coefficients(permuted.T, lam), out=null[:, cols])


def _multinomial_null_statistics(
    tv: np.ndarray,
    labels: np.ndarray,
    k: int,
    lam: float,
    back: np.ndarray,
    config: PermutationConfig,
    null: np.ndarray,
) -> int:
    """Iterative refits, one stacked Newton fit per batch of permutations;
    column b of `null` holds permutation b. Each batch is mapped back in one
    product. Returns the number of refits whose Newton system could not be
    solved or that did not converge; their columns are NaN."""
    (n, r), p = tv.shape, back.shape[0]
    failed = 0
    for cols in _column_batches(config.b):
        shuffled = np.array([labels[permutation_stream(config.seed, j).permutation(n)]
                             for j in range(cols.start, cols.stop)])
        fits = _fit_multinomial_stack(tv, shuffled, k, np.full(len(shuffled), float(lam)))
        lost = np.array([fit is None or not fit.converged for fit in fits])
        gammas = np.stack([np.zeros((r, k)) if gone else fit.gamma
                           for fit, gone in zip(fits, lost)], axis=1)
        block = np.abs(back @ gammas.reshape(r, -1)).reshape(p, -1, k).sum(axis=2)
        block[:, lost] = np.nan
        null[:, cols] = block
        failed += int(lost.sum())
    return failed
