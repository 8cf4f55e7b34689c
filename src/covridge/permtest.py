"""Permutation p-values for per-variable coefficient statistics.

The observed fit is the identity permutation, so the test makes it too: at
a fixed penalty it yields, per variable, the absolute row sum of the
coefficients mapped back to original coordinates. Each of the b
permutations shuffles the target rows, refits at the same penalty in the
whitened coordinates, and maps the refit back with the same back-map. The
same solver model serves both losses: the observed fit is its stack of one,
and each batch of permuted targets is one stacked refit mapped back by one
product. For squared error every fit shares one eigendecomposition of the
design. The batches share one buffer of at most 256 targets and the
solver's stack budget (16 MiB); each row is the base target shuffled in
place, bitwise base[rng.permutation(n)] with no gather.
p_j = (1 + #{b : s_j_b >= s_j}) / (1 + b).

The p x b matrix of null statistics s_j_b is kept and also yields
family-wise adjusted p-values by the single-step maxT rule of Westfall &
Young (1993, Resampling-Based Multiple Testing): each variable is
studentized by the root mean square of its own draws, the observed one and
the null ones alike, and its observed value is compared against the
per-permutation maximum over all variables.
A refit that does not converge is lost: it leaves a NaN column in the
null matrix, is counted once in `failed`, and counts as an exceedance
for every variable, marginal and adjusted alike, so p stays on the
(1 + c) / (1 + b) lattice and the adjusted p is never below the marginal
one.

The permutations are one generator's shuffles in index order:
rng = default_rng(SeedSequence(seed, spawn_key=(1,))) shuffles row 0, then
row 1, and so on, so permutation j is base[rng.permutation(n)] at the
generator's call j. It is a pure function of (seed, j), and the first b'
null columns do not depend on b. The spawn key keeps permutation 0 apart
from the CV folds, which solver.fold_indices draws from SeedSequence([seed]).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .solver import _STACK_BYTES, RidgeFit, _fit_one

DEFAULT_PERMUTATIONS = 1000
_BATCH = 256
_FAILURE_FRACTION = 0.01


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


def permutation_pvalues(
    t: np.ndarray,
    target: np.ndarray,
    loss: str,
    lam: float,
    back: np.ndarray,
    *,
    b: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> PermutationResult:
    """Observed fit and `b` permutation p-values for every variable at the
    fixed penalty `lam`, with the permutations of `seed`.

    `t` is the whitened design and `back` maps coefficients fitted on it to
    the original coordinates. The observed fit is the identity permutation:
    its statistic is row_abs_sum(back @ gamma). An observed fit that does
    not converge raises NumericalError before any permutation runs. `t` is
    left as it was: the test runs on a copy.
    """
    return _permutation_test(np.array(t, dtype=float), target, loss, lam, back, b=b, seed=seed)


def _permutation_test(
    t: np.ndarray, target: np.ndarray, loss: str, lam: float, back: np.ndarray, *, b: int, seed: int
) -> PermutationResult:
    """`permutation_pvalues` on `t`, which its solver model owns and may
    centre in place."""
    if b < 0:
        raise UsageError(f"permutation count must be >= 0, got {b}")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    model, fit = _fit_one(t, target, loss, lam)
    back = np.asarray(back, dtype=float)
    n, r = len(model.base), fit.gamma.shape[0]
    if back.shape[1:] != (r,):
        raise UsageError(f"design {(n, r)} and back-map {back.shape} do not fit together")
    null = np.empty((back.shape[0], b))
    failed = 0
    # one buffer, allocated once, holds each batch of permuted targets
    step = max(1, min(_BATCH, b, _STACK_BYTES // (8 * n)))
    buffer = np.empty((step, n), dtype=model.base.dtype)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    for cols in _column_batches(b, step):
        rows = buffer[:cols.stop - cols.start]
        for row in rows:  # in index order: row j takes the generator's j-th shuffle
            row[:] = model.base
            rng.shuffle(row)
        _, gamma, _, converged = model.fit(np.full(len(rows), float(lam)), rows)
        lost = ~converged
        gamma[lost] = 0.0
        # one product maps the whole batch back; column b holds permutation b
        s, k = len(rows), gamma.shape[2]
        mapped = back @ gamma.transpose(1, 0, 2).reshape(r, s * k)
        block = null[:, cols]
        np.abs(mapped, out=mapped).reshape(-1, s, k).sum(axis=2, out=block)
        block[:, lost] = np.nan
        failed += int(lost.sum())
    if failed > _FAILURE_FRACTION * b:
        raise NumericalError(f"{failed} of {b} permutation refits failed (> 1% tolerated)")
    beta = back @ fit.gamma
    observed = row_abs_sum(beta)
    counts = exceedance_counts(observed, null)
    return PermutationResult(
        fit=fit,
        beta=beta,
        observed=observed,
        exceed_counts=counts,
        p_values=(1.0 + counts) / (1.0 + b),
        adjusted_p_values=maxt_adjusted_pvalues(observed, null),
        null_statistics=null,
        failed=failed,
    )


def _column_batches(b: int, step: int = _BATCH):
    return (slice(start, min(start + step, b)) for start in range(0, b, step))


def exceedance_counts(observed: np.ndarray, null: np.ndarray) -> np.ndarray:
    """#{b : s_j_b >= s_j} per variable; a NaN column (a lost refit)
    is an exceedance for every variable, since NaN < s is false."""
    counts = np.zeros(len(observed), dtype=np.int64)
    for cols in _column_batches(null.shape[1]):
        counts += np.logical_not(null[:, cols] < observed[:, None]).sum(axis=1)
    return counts


def maxt_adjusted_pvalues(observed: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Single-step maxT adjusted p-values from the p x b null statistics.

    rms_j = sqrt((s_j^2 + sum_b s_j_b^2) / (1 + #refits that succeeded)),
    t_j = s_j / rms_j, M_b = max_j s_j_b / rms_j and
    p~_j = (1 + #{b : M_b >= t_j}) / (1 + b). Studentizing puts variables
    in different units on one scale; the observed draw enters it as each
    null draw does, so all b + 1 draws are treated alike, as family-wise
    control needs. A lost refit (NaN column) has M_b = inf, so if every
    refit is lost every p~ is 1. A variable that is zero in every draw has
    no scale: it takes no part in M_b and gets p~ = 1. One that is nonzero
    only in its observed draw has t_j = sqrt(1 + #refits that succeeded),
    which no studentized draw exceeds. Temporaries stay batch-sized.
    """
    p, b = null.shape
    adjusted = np.ones(p)
    if b == 0:
        return adjusted
    lost = np.isnan(null[0])
    if lost.all():  # every M_b = inf
        return adjusted
    sum_sq = observed * observed
    for cols in _column_batches(b):
        block = null[:, cols][:, ~lost[cols]]
        sum_sq += np.einsum("jb,jb->j", block, block)
    rms = np.sqrt(sum_sq / (1 + np.count_nonzero(~lost)))
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
