"""Penalized linear fits on whitened data.

Two losses share the objective
    (1/n) sum_i u(alpha + gamma' z_i, y_i) + lambda * tr(gamma' gamma)
with the intercept never penalized: squared error has a closed form, the
multinomial logistic loss is minimized by full-batch gradient descent with
a backtracking (Armijo) line search. K-fold cross validation over a lambda
grid scores each candidate by the unpenalized held-out loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covmat import SampleMatrix
from .errors import DataError, NumericalError, UsageError

GRAD_TOL = 1e-6
MAX_ITERATIONS = 10_000
ARMIJO_C = 1e-4
_MIN_STEP = 1e-20


class MultinomialInfeasible(DataError):
    """The fold layout cannot support a multinomial fit (a class is too rare)."""


def _values(z: SampleMatrix | np.ndarray) -> np.ndarray:
    if isinstance(z, SampleMatrix):
        return z.values
    return np.asarray(z, dtype=float)


@dataclass(frozen=True)
class RidgeProblem:
    """A validated fit instance: whitened data, target, loss tag and penalty."""

    z: np.ndarray
    target: np.ndarray
    loss: str
    k: int
    lam: float

    @classmethod
    def build(
        cls, z: SampleMatrix | np.ndarray, target: np.ndarray, loss: str, lam: float
    ) -> "RidgeProblem":
        zv = _values(z)
        if zv.ndim != 2:
            raise UsageError("whitened data must be a 2-D matrix")
        if not np.isfinite(lam) or lam < 0.0:
            raise UsageError(f"lambda must be finite and >= 0, got {lam}")
        if loss == "mse":
            y = np.asarray(target, dtype=float)
            if y.shape != (zv.shape[0],):
                raise UsageError(
                    f"target has shape {y.shape}, expected ({zv.shape[0]},)"
                )
            if not np.all(np.isfinite(y)):
                raise DataError("target contains non-finite values")
            return cls(zv, y, "mse", 1, float(lam))
        if loss == "multinomial":
            if lam == 0.0:
                raise UsageError("multinomial fits require lambda > 0")
            labels = np.asarray(target)
            if labels.shape != (zv.shape[0],):
                raise UsageError(
                    f"labels have shape {labels.shape}, expected ({zv.shape[0]},)"
                )
            if not np.all(np.isfinite(np.asarray(labels, dtype=float))):
                raise DataError("labels contain non-finite values")
            if np.any(labels != np.round(np.asarray(labels, dtype=float))):
                raise DataError("multinomial labels must be integers")
            labels = np.asarray(labels, dtype=int)
            if int(labels.min()) < 0:
                raise DataError("multinomial labels must be >= 0")
            k = int(labels.max()) + 1
            present = np.unique(labels)
            if k < 2:
                raise DataError("multinomial targets need at least 2 classes")
            if len(present) != k:
                raise DataError("every class id in 0..k-1 must appear at least once")
            return cls(zv, labels, "multinomial", k, float(lam))
        raise UsageError(f"unknown loss {loss!r}")


@dataclass
class RidgeFit:
    """Fitted intercepts and coefficients in whitened coordinates."""

    alpha: np.ndarray
    gamma: np.ndarray
    lam: float
    objective: float
    iterations: int
    converged: bool


def fit_ridge(problem: RidgeProblem) -> RidgeFit:
    if problem.loss == "mse":
        return _fit_mse_arrays(problem.z, problem.target, problem.lam)
    return _fit_multinomial_arrays(problem.z, problem.target, problem.k, problem.lam)


def fit_mse(z: SampleMatrix | np.ndarray, y: np.ndarray, lam: float) -> RidgeFit:
    """Closed-form squared-error ridge fit with unpenalized intercept."""
    return fit_ridge(RidgeProblem.build(z, y, "mse", lam))


def fit_multinomial(z: SampleMatrix | np.ndarray, labels: np.ndarray, lam: float) -> RidgeFit:
    """Multinomial logistic ridge fit by gradient descent with Armijo backtracking."""
    problem = RidgeProblem.build(z, labels, "multinomial", lam)
    return _fit_multinomial_arrays(problem.z, problem.target, problem.k, problem.lam)


def _fit_mse_arrays(zv: np.ndarray, y: np.ndarray, lam: float) -> RidgeFit:
    n, p = zv.shape
    z_mean = zv.mean(axis=0)
    y_mean = float(y.mean())
    zc = zv - z_mean
    yc = y - y_mean
    gram = zc.T @ zc / n
    if lam == 0.0:
        evals = np.linalg.eigvalsh(gram)
        if not float(evals[0]) > 1e-12 * float(evals[-1]):
            raise NumericalError("centered Gram matrix is singular and lambda is 0")
    try:
        gamma = np.linalg.solve(gram + lam * np.eye(p), zc.T @ yc / n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge system could not be solved: {exc}") from exc
    alpha = y_mean - float(gamma @ z_mean)
    residual = yc - zc @ gamma
    objective = float(residual @ residual) / n + lam * float(gamma @ gamma)
    return RidgeFit(
        alpha=np.array([alpha]),
        gamma=gamma[:, None],
        lam=lam,
        objective=objective,
        iterations=1,
        converged=True,
    )


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], k))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _multinomial_objective(
    zv: np.ndarray, labels: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lam: float
) -> float:
    log_probs = _log_softmax(alpha + zv @ gamma)
    nll = -float(log_probs[np.arange(zv.shape[0]), labels].mean())
    return nll + lam * float(np.sum(gamma * gamma))


def multinomial_gradient(
    zv: np.ndarray, labels: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the penalized multinomial objective at (alpha, gamma)."""
    n = zv.shape[0]
    onehot = _one_hot(np.asarray(labels, dtype=int), gamma.shape[1])
    probs = np.exp(_log_softmax(alpha + zv @ gamma))
    diff = (probs - onehot) / n
    return diff.sum(axis=0), zv.T @ diff + 2.0 * lam * gamma


def _fit_multinomial_arrays(zv: np.ndarray, labels: np.ndarray, k: int, lam: float) -> RidgeFit:
    n, p = zv.shape
    onehot = _one_hot(labels, k)
    freq = onehot.mean(axis=0)
    alpha = np.log(freq)
    alpha -= alpha.mean()
    gamma = np.zeros((p, k))
    objective = _multinomial_objective(zv, labels, alpha, gamma, lam)

    step = 1.0
    converged = False
    iteration = 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        grad_alpha, grad_gamma = multinomial_gradient(zv, labels, alpha, gamma, lam)
        grad_max = max(float(np.abs(grad_alpha).max()), float(np.abs(grad_gamma).max()))
        if grad_max < GRAD_TOL:
            converged = True
            break
        grad_sq = float(grad_alpha @ grad_alpha) + float(np.sum(grad_gamma * grad_gamma))

        # Carry the accepted step forward, allowing it to grow back toward 1.
        step = min(1.0, 2.0 * step)
        while True:
            new_alpha = alpha - step * grad_alpha
            new_gamma = gamma - step * grad_gamma
            new_objective = _multinomial_objective(zv, labels, new_alpha, new_gamma, lam)
            if new_objective <= objective - ARMIJO_C * step * grad_sq:
                break
            step *= 0.5
            if step < _MIN_STEP:
                break
        if step < _MIN_STEP:
            break
        alpha, gamma, objective = new_alpha, new_gamma, new_objective

    # Softmax probabilities are invariant to a constant shift per row of the
    # logits; centering across classes pins the representation down.
    gamma = gamma - gamma.mean(axis=1, keepdims=True)
    alpha = alpha - alpha.mean()
    objective = _multinomial_objective(zv, labels, alpha, gamma, lam)
    return RidgeFit(
        alpha=alpha,
        gamma=gamma,
        lam=lam,
        objective=objective,
        iterations=iteration,
        converged=converged,
    )


def loss_value(
    fit: RidgeFit,
    z: SampleMatrix | np.ndarray,
    target: np.ndarray,
    loss: str,
    penalized: bool,
) -> float:
    """Mean loss of `fit` on (z, target); adds the ridge penalty when asked."""
    zv = _values(z)
    if loss == "mse":
        y = np.asarray(target, dtype=float)
        residual = y - (fit.alpha[0] + zv @ fit.gamma[:, 0])
        value = float(residual @ residual) / zv.shape[0]
    elif loss == "multinomial":
        labels = np.asarray(target, dtype=int)
        log_probs = _log_softmax(fit.alpha + zv @ fit.gamma)
        value = -float(log_probs[np.arange(zv.shape[0]), labels].mean())
    else:
        raise UsageError(f"unknown loss {loss!r}")
    if penalized:
        value += fit.lam * float(np.sum(fit.gamma * fit.gamma))
    return value


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic shuffled fold assignment: a seeded permutation split into
    `folds` nearly equal contiguous blocks."""
    if folds < 2:
        raise UsageError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise UsageError(f"cannot split {n} samples into {folds} folds")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return np.array_split(rng.permutation(n), folds)


def multinomial_feasible(labels: np.ndarray, folds: int, seed: int) -> bool:
    """Whether a multinomial CV fit is possible under the seeded fold layout.

    Requires every class to hold at least `folds` samples and every fold to
    contain every class; either failure is the signal to fall back to the
    squared-error loss.
    """
    labels = np.asarray(labels, dtype=int)
    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() < folds:
        return False
    for fold in fold_indices(labels.shape[0], folds, seed):
        if len(np.unique(labels[fold])) != len(classes):
            return False
    return True


def cv_select_lambda(
    z: SampleMatrix | np.ndarray,
    target: np.ndarray,
    loss: str,
    grid: Sequence[float],
    folds: int,
    seed: int,
) -> tuple[float, list[float]]:
    """Pick lambda from `grid` by K-fold CV on the unpenalized held-out loss.

    Returns (selected lambda, per-lambda mean CV losses in grid order). Ties
    resolve to the larger lambda. Multinomial targets raise
    MultinomialInfeasible when any fold misses a class, and a lambda at which
    a fold's fit does not converge has an infinite loss.
    """
    zv = _values(z)
    n = zv.shape[0]
    grid = [float(g) for g in grid]
    if not grid:
        raise UsageError("lambda grid is empty")
    for lam in grid:
        if not np.isfinite(lam) or lam < 0.0 or (loss == "multinomial" and lam == 0.0):
            raise UsageError(f"invalid lambda {lam} in grid for loss {loss!r}")
    if loss not in ("mse", "multinomial"):
        raise UsageError(f"unknown loss {loss!r}")

    fold_list = fold_indices(n, folds, seed)
    if loss == "multinomial" and not multinomial_feasible(target, folds, seed):
        raise MultinomialInfeasible("a CV fold is missing a class; multinomial loss is infeasible")
    if loss == "mse":
        fold_losses = _cv_mse_losses(zv, np.asarray(target, dtype=float), grid, fold_list)
    else:
        fold_losses = _cv_multinomial_losses(zv, np.asarray(target, dtype=int), grid, fold_list)

    means = [float(np.mean([fold_losses[f][i] for f in range(folds)])) for i in range(len(grid))]
    best = 0
    for i in range(1, len(grid)):
        if means[i] < means[best] or (means[i] == means[best] and grid[i] > grid[best]):
            best = i
    if not np.isfinite(means[best]):
        raise NumericalError("no lambda in the grid produced a finite CV loss")
    return grid[best], means


def _cv_mse_losses(
    zv: np.ndarray, y: np.ndarray, grid: list[float], fold_list: list[np.ndarray]
) -> list[list[float]]:
    all_rows = np.arange(zv.shape[0])
    per_fold: list[list[float]] = []
    for held in fold_list:
        train = np.setdiff1d(all_rows, held, assume_unique=True)
        z_tr, y_tr = zv[train], y[train]
        z_mean = z_tr.mean(axis=0)
        y_mean = float(y_tr.mean())
        zc = z_tr - z_mean
        yc = y_tr - y_mean
        m = z_tr.shape[0]
        gram = zc.T @ zc / m
        cross = zc.T @ yc / m
        # One eigendecomposition per fold serves the whole grid.
        evals, q = np.linalg.eigh(gram)
        rotated = q.T @ cross
        z_held = zv[held]
        y_held = y[held]
        losses = []
        for lam in grid:
            denom = evals + lam
            if float(denom.min()) <= 0.0:
                losses.append(float("inf"))
                continue
            gamma = q @ (rotated / denom)
            alpha = y_mean - float(gamma @ z_mean)
            residual = y_held - (alpha + z_held @ gamma)
            losses.append(float(residual @ residual) / y_held.shape[0])
        per_fold.append(losses)
    return per_fold


def _cv_multinomial_losses(
    zv: np.ndarray, labels: np.ndarray, grid: list[float], fold_list: list[np.ndarray]
) -> list[list[float]]:
    all_rows = np.arange(zv.shape[0])
    per_fold = []
    for held in fold_list:
        train = np.setdiff1d(all_rows, held, assume_unique=True)
        losses = []
        for lam in grid:
            fit = fit_multinomial(zv[train], labels[train], lam)
            held_loss = loss_value(fit, zv[held], labels[held], "multinomial", penalized=False)
            # a fit stopped short of its minimum does not score its lambda
            losses.append(held_loss if fit.converged else float("inf"))
        per_fold.append(losses)
    return per_fold
