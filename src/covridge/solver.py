"""Penalized linear fits on whitened data.

Two losses share the objective
    (1/n) sum_i u(alpha + gamma' z_i, y_i) + lambda * tr(gamma' gamma)
with the intercept never penalized. Squared error has a closed form: one
eigendecomposition of the centred design's Gram matrix gives the
coefficients for any stack of targets and any penalties, so the observed
fit and all of its permutation refits share one factorization, each CV
fold's whole lambda grid takes one, and none needs a linear solve. The
multinomial logistic loss is minimized by damped Newton steps with the exact
Hessian and a backtracking (Armijo) line search. K-fold cross validation
over a lambda grid scores each candidate by the unpenalized held-out loss;
its design and target pass the same checks as a fit's.
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


def _validated(
    z: SampleMatrix | np.ndarray, target: np.ndarray, loss: str, lam: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Check a fit's inputs; returns the design, the target as float values
    ("mse") or integer labels ("multinomial"), and the class count k."""
    zv = _values(z)
    if zv.ndim != 2:
        raise UsageError("whitened data must be a 2-D matrix")
    if not np.isfinite(lam) or lam < 0.0:
        raise UsageError(f"lambda must be finite and >= 0, got {lam}")
    if loss == "mse":
        y = np.asarray(target, dtype=float)
        if y.shape != (zv.shape[0],):
            raise UsageError(f"target has shape {y.shape}, expected ({zv.shape[0]},)")
        if not np.all(np.isfinite(y)):
            raise DataError("target contains non-finite values")
        return zv, y, 1
    if loss != "multinomial":
        raise UsageError(f"unknown loss {loss!r}")
    if lam == 0.0:
        raise UsageError("multinomial fits require lambda > 0")
    labels = np.asarray(target)
    if labels.shape != (zv.shape[0],):
        raise UsageError(f"labels have shape {labels.shape}, expected ({zv.shape[0]},)")
    if not np.all(np.isfinite(np.asarray(labels, dtype=float))):
        raise DataError("labels contain non-finite values")
    if np.any(labels != np.round(np.asarray(labels, dtype=float))):
        raise DataError("multinomial labels must be integers")
    labels = np.asarray(labels, dtype=int)
    if int(labels.min()) < 0:
        raise DataError("multinomial labels must be >= 0")
    k = int(labels.max()) + 1
    if k < 2:
        raise DataError("multinomial targets need at least 2 classes")
    if len(np.unique(labels)) != k:
        raise DataError("every class id in 0..k-1 must appear at least once")
    return zv, labels, k


@dataclass
class RidgeFit:
    """Fitted intercepts and coefficients in whitened coordinates."""

    alpha: np.ndarray
    gamma: np.ndarray
    lam: float
    objective: float
    iterations: int
    converged: bool


class _CentredEigen:
    """The column means of z, the centred design zc and one eigendecomposition
    zc'zc/n = q diag(e) q'.

    The squared-error ridge coefficients of centred targets Y at penalty lam
    are q @ ((q' zc' Y / n) / (e + lam)), so one factorization serves every
    target and every penalty.
    """

    def __init__(self, zv: np.ndarray) -> None:
        self.n = zv.shape[0]
        self.mean = zv.mean(axis=0)
        self.zc = zv - self.mean
        self.evals, self.q = np.linalg.eigh(self.zc.T @ self.zc / self.n)

    def rotated(self, yc: np.ndarray) -> np.ndarray:
        """q' zc' Y / n: the targets' cross moments in the eigenbasis."""
        return self.q.T @ (self.zc.T @ yc / self.n)

    def coefficients(self, yc: np.ndarray, lam: float) -> np.ndarray:
        """Ridge coefficients (r x m) at `lam` for a stack of centred targets (n x m)."""
        if lam == 0.0 and not float(self.evals[0]) > 1e-12 * float(self.evals[-1]):
            raise NumericalError("centered Gram matrix is singular and lambda is 0")
        return self.q @ (self.rotated(yc) / (self.evals + lam)[:, None])

    def fit(self, y: np.ndarray, lam: float) -> RidgeFit:
        """Squared-error ridge fit of the target y with unpenalized intercept."""
        y_mean = float(y.mean())
        yc = (y - y_mean)[:, None]
        gamma = self.coefficients(yc, lam)
        residual = yc - self.zc @ gamma
        objective = float(np.vdot(residual, residual)) / self.n + lam * float(np.vdot(gamma, gamma))
        return RidgeFit(
            alpha=y_mean - self.mean @ gamma,
            gamma=gamma,
            lam=float(lam),
            objective=objective,
            iterations=1,
            converged=True,
        )


def fit_mse(z: SampleMatrix | np.ndarray, y: np.ndarray, lam: float) -> RidgeFit:
    """Closed-form squared-error ridge fit with unpenalized intercept."""
    zv, y, _ = _validated(z, y, "mse", lam)
    return _CentredEigen(zv).fit(y, lam)


def fit_multinomial(z: SampleMatrix | np.ndarray, labels: np.ndarray, lam: float) -> RidgeFit:
    """Multinomial logistic ridge fit by damped Newton with Armijo backtracking."""
    zv, labels, k = _validated(z, labels, "multinomial", lam)
    return _fit_multinomial_arrays(zv, labels, k, float(lam))


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
    design = np.column_stack([np.ones(zv.shape[0]), zv])
    onehot = _one_hot(np.asarray(labels, dtype=int), gamma.shape[1])
    _, grad = _probs_and_gradient(design, onehot, np.vstack([alpha, gamma]), lam)
    return grad[0], grad[1:]


def _probs_and_gradient(
    design: np.ndarray, onehot: np.ndarray, theta: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and the objective's gradient at theta = [alpha; gamma],
    with `design` = [1, z]."""
    probs = np.exp(_log_softmax(design @ theta))
    grad = design.T @ ((probs - onehot) / design.shape[0])
    grad[1:] += 2.0 * lam * theta[1:]
    return probs, grad


def _multinomial_hessian(design: np.ndarray, probs: np.ndarray, lam: float) -> np.ndarray:
    """Exact Hessian of the penalized multinomial objective.

    `design` is [1, z] (n x (p+1)) and `probs` the fitted class probabilities
    (n x k). The unknowns are theta = [alpha; gamma] ((p+1) x k) flattened
    row by row, so the result is ((p+1)k) x ((p+1)k): the sum over samples of
    design_i design_i' (x) W_i / n, with W_i = diag(p_i) - p_i p_i', plus
    2 lambda on the diagonal of the gamma block.
    """
    n, q = design.shape
    k = probs.shape[1]
    hessian = np.empty((q * k, q * k))
    # One GEMM per class pair: the entries of classes c and d form
    # design' diag(w) design with w_i = W_i[c, d] / n, a symmetric block
    # that, as W_i is symmetric, also fills the entries of d and c.
    for c in range(k):
        for d in range(c, k):
            w = probs[:, c] * (float(c == d) - probs[:, d]) / n
            block = design.T @ (design * w[:, None])
            hessian[c::k, d::k] = block
            hessian[d::k, c::k] = block
    gamma_diag = np.arange(k, q * k)
    hessian[gamma_diag, gamma_diag] += 2.0 * lam
    return hessian


def _fit_multinomial_arrays(zv: np.ndarray, labels: np.ndarray, k: int, lam: float) -> RidgeFit:
    n, p = zv.shape
    onehot = _one_hot(labels, k)
    freq = onehot.mean(axis=0)
    design = np.column_stack([np.ones(n), zv])
    theta = np.zeros((p + 1, k))
    theta[0] = np.log(freq)
    theta[0] -= theta[0].mean()
    objective = _multinomial_objective(zv, labels, theta[0], theta[1:], lam)

    step = 1.0
    converged = False
    iteration = 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        probs, grad = _probs_and_gradient(design, onehot, theta, lam)
        if float(np.abs(grad).max()) < GRAD_TOL:
            converged = True
            break
        hessian = _multinomial_hessian(design, probs, lam)
        # The loss is flat along a common shift of alpha (u = 1 on the alpha
        # block, 0 on gamma); adding u u' makes the system definite and, as
        # the gradient is orthogonal to u, leaves the step as is.
        hessian[:k, :k] += 1.0
        try:
            direction = -np.linalg.solve(hessian, grad.ravel()).reshape(p + 1, k)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Newton system could not be solved: {exc}") from exc
        slope = float(np.sum(grad * direction))

        # Carry the accepted step forward, allowing it to grow back toward 1.
        step = min(1.0, 2.0 * step)
        while True:
            trial = theta + step * direction
            new_objective = _multinomial_objective(zv, labels, trial[0], trial[1:], lam)
            if new_objective <= objective + ARMIJO_C * step * slope:
                break
            step *= 0.5
            if step < _MIN_STEP:
                break
        if step < _MIN_STEP:
            break
        theta, objective = trial, new_objective

    # Softmax probabilities are invariant to a constant shift per row of the
    # logits; centering across classes pins the representation down.
    gamma = theta[1:] - theta[1:].mean(axis=1, keepdims=True)
    alpha = theta[0] - theta[0].mean()
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
    if loss == "multinomial":
        labels = np.asarray(target, dtype=int)
        lam = fit.lam if penalized else 0.0
        return _multinomial_objective(zv, labels, fit.alpha, fit.gamma, lam)
    if loss != "mse":
        raise UsageError(f"unknown loss {loss!r}")
    residual = np.asarray(target, dtype=float) - (fit.alpha[0] + zv @ fit.gamma[:, 0])
    value = float(residual @ residual) / zv.shape[0]
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
    resolve to the larger lambda. The design and target pass the checks of
    the fits. Multinomial targets raise MultinomialInfeasible when any fold
    misses a class, and a lambda at which a fold's fit does not converge has
    an infinite loss.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise UsageError("lambda grid is empty")
    for lam in grid:
        if not np.isfinite(lam) or lam < 0.0 or (loss == "multinomial" and lam == 0.0):
            raise UsageError(f"invalid lambda {lam} in grid for loss {loss!r}")
    # every grid value is a valid penalty by now, so only z and the target are checked
    zv, target, _ = _validated(z, target, loss, grid[0])

    fold_list = fold_indices(zv.shape[0], folds, seed)
    if loss == "multinomial" and not multinomial_feasible(target, folds, seed):
        raise MultinomialInfeasible("a CV fold is missing a class; multinomial loss is infeasible")
    if loss == "mse":
        fold_losses = _cv_mse_losses(zv, target, grid, fold_list)
    else:
        fold_losses = _cv_multinomial_losses(zv, target, grid, fold_list)

    means = [float(np.mean([fold_losses[f][i] for f in range(folds)])) for i in range(len(grid))]
    best = min(range(len(grid)), key=lambda i: (means[i], -grid[i]))
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
        factor = _CentredEigen(zv[train])
        y_mean = float(y[train].mean())
        # One column of coefficients per lambda; a lambda with e + lambda <= 0
        # has no ridge solution and scores inf.
        denom = factor.evals[:, None] + grid
        solvable = denom.min(axis=0) > 0.0
        denom[:, ~solvable] = np.inf
        gammas = factor.q @ (factor.rotated(y[train] - y_mean)[:, None] / denom)
        residuals = y[held, None] - (y_mean - factor.mean @ gammas + zv[held] @ gammas)
        losses = np.einsum("ij,ij->j", residuals, residuals) / len(held)
        per_fold.append(np.where(solvable, losses, np.inf).tolist())
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
