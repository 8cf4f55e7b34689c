"""Penalized linear fits on whitened data.

Two losses share the objective
    (1/n) sum_i u(alpha + gamma' z_i, y_i) + lambda * tr(gamma' gamma)
with the intercept never penalized. Squared error has a closed form: one
eigendecomposition of the centred design's Gram matrix gives the
coefficients for any stack of targets and any penalties, so the observed
fit and all of its permutation refits share one factorization, each CV
fold's whole lambda grid takes one, and none needs a linear solve. The
multinomial logistic loss is minimized by damped Newton steps with the exact
Hessian and a backtracking (Armijo) line search, run by one engine on a
stack of fits that share the design, each with its own labels and penalty:
a CV fold's whole lambda grid is one stack, as is a batch of permutation
refits, with one linear system per member per step. K-fold cross validation
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
_STACK_BYTES = 64 << 20
_UNSOLVABLE = "Newton system could not be solved: Singular matrix"


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
    (fit,) = _fit_multinomial_stack(zv, labels[None], k, np.array([float(lam)]))
    if fit is None:
        raise NumericalError(_UNSOLVABLE)
    return fit


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _multinomial_objective(
    zv: np.ndarray, labels: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Penalized objectives (S,) of a stack of fits on the shared design zv."""
    log_probs = _log_softmax(alpha[:, None, :] + zv @ gamma)
    nll = -np.take_along_axis(log_probs, labels[:, :, None], axis=2)[:, :, 0].mean(axis=1)
    return nll + lam * (gamma * gamma).reshape(len(lam), -1).sum(axis=1)


def multinomial_gradient(
    zv: np.ndarray, labels: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the penalized multinomial objective at (alpha, gamma)."""
    design = np.column_stack([np.ones(zv.shape[0]), zv])
    labels, theta = np.asarray(labels, dtype=int)[None], np.vstack([alpha, gamma])[None]
    _, grad = _probs_and_gradient(design, labels, theta, np.array([float(lam)]))
    return grad[0, 0], grad[0, 1:]


def _probs_and_gradient(
    design: np.ndarray, labels: np.ndarray, theta: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities (S x n x k) and objective gradients of a stack at
    theta = [alpha; gamma] (S x (r+1) x k), with the shared `design` = [1, z]."""
    probs = np.exp(_log_softmax(design @ theta))
    onehot = labels[:, :, None] == np.arange(theta.shape[2])
    grad = design.T @ ((probs - onehot) / design.shape[0])
    grad[:, 1:] += 2.0 * lam[:, None, None] * theta[:, 1:]
    return probs, grad


def _multinomial_hessian(design: np.ndarray, probs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exact Hessians of the penalized multinomial objective.

    `design` is [1, z] (n x (p+1)) and `probs` the fitted class probabilities
    (... x n x k), with one penalty in `lam` per leading index. The unknowns
    are theta = [alpha; gamma] ((p+1) x k) flattened row by row, so each
    Hessian is ((p+1)k) x ((p+1)k): the sum over samples of
    design_i design_i' (x) W_i / n, with W_i = diag(p_i) - p_i p_i', plus
    2 lambda on the diagonal of the gamma block.
    """
    n, q = design.shape
    k = probs.shape[-1]
    hessian = np.empty(probs.shape[:-2] + (q * k, q * k))
    # One stacked GEMM per class pair: the entries of classes c and d form
    # design' diag(w) design with w_i = W_i[c, d] / n, a symmetric block
    # that, as W_i is symmetric, also fills the entries of d and c.
    for c in range(k):
        for d in range(c, k):
            w = probs[..., c] * (float(c == d) - probs[..., d]) / n
            block = design.T @ (design * w[..., None])
            hessian[..., c::k, d::k] = block
            hessian[..., d::k, c::k] = block
    gamma_diag = np.arange(k, q * k)
    hessian[..., gamma_diag, gamma_diag] += 2.0 * np.asarray(lam)[..., None]
    return hessian


def _fit_multinomial_stack(
    zv: np.ndarray, labels: np.ndarray, k: int, lams: np.ndarray
) -> list[RidgeFit | None]:
    """Damped Newton fits of a stack of label vectors (S x n) at penalties
    `lams` (S,) on one design; None marks a member whose Newton system could
    not be solved.

    Every operation acts on each member alone (stacked GEMM and LAPACK
    calls, reductions along the member's own axes), so a member's fit is
    bitwise the same in any stack. Each member keeps its own carried step,
    iteration count and convergence flag, and leaves the active set once it
    converges, stalls or cannot be solved. A stack is solved in parts whose
    Hessians (m x m, m = (r+1)k) and weighted designs (n x (r+1)) fit in
    _STACK_BYTES: a 256-member batch at m = 21, about a dozen at m = 753.
    """
    (n, r), s, m = zv.shape, len(lams), (zv.shape[1] + 1) * k
    chunk = max(1, _STACK_BYTES // (8 * (m * m + n * (r + 1))))
    if s > chunk:
        return [fit for start in range(0, s, chunk) for fit in _fit_multinomial_stack(
            zv, labels[start:start + chunk], k, lams[start:start + chunk])]
    design = np.column_stack([np.ones(n), zv])
    theta = np.zeros((s, r + 1, k))
    theta[:, 0] = np.log((labels[:, :, None] == np.arange(k)).mean(axis=1))
    theta[:, 0] -= theta[:, 0].mean(axis=1, keepdims=True)
    objective = _multinomial_objective(zv, labels, theta[:, 0], theta[:, 1:], lams)
    direction, slope, step = np.zeros_like(theta), np.zeros(s), np.ones(s)
    iterations = np.zeros(s, dtype=int)
    converged, solved = np.zeros(s, dtype=bool), np.ones(s, dtype=bool)

    active = np.arange(s)
    while active.size and iterations.max() < MAX_ITERATIONS:
        iterations[active] += 1
        probs, grad = _probs_and_gradient(design, labels[active], theta[active], lams[active])
        done = np.abs(grad).reshape(-1, m).max(axis=1) < GRAD_TOL
        converged[active[done]] = True
        active, probs, grad = active[~done], probs[~done], grad[~done]
        hessian = _multinomial_hessian(design, probs, lams[active])
        # The loss is flat along a common shift of alpha (u = 1 on the alpha
        # block, 0 on gamma); adding u u' makes the system definite and, as
        # the gradient is orthogonal to u, leaves the step as is.
        hessian[:, :k, :k] += 1.0
        rhs = grad.reshape(-1, m, 1)
        try:
            direction[active] = -np.linalg.solve(hessian, rhs).reshape(grad.shape)
        except np.linalg.LinAlgError:
            # one singular member makes the stacked solve raise for all
            for i, member in enumerate(active):
                try:
                    solution = np.linalg.solve(hessian[i:i + 1], rhs[i:i + 1])
                    direction[member] = -solution.reshape(r + 1, k)
                except np.linalg.LinAlgError:
                    solved[member] = False
        ok = solved[active]
        active, grad = active[ok], grad[ok]
        slope[active] = (grad * direction[active]).reshape(-1, m).sum(axis=1)

        # Carry each accepted step forward, allowing it to grow back toward 1.
        step[active] = np.minimum(1.0, 2.0 * step[active])
        trying = active
        while trying.size:
            trial = theta[trying] + step[trying, None, None] * direction[trying]
            value = _multinomial_objective(
                zv, labels[trying], trial[:, 0], trial[:, 1:], lams[trying])
            accepted = value <= objective[trying] + ARMIJO_C * step[trying] * slope[trying]
            theta[trying[accepted]], objective[trying[accepted]] = trial[accepted], value[accepted]
            trying = trying[~accepted]
            step[trying] *= 0.5
            trying = trying[step[trying] >= _MIN_STEP]
        active = active[step[active] >= _MIN_STEP]

    # Softmax probabilities are invariant to a constant shift per row of the
    # logits; centering across classes pins the representation down.
    gamma = theta[:, 1:] - theta[:, 1:].mean(axis=2, keepdims=True)
    alpha = theta[:, 0] - theta[:, 0].mean(axis=1, keepdims=True)
    objective = _multinomial_objective(zv, labels, alpha, gamma, lams)
    fits = [RidgeFit(alpha[i], gamma[i], float(lams[i]), float(objective[i]), int(iterations[i]),
                     bool(converged[i])) for i in range(s)]
    return [fit if ok else None for fit, ok in zip(fits, solved)]


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
        labels = np.asarray(target, dtype=int)[None]
        lam = np.array([fit.lam if penalized else 0.0])
        return float(_multinomial_objective(zv, labels, fit.alpha[None], fit.gamma[None], lam)[0])
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
    """One stacked fit per fold over the whole grid; an unconverged fit scores inf."""
    all_rows = np.arange(zv.shape[0])
    k, s = int(labels.max()) + 1, len(grid)
    per_fold = []
    for held in fold_list:
        train = np.setdiff1d(all_rows, held, assume_unique=True)
        fits = _fit_multinomial_stack(zv[train], np.broadcast_to(labels[train], (s, len(train))),
                                      k, np.array(grid))
        if any(fit is None for fit in fits):
            raise NumericalError(_UNSOLVABLE)
        alphas = np.array([fit.alpha for fit in fits])
        gammas = np.array([fit.gamma for fit in fits])
        losses = _multinomial_objective(zv[held], np.broadcast_to(labels[held], (s, len(held))),
                                        alphas, gammas, np.zeros(s))
        per_fold.append([float(loss) if fit.converged else float("inf")
                         for loss, fit in zip(losses, fits)])
    return per_fold
