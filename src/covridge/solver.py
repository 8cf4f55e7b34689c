"""Penalized linear fits on whitened data.

Two losses share the objective
    (1/n) sum_i u(alpha + gamma' z_i, y_i) + lambda * tr(gamma' gamma)
with the intercept never penalized, and one model shape: a model is built
once per (design, target) and fits a stack of members at penalties lams,
each either the target itself or a reindexed copy of it, returning alpha,
gamma, iterations and converged per member; a static held-out loss scores
any stack. Cross validation fits a fold's whole lambda grid as one
stack, and multinomial CV the grids of several folds, the permutation test
each batch of refits, and a single fit (`fit_mse`, `fit_multinomial`, the
observed fit) is a stack of one. A model owns the design it is given and
may centre it in place.

Squared error has a closed form: one eigendecomposition of the centred
design's Gram matrix gives the coefficients for any stack of targets and
penalties, so no fit needs a linear solve. A penalty that does not lift
the Gram matrix's smallest eigenvalue above 1e-12 of its largest
(`EIGEN_FLOOR_REL`) leaves no unique minimiser, and that member has not
converged. The multinomial logistic loss is minimized by damped Newton
steps with the exact Hessian and a backtracking (Armijo) line search, one
linear system per member per step, which reuses the line search's class
probabilities and builds the last class's Hessian blocks from the others.

One failure rule holds for both: a member either converges or is lost. A
lost single fit raises NumericalError, and a lost CV member scores an
infinite loss. K-fold cross validation over a lambda grid scores each
candidate by the unpenalized held-out loss; its design and target pass the
same checks as a fit's.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covmat import EIGEN_FLOOR_REL
from .errors import DataError, NumericalError, UsageError

GRAD_TOL = 1e-6
MAX_ITERATIONS = 10_000
ARMIJO_C = 1e-4
_MIN_STEP = 1e-20
_STACK_BYTES = 16 << 20


def _validated(
    z: np.ndarray, target: np.ndarray, loss: str, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Check a fit's inputs; returns the design and the target as float values
    ("mse") or integer labels ("multinomial")."""
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 2:
        raise UsageError("whitened data must be a 2-D matrix")
    if not np.isfinite(lam) or lam < 0.0:
        raise UsageError(f"lambda must be finite and >= 0, got {lam}")
    if loss not in _MODELS:
        raise UsageError(f"unknown loss {loss!r}")
    if loss == "mse":
        y = np.asarray(target, dtype=float)
        if y.shape != (zv.shape[0],):
            raise UsageError(f"target has shape {y.shape}, expected ({zv.shape[0]},)")
        if not np.all(np.isfinite(y)):
            raise DataError("target contains non-finite values")
        return zv, y
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
    return zv, labels


@dataclass
class RidgeFit:
    """Fitted intercepts and coefficients in whitened coordinates."""

    alpha: np.ndarray
    gamma: np.ndarray
    lam: float
    iterations: int


class _MseModel:
    """Squared-error ridge fits of y and of reindexed copies of its centred
    values `base` = y - mean(y), on one design. Permuting y leaves its mean
    unchanged, so a permuted target centres to `base` reindexed.

    The column means of z, z centred in place as zc and one eigendecomposition
    zc'zc/n = q diag(e) q' give the coefficients q @ ((q' zc' Y / n) / (e + lam))
    of any stack of centred targets Y at any penalties, with no linear solve.
    A penalty with e[0] + lam <= EIGEN_FLOOR_REL e[-1] leaves no unique
    minimiser: that member has not converged, and its gamma is 0.
    """

    stalled = "has no unique minimiser: the centered Gram matrix is singular"

    def __init__(self, z: np.ndarray, y: np.ndarray) -> None:
        self.n, self.mean = z.shape[0], z.mean(axis=0)
        self.zc = np.subtract(z, self.mean, out=z)
        self.evals, self.q = np.linalg.eigh(self.zc.T @ self.zc / self.n)
        self.y_mean = float(y.mean())
        self.base = y - self.y_mean

    def fit(self, lams: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """(alpha (S x 1), gamma (S x r x 1), iterations, converged) at
        `lams` (S,) for the rows of `rows` (S x n), or for `base` when None."""
        if rows is None:
            # a shared target is rotated once, as a vector
            rotated = (self.q.T @ (self.zc.T @ self.base / self.n))[:, None]
        else:
            rotated = self.q.T @ (self.zc.T @ rows.T / self.n)
        converged = self.evals[0] + lams > EIGEN_FLOOR_REL * self.evals[-1]
        gamma = self.q @ (rotated / (self.evals[:, None] + np.where(converged, lams, np.inf)))
        alpha = self.y_mean - self.mean @ gamma
        # gamma stays r x S in memory, so a stack's products keep their layout
        iterations = np.ones(len(lams), dtype=int)
        return alpha[:, None], gamma.T[:, :, None], iterations, converged

    @staticmethod
    def loss(
        zv: np.ndarray, target: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lams: np.ndarray
    ) -> np.ndarray:
        """Mean squared errors plus lams * |gamma|^2 (S,) of a stack of fits."""
        gamma = gamma[:, :, 0].T
        residual = zv @ gamma  # the one (n x S) array: alpha and target act in place
        residual += alpha[:, 0]
        np.subtract(np.asarray(target, dtype=float)[:, None], residual, out=residual)
        return (np.einsum("ij,ij->j", residual, residual) / zv.shape[0]
                + lams * np.einsum("ij,ij->j", gamma, gamma))


class _MultinomialModel:
    """Multinomial logistic ridge fits of the labels `base` and of reindexed
    copies of them, on one design or one per CV fold, by the stacked Newton
    engine. The model keeps each design only as `design` = [1, z]."""

    stalled = "did not converge in {iterations} iterations"

    def __init__(self, z: np.ndarray, labels: np.ndarray) -> None:
        # z (n x r) and labels (n,), or one of each per CV fold (F x n x r, F x n)
        self.base, self.k = labels, int(labels.max()) + 1
        self.design = np.concatenate([np.ones(z.shape[:-1] + (1,)), z], axis=-1)

    def fit(self, lams: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """(alpha (S x k), gamma (S x r x k), iterations, converged) at
        `lams` (S,) for the rows of `rows` (S x n), or for `base` when None; a
        model of F folds fits each fold's labels at every penalty (F S members)."""
        designs = self.design.reshape((-1,) + self.design.shape[-2:])
        f, n = designs.shape[:2]
        if rows is None:
            rows = np.broadcast_to(self.base.reshape(f, 1, n), (f, len(lams), n)).reshape(-1, n)
        return _newton(designs, np.repeat(np.arange(f), len(lams)), rows, self.k, np.tile(lams, f))

    @staticmethod
    def loss(
        zv: np.ndarray, labels: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lams: np.ndarray
    ) -> np.ndarray:
        """Mean negative log-likelihoods plus lams * |gamma|^2 (S,) of a stack
        of fits; `labels` is one vector (n,) or one per member (S x n)."""
        labels = np.broadcast_to(np.asarray(labels, dtype=int), (len(lams), zv.shape[0]))
        return _penalized_nll(_log_softmax(alpha[:, None, :] + zv @ gamma), labels, gamma, lams)


_MODELS = {"mse": _MseModel, "multinomial": _MultinomialModel}


def _fit_one(
    z: np.ndarray, target: np.ndarray, loss: str, lam: float
) -> tuple[_MseModel | _MultinomialModel, RidgeFit]:
    """The loss's model of (z, target), which owns z, and its fit of the
    target at `lam`, a stack of one; raises NumericalError with the model's
    reason when the fit has not converged."""
    zv, target = _validated(z, target, loss, lam)
    model = _MODELS[loss](zv, target)
    alpha, gamma, iterations, converged = model.fit(np.array([float(lam)]))
    if not converged[0]:
        stalled = model.stalled.format(iterations=iterations[0])
        raise NumericalError(f"fit at lambda={lam:g} {stalled}")
    return model, RidgeFit(alpha[0], gamma[0], float(lam), int(iterations[0]))


def fit_mse(z: np.ndarray, y: np.ndarray, lam: float) -> RidgeFit:
    """Closed-form squared-error ridge fit with unpenalized intercept; raises
    NumericalError when lambda is too small to give a unique minimiser."""
    return _fit_one(np.array(z, dtype=float), y, "mse", lam)[1]


def fit_multinomial(z: np.ndarray, labels: np.ndarray, lam: float) -> RidgeFit:
    """Multinomial logistic ridge fit by damped Newton with Armijo backtracking;
    raises NumericalError when it does not converge."""
    return _fit_one(np.array(z, dtype=float), labels, "multinomial", lam)[1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # a class-by-class maximum beats a reduction over the short last axis
    top = functools.reduce(np.maximum, np.moveaxis(logits, -1, 0))[..., None]
    shifted = logits - top
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _penalized_nll(
    log_probs: np.ndarray, labels: np.ndarray, gamma: np.ndarray, lams: np.ndarray
) -> np.ndarray:
    """The penalized objectives (S,) of a stack from its log-probabilities (S x n x k)."""
    nll = -np.take_along_axis(log_probs, labels[:, :, None], axis=2)[:, :, 0].mean(axis=1)
    return nll + lams * (gamma * gamma).reshape(len(lams), -1).sum(axis=1)


def multinomial_gradient(
    zv: np.ndarray, labels: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the penalized multinomial objective at (alpha, gamma)."""
    design = np.column_stack([np.ones(zv.shape[0]), zv])
    labels, theta = np.asarray(labels, dtype=int)[None], np.vstack([alpha, gamma])[None]
    probs = np.exp(_log_softmax(design @ theta))
    grad = _gradient(design, labels, probs, theta, np.array([float(lam)]))
    return grad[0, 0], grad[0, 1:]


def _gradient(
    design: np.ndarray, labels: np.ndarray, probs: np.ndarray, theta: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Objective gradients of a stack at theta = [alpha; gamma] (S x (r+1) x k),
    with class probabilities `probs` (S x n x k) there and `design` = [1, z]."""
    onehot = labels[:, :, None] == np.arange(theta.shape[2])
    grad = design.swapaxes(-1, -2) @ ((probs - onehot) / design.shape[-2])
    grad[:, 1:] += 2.0 * lam[:, None, None] * theta[:, 1:]
    return grad


def _multinomial_hessian(design: np.ndarray, probs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exact Hessians of the penalized multinomial objective.

    `design` is [1, z] (... x n x (p+1)) and `probs` the fitted class
    probabilities (... x n x k), with one penalty in `lam` per leading index.
    The unknowns are theta = [alpha; gamma] ((p+1) x k) flattened row by row,
    so each Hessian is ((p+1)k) x ((p+1)k): the sum over samples of
    design_i design_i' (x) W_i / n, with W_i = diag(p_i) - p_i p_i', plus
    2 lambda on the diagonal of the gamma block. As W_i has zero row sums,
    the blocks H_cd of the last class l follow from the others (Boehning
    1992): H_cl = -sum_{d<l} H_cd and H_ll = -sum_{c<l} H_cl.
    """
    n, q = design.shape[-2:]
    k, last = probs.shape[-1], probs.shape[-1] - 1
    hessian = np.empty(probs.shape[:-2] + (q * k, q * k))
    # One stacked GEMM per class pair below the last class: the entries of
    # classes c and d form design' diag(w) design with w_i = W_i[c, d] / n, a
    # symmetric block that, as W_i is symmetric, also fills those of d and c.
    for c in range(last):
        for d in range(c, last):
            w = probs[..., c] * (float(c == d) - probs[..., d]) / n
            block = design.swapaxes(-1, -2) @ (design * w[..., None])
            hessian[..., c::k, d::k] = block
            hessian[..., d::k, c::k] = block
    for c in range(last):
        block = -sum(hessian[..., c::k, d::k] for d in range(last))
        hessian[..., c::k, last::k] = hessian[..., last::k, c::k] = block
    hessian[..., last::k, last::k] = -sum(hessian[..., c::k, last::k] for c in range(last))
    gamma_diag = np.arange(k, q * k)
    hessian[..., gamma_diag, gamma_diag] += 2.0 * np.asarray(lam)[..., None]
    return hessian


def _member_bytes(n: int, q: int, k: int, shared: bool) -> int:
    """Bytes of a Newton member's Hessian, weighted design, log-probabilities
    and, unless shared, design, on an n x q design with k classes."""
    return 8 * ((q * k) ** 2 + (2 - shared) * n * q + n * k)


def _newton(
    designs: np.ndarray, which: np.ndarray, labels: np.ndarray, k: int, lams: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Damped Newton fits of a stack of label vectors (S x n) at penalties
    `lams` (S,), member i on the design `designs[which[i]]` = [1, z], z (n x r),
    of a stack of F designs (F x n x (r+1)): (alpha (S x k), gamma (S x r x k),
    iterations, converged). A member whose Newton system is singular stops
    unconverged, as one whose line search stalls does.

    Every operation acts on each member alone (stacked GEMM and LAPACK
    calls, reductions along the member's own axes), so a member's fit is
    bitwise the same in any stack. Each member keeps its own class
    log-probabilities (those of design @ theta, from its accepted line-search
    trial), carried step, iteration count and convergence flag, and leaves
    the active set once it converges or stalls. One design (F = 1) is shared
    by broadcasting; of several, each step gathers every member's own. A
    stack is fitted in parts whose working sets (`_member_bytes`) fit in
    _STACK_BYTES: 1080 members at n = 150 and m = 21 on a shared design, 3
    at n = 300 and m = 753.
    """
    (f, n, q), s, m = designs.shape, len(lams), designs.shape[2] * k
    chunk = max(1, _STACK_BYTES // _member_bytes(n, q, k, f == 1))
    if s > chunk:
        parts = [_newton(designs, which[start:start + chunk], labels[start:start + chunk], k,
                         lams[start:start + chunk]) for start in range(0, s, chunk)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def design(members: np.ndarray) -> np.ndarray:
        return designs if f == 1 else designs[which[members]]

    theta = np.zeros((s, q, k))
    theta[:, 0] = np.log((labels[:, :, None] == np.arange(k)).mean(axis=1))
    theta[:, 0] -= theta[:, 0].mean(axis=1, keepdims=True)
    log_probs = _log_softmax(design(np.arange(s)) @ theta)
    objective = _penalized_nll(log_probs, labels, theta[:, 1:], lams)
    direction, slope, step = np.zeros_like(theta), np.zeros(s), np.ones(s)
    iterations = np.zeros(s, dtype=int)
    converged = np.zeros(s, dtype=bool)

    active = np.arange(s)
    while active.size and iterations.max() < MAX_ITERATIONS:
        iterations[active] += 1
        probs = np.exp(log_probs[active])
        grad = _gradient(design(active), labels[active], probs, theta[active], lams[active])
        done = np.abs(grad).reshape(-1, m).max(axis=1) < GRAD_TOL
        converged[active[done]] = True
        active, probs, grad = active[~done], probs[~done], grad[~done]
        hessian = _multinomial_hessian(design(active), probs, lams[active])
        # The loss is flat along a common shift of alpha (u = 1 on the alpha
        # block, 0 on gamma); adding u u' makes the system definite and, as
        # the gradient is orthogonal to u, leaves the step as is.
        hessian[:, :k, :k] += 1.0
        rhs = grad.reshape(-1, m, 1)
        try:
            direction[active] = -np.linalg.solve(hessian, rhs).reshape(grad.shape)
        except np.linalg.LinAlgError:
            # one singular member makes the stacked solve raise for all; a
            # member whose own system is singular takes no step, so it stalls
            for i, member in enumerate(active):
                try:
                    solution = np.linalg.solve(hessian[i:i + 1], rhs[i:i + 1])
                    direction[member] = -solution.reshape(q, k)
                except np.linalg.LinAlgError:
                    direction[member], step[member] = 0.0, 0.0
        slope[active] = (grad * direction[active]).reshape(-1, m).sum(axis=1)

        # Carry each accepted step forward, allowing it to grow back toward 1.
        step[active] = np.minimum(1.0, 2.0 * step[active])
        trying = active
        while trying.size:
            trial = theta[trying] + step[trying, None, None] * direction[trying]
            trial_log_probs = _log_softmax(design(trying) @ trial)
            value = _penalized_nll(trial_log_probs, labels[trying], trial[:, 1:], lams[trying])
            accepted = value <= objective[trying] + ARMIJO_C * step[trying] * slope[trying]
            theta[trying[accepted]], objective[trying[accepted]] = trial[accepted], value[accepted]
            log_probs[trying[accepted]] = trial_log_probs[accepted]
            del trial_log_probs  # so only the kept log-probabilities outlive the search
            trying = trying[~accepted]
            step[trying] *= 0.5
            trying = trying[step[trying] >= _MIN_STEP]
        active = active[step[active] >= _MIN_STEP]

    # Softmax probabilities are invariant to a constant shift per row of the
    # logits; centering across classes pins the representation down.
    gamma = theta[:, 1:] - theta[:, 1:].mean(axis=2, keepdims=True)
    alpha = theta[:, 0] - theta[:, 0].mean(axis=1, keepdims=True)
    return alpha, gamma, iterations, converged


def loss_value(
    fit: RidgeFit,
    z: np.ndarray,
    target: np.ndarray,
    loss: str,
    penalized: bool,
) -> float:
    """Mean loss of `fit` on (z, target); adds the ridge penalty when asked."""
    if loss not in _MODELS:
        raise UsageError(f"unknown loss {loss!r}")
    lam = np.array([fit.lam if penalized else 0.0])
    zv = np.asarray(z, dtype=float)
    return float(_MODELS[loss].loss(zv, target, fit.alpha[None], fit.gamma[None], lam)[0])


def fold_indices(
    n: int, folds: int, seed: int, labels: np.ndarray | None = None
) -> list[np.ndarray]:
    """Deterministic folds of a seeded permutation: without `labels`, split
    into `folds` nearly equal contiguous blocks; with class `labels`, dealt
    by class (Kohavi 1995): stably sorted by label, position i goes to fold
    i mod `folds`, and each fold's indices are sorted. Fold sizes are the
    same either way, and every class with `folds` members is in every fold."""
    if folds < 2:
        raise UsageError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise UsageError(f"cannot split {n} samples into {folds} folds")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    order = np.random.default_rng(np.random.SeedSequence([seed])).permutation(n)
    if labels is None:
        return np.array_split(order, folds)
    order = order[np.argsort(np.asarray(labels)[order], kind="stable")]
    return [np.sort(order[f::folds]) for f in range(folds)]


def multinomial_feasible(labels: np.ndarray, folds: int) -> bool:
    """Whether a multinomial CV fit is possible: every class holds at least
    `folds` samples, so each class-dealt fold holds every class."""
    return bool(np.unique(labels, return_counts=True)[1].min() >= folds)


def _rare_class_error(codes: np.ndarray, folds: int) -> DataError:
    """The error for class codes that `multinomial_feasible` rejects: it names
    the rarest class and its count."""
    classes, counts = np.unique(codes, return_counts=True)
    rare = int(counts.argmin())
    return DataError(f"class {classes[rare]:g} has {counts[rare]} samples, fewer than the "
                     f"{folds} CV folds; the multinomial loss needs every class in every fold")


def cv_select_lambda(
    z: np.ndarray,
    target: np.ndarray,
    loss: str,
    grid: Sequence[float],
    folds: int,
    seed: int,
) -> tuple[float, list[float]]:
    """Pick lambda from `grid` by K-fold CV on the unpenalized held-out loss.

    Returns (selected lambda, per-lambda mean CV losses in grid order). Ties
    resolve to the larger lambda. The design and target pass the checks of
    the fits. Multinomial folds are dealt by class (`fold_indices`), and a
    class with fewer members than folds raises DataError. A lambda at which
    a fold's fit does not converge has an infinite loss. Consecutive
    multinomial folds of one training size share one stack, as many as fit
    _STACK_BYTES with their designs; each fold's losses are bitwise those
    of a fit of that fold alone.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise UsageError("lambda grid is empty")
    for lam in grid:
        if not np.isfinite(lam) or lam < 0.0 or (loss == "multinomial" and lam == 0.0):
            raise UsageError(f"invalid lambda {lam} in grid for loss {loss!r}")
    # every grid value is a valid penalty by now, so only z and the target are checked
    zv, target = _validated(z, target, loss, grid[0])

    fold_list = fold_indices(zv.shape[0], folds, seed, target if loss == "multinomial" else None)
    if loss == "multinomial" and not multinomial_feasible(target, folds):
        raise _rare_class_error(target, folds)
    lams, (n, r) = np.array(grid), zv.shape
    size = 1  # squared error fits one fold at a time
    if loss == "multinomial":
        member = _member_bytes(n, r + 1, int(target.max()) + 1, False)
        size = _STACK_BYTES // (8 * n * (r + 1) + len(grid) * member)
    batches = [[]]
    for held in fold_list:
        if batches[-1] and (len(batches[-1]) >= size or len(batches[-1][0]) != len(held)):
            batches.append([])
        batches[-1].append(held)
    fold_losses = []
    for batch in batches:
        train = np.ones((len(batch), n), dtype=bool)
        np.put_along_axis(train, np.array(batch), False, axis=1)
        # one fold gathers its rows by mask, several by index (F x n_train)
        rows = train[0] if len(batch) == 1 else np.nonzero(train)[1].reshape(len(batch), -1)
        model = _MODELS[loss](zv[rows], target[rows])
        alpha, gamma, _, converged = model.fit(lams)
        for f, held in enumerate(batch):
            part = slice(f * len(grid), (f + 1) * len(grid))
            losses = model.loss(zv[held], target[held], alpha[part], gamma[part], np.zeros(len(grid)))
            fold_losses.append(np.where(converged[part], losses, np.inf))
        del model, alpha, gamma  # so one batch's training copies are alive at a time

    means = [float(np.mean([fold_losses[f][i] for f in range(folds)])) for i in range(len(grid))]
    best = min(range(len(grid)), key=lambda i: (means[i], -grid[i]))
    if not np.isfinite(means[best]):
        raise NumericalError("no lambda in the grid produced a finite CV loss")
    return grid[best], means
