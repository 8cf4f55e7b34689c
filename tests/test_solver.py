"""Ridge solver tests: closed-form squared error, the multinomial fit by
damped Newton, fold construction, and cross-validated penalty selection."""
import tracemalloc

import numpy as np
import pytest

from covridge import (
    DataError,
    NumericalError,
    RidgeFit,
    SampleMatrix,
    UsageError,
    cv_select_lambda,
    fit_mse,
    fit_multinomial,
    fit_whitener,
    fold_indices,
    loss_value,
    multinomial_feasible,
    multinomial_gradient,
    permutation_pvalues,
)
import covridge.solver as solver
from covridge.crp import default_lambda_grid


def names(p):
    return [f"X{i + 1}" for i in range(p)]


def whitened_data(rng, n, p):
    # well-conditioned roughly isotropic design, centered
    z = rng.standard_normal((n, p))
    return z - z.mean(axis=0)


class TestRidgeProblem:
    """Input checks of the fits, shared by CV: each case poses a problem no
    fit accepts."""

    def test_negative_lambda(self):
        with pytest.raises(UsageError):
            fit_mse(np.zeros((5, 2)), np.zeros(5), -1.0)

    def test_target_length_mismatch(self):
        with pytest.raises(UsageError):
            fit_mse(np.zeros((5, 2)), np.zeros(4), 1.0)
        # CV checks its design and target as a fit does: a target shorter
        # or longer than the design, or a design that is not 2-D
        for z, y in ((np.zeros((5, 2)), np.zeros(4)), (np.zeros((5, 2)), np.zeros(6)),
                     (np.zeros(5), np.zeros(5))):
            with pytest.raises(UsageError):
                cv_select_lambda(z, y, "mse", [1.0], 2, 0)

    def test_nan_target(self):
        with pytest.raises(DataError):
            fit_mse(np.zeros((3, 2)), np.array([1.0, np.nan, 0.0]), 1.0)
        with pytest.raises(DataError, match="non-finite"):
            cv_select_lambda(np.zeros((4, 2)), np.array([1.0, np.nan, 0.0, 1.0]), "mse", [1.0], 2, 0)

    def test_unknown_loss(self):
        with pytest.raises(UsageError):
            permutation_pvalues(
                np.zeros((3, 2)), np.zeros(3), "huber", 1.0, np.eye(2), b=1
            )

    def test_multinomial_zero_lambda(self):
        with pytest.raises(UsageError):
            fit_multinomial(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 0.0)

    def test_multinomial_fractional_labels(self):
        with pytest.raises(DataError):
            fit_multinomial(np.zeros((3, 2)), np.array([0.0, 0.5, 1.0]), 1.0)
        # enough rows that truncated labels would fit the fold layout
        labels = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.5])
        with pytest.raises(DataError, match="must be integers"):
            cv_select_lambda(np.zeros((8, 2)), labels, "multinomial", [1.0], 2, 0)

    def test_multinomial_negative_labels(self):
        with pytest.raises(DataError):
            fit_multinomial(np.zeros((3, 2)), np.array([-1, 0, 1]), 1.0)

    def test_multinomial_missing_class_id(self):
        # ids must cover 0..k-1 with none absent
        with pytest.raises(DataError):
            fit_multinomial(np.zeros((4, 2)), np.array([0, 2, 0, 2]), 1.0)


class TestFitMse:
    def test_huge_lambda_shrinks_to_intercept(self):
        rng = np.random.default_rng(0)
        z = whitened_data(rng, 50, 6)
        y = rng.standard_normal(50)
        fit = fit_mse(z, y, 1e12)
        assert np.max(np.abs(fit.gamma)) < 1e-6
        assert fit.alpha[0] == pytest.approx(float(y.mean()), abs=1e-6)

    def test_recovers_basis_vector(self):
        rng = np.random.default_rng(1)
        z = whitened_data(rng, 200, 5)
        y = z[:, 0].copy()
        fit = fit_mse(z, y, 1e-8)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert np.max(np.abs(fit.gamma[:, 0] - e1)) < 1e-3
        # normal-equations oracle on the same draw
        zc = z - z.mean(axis=0)
        yc = y - y.mean()
        oracle = np.linalg.inv(zc.T @ zc / 200 + 1e-8 * np.eye(5)) @ (zc.T @ yc / 200)
        assert np.allclose(fit.gamma[:, 0], oracle, atol=1e-10)

    def test_scalar_closed_form(self):
        # unit sample variance, y = 2z, lambda = 1: gamma = 2/(1+1) = 1
        z = np.array([[-1.0], [1.0]])
        y = np.array([-2.0, 2.0])
        fit = fit_mse(z, y, 1.0)
        assert fit.gamma[0, 0] == pytest.approx(1.0, abs=1e-12)
        # 1-D direct minimization oracle over a fine grid
        grid = np.linspace(0.0, 2.0, 20001)
        objective = ((y[None, :] - grid[:, None] * z[:, 0][None, :]) ** 2).mean(axis=1) + grid**2
        assert grid[np.argmin(objective)] == pytest.approx(1.0, abs=1e-4)

    def test_zero_lambda_full_rank_is_ols(self):
        rng = np.random.default_rng(3)
        z = whitened_data(rng, 60, 4)
        y = rng.standard_normal(60)
        fit = fit_mse(z, y, 0.0)
        design = np.column_stack([np.ones(60), z])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert fit.alpha[0] == pytest.approx(coef[0], abs=1e-10)
        assert np.allclose(fit.gamma[:, 0], coef[1:], atol=1e-10)

    def test_zero_lambda_singular_rejected(self):
        z = np.zeros((10, 2))
        z[:, 0] = np.arange(10.0)
        z[:, 1] = 2 * np.arange(10.0)
        with pytest.raises(NumericalError):
            fit_mse(z, np.arange(10.0), 0.0)

    def test_gamma_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        z = whitened_data(rng, 40, 6)
        y = rng.standard_normal(40)
        ladder = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
        norms = [float(np.linalg.norm(fit_mse(z, y, lam).gamma)) for lam in ladder]
        for small, large in zip(norms, norms[1:]):
            assert small >= large - 1e-12

    def test_objective_value(self):
        rng = np.random.default_rng(5)
        z = whitened_data(rng, 25, 3)
        y = rng.standard_normal(25)
        fit = fit_mse(z, y, 0.7)
        resid = y - fit.alpha[0] - z @ fit.gamma[:, 0]
        by_hand = float(resid @ resid) / 25 + 0.7 * float(np.sum(fit.gamma**2))
        assert loss_value(fit, z, y, "mse", penalized=True) == pytest.approx(by_hand, rel=1e-12)


def tiny_step_descent(z, labels, k, lam, step=0.05, iters=40_000):
    # deliberately plain oracle: fixed small step, no line search
    n, p = z.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    alpha = np.zeros(k)
    gamma = np.zeros((p, k))
    for _ in range(iters):
        logits = alpha + z @ gamma
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        diff = (probs - onehot) / n
        alpha = alpha - step * diff.sum(axis=0)
        gamma = gamma - step * (z.T @ diff + 2.0 * lam * gamma)
    return alpha - alpha.mean(), gamma - gamma.mean(axis=1, keepdims=True)


class TestFitMultinomial:
    def test_shuffled_labels_flat_fit(self):
        rng = np.random.default_rng(10)
        z = whitened_data(rng, 120, 4)
        labels = rng.permutation(np.repeat([0, 1, 2], 40))
        fit = fit_multinomial(z, labels, 10.0)
        assert np.max(np.abs(fit.gamma)) < 0.05
        probs = np.exp(fit.alpha) / np.exp(fit.alpha).sum()
        freqs = np.bincount(labels) / 120
        assert np.max(np.abs(probs - freqs)) < 0.02
        # alpha matches log frequencies up to an additive constant
        shift = fit.alpha - np.log(freqs)
        assert np.max(shift) - np.min(shift) < 0.05

    def test_separated_classes_dominant_row(self):
        rng = np.random.default_rng(11)
        z = whitened_data(rng, 80, 4)
        labels = (z[:, 0] > 0).astype(int)
        fit = fit_multinomial(z, labels, 0.1)
        row_sums = np.abs(fit.gamma).sum(axis=1)
        assert row_sums[0] >= 5.0 * row_sums[1:].max()
        # plain fixed-step descent lands on the same minimizer
        alpha_o, gamma_o = tiny_step_descent(z, labels, 2, 0.1)
        assert np.max(np.abs(fit.gamma - gamma_o)) < 1e-3
        assert np.max(np.abs(fit.alpha - alpha_o)) < 1e-3

    def test_huge_lambda_prior_entropy(self):
        rng = np.random.default_rng(12)
        z = whitened_data(rng, 90, 3)
        labels = rng.permutation(np.repeat([0, 1, 2], 30))
        fit = fit_multinomial(z, labels, 1e9)
        assert np.max(np.abs(fit.gamma)) < 1e-6
        freqs = np.bincount(labels) / 90
        prior_entropy = -float(np.sum(freqs * np.log(freqs)))
        assert loss_value(fit, z, labels, "multinomial", penalized=True) == pytest.approx(
            prior_entropy, abs=1e-6
        )

    def test_zero_lambda_rejected(self):
        with pytest.raises(UsageError):
            fit_multinomial(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 0.0)

    def test_objective_nonincreasing(self, monkeypatch):
        rng = np.random.default_rng(13)
        z = whitened_data(rng, 60, 5)
        labels = rng.integers(0, 3, size=60)
        while len(np.unique(labels)) < 3:
            labels = rng.integers(0, 3, size=60)
        # a run capped at m iterations is the first m steps of a longer run,
        # so its final objective traces the descent path; a single fit that
        # stops unconverged raises, so the capped runs are the model's own
        model, lam = solver._MultinomialModel(z, labels), np.array([0.5])
        trace = []
        for cap in range(30):
            monkeypatch.setattr(solver, "MAX_ITERATIONS", cap)
            alpha, gamma, _, _ = model.fit(lam)
            trace.append(float(model.loss(z, labels, alpha, gamma, lam)[0]))
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-12
        assert trace[-1] < trace[0]

    def test_converges_on_easy_problem(self):
        rng = np.random.default_rng(14)
        z = whitened_data(rng, 50, 2)
        labels = (z[:, 0] + 0.3 * rng.standard_normal(50) > 0).astype(int)
        fit = fit_multinomial(z, labels, 1.0)  # a fit that did not converge raises
        assert fit.iterations < 10_000

    def test_iteration_cap_raises(self, monkeypatch):
        # Newton needs 6 iterations here, so a cap of 3 stops it short
        rng = np.random.default_rng(14)
        z = whitened_data(rng, 50, 2)
        labels = (z[:, 0] + 0.3 * rng.standard_normal(50) > 0).astype(int)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
        with pytest.raises(NumericalError, match=r"lambda=0\.01 did not converge in 3 iterations"):
            fit_multinomial(z, labels, 0.01)

    def test_gamma_rows_centered(self):
        rng = np.random.default_rng(15)
        z = whitened_data(rng, 70, 3)
        labels = rng.permutation(np.repeat([0, 1], 35))
        fit = fit_multinomial(z, labels, 0.3)
        assert np.allclose(fit.gamma.mean(axis=1), 0.0, atol=1e-12)
        assert fit.alpha.mean() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(16)
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(10, 31))
            p = int(rng.integers(1, 6))
            k = int(rng.integers(2, 4))
            z = rng.standard_normal((n, p))
            labels = rng.integers(0, k, size=n)
            while len(np.unique(labels)) < k:
                labels = rng.integers(0, k, size=n)
            lam = float(rng.uniform(0.01, 1.0))
            alpha = rng.standard_normal(k)
            gamma = rng.standard_normal((p, k))

            def objective(a, g):
                fit = RidgeFit(a, g, lam, 0)
                return loss_value(fit, z, labels, "multinomial", penalized=True)

            ga, gg = multinomial_gradient(z, labels, alpha, gamma, lam)
            for idx in range(k):
                bump = np.zeros(k)
                bump[idx] = h
                fd = (objective(alpha + bump, gamma) - objective(alpha - bump, gamma)) / (2 * h)
                assert fd == pytest.approx(ga[idx], rel=1e-4, abs=1e-8)
            for r in range(p):
                for c in range(k):
                    bump = np.zeros((p, k))
                    bump[r, c] = h
                    fd = (objective(alpha, gamma + bump) - objective(alpha, gamma - bump)) / (2 * h)
                    assert fd == pytest.approx(gg[r, c], rel=1e-4, abs=1e-8)

    def test_log_softmax_matches_the_last_axis_reduction(self):
        # The class maximum is taken slice by slice; the result must carry the
        # bits of the reduction over the last axis, signed zeros and rows
        # with -inf entries included.
        rng = np.random.default_rng(78)
        for k in range(2, 21):
            logits = rng.standard_normal((3, 40, k))
            logits[0] = rng.choice([0.0, -0.0, -np.inf, 1.0], size=(40, k))
            logits[0, :, 0] = rng.choice([0.0, -0.0], size=40)
            logits[1] = rng.choice([0.0, -0.0], size=(40, k))
            shifted = logits - logits.max(axis=-1, keepdims=True)
            expected = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            assert solver._log_softmax(logits).tobytes() == expected.tobytes()

    def test_hessian_matches_central_differences(self):
        rng = np.random.default_rng(77)
        h = 1e-5
        for i in range(20):
            n = int(rng.integers(30, 61))
            p = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            z = rng.standard_normal((n, p))
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)
            lam = (0.05, 0.5)[i % 2]
            theta = rng.standard_normal((p + 1, k))
            design = np.column_stack([np.ones(n), z])
            probs = np.exp(solver._log_softmax(design @ theta))
            hessian = solver._multinomial_hessian(design, probs, lam)

            def gradient(t):
                return np.vstack(multinomial_gradient(z, labels, t[0], t[1:], lam)).ravel()

            fd = np.empty_like(hessian)
            for j in range(theta.size):
                bump = np.zeros(theta.size)
                bump[j] = h
                bump = bump.reshape(theta.shape)
                fd[:, j] = (gradient(theta + bump) - gradient(theta - bump)) / (2 * h)
            assert np.abs(hessian - fd).max() < 1e-4 * np.abs(fd).max()
            assert np.allclose(hessian, hessian.T, atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_hessian_matches_the_sample_loop(self, k):
        rng = np.random.default_rng(80 + k)
        n, p = 40, 3
        design = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
        logits = rng.standard_normal((2, n, k))
        others = np.log(np.exp(logits[..., :-1]).sum(axis=-1))
        # rows 0-9: the last class has probability about 1e-12, so its
        # blocks come from sums that nearly cancel; rows 10-19: it dominates
        logits[:, :10, -1] = others[:, :10] + np.log(1e-12)
        logits[:, 10:20, -1] = others[:, 10:20] + 20.0
        probs = np.exp(logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True)))
        lam = np.array([0.05, 0.5])
        hessian = solver._multinomial_hessian(design, probs, lam)
        # Rounding bound, with s the largest mean square of a design column.
        # An entry is a sum over the n rows of x_ia x_ib W_i[c, d] / n with
        # |W_i[c, d]| <= 1/4, so by Cauchy-Schwarz the sizes of its terms add
        # up to at most s / 4: a rounded sum, here or in the loop, is within
        # (n + 3) eps s / 4 of the exact value. The last class's corner block
        # adds up (k - 1)^2 such sums, whose additions round by at most
        # (k - 2)(k - 1)^2 eps s / 2; rounded probabilities sum to 1 only
        # within about k eps, which breaks the zero row sums by up to 2 k eps
        # s; and the penalty rounds by eps (s + 2 lam).
        eps, s = np.finfo(float).eps, (design**2).mean(axis=0).max()
        terms = ((k - 1) ** 2 + 1) * (n + 3) / 4 + (k - 2) * (k - 1) ** 2 / 2 + 2 * k + 1
        tol = terms * eps * (s + 2 * lam.max())
        for member in range(2):
            expected = loop_hessian(design, probs[member], lam[member])
            assert np.abs(hessian[member] - expected).max() <= tol

    def test_criterion_10_cv_fits_take_few_iterations(self, monkeypatch):
        # A first-order solver needs hundreds to thousands of iterations on
        # these fits; Newton needs at most about ten.
        fits, _ = criterion_10_cv(monkeypatch, default_lambda_grid())
        assert len(fits) == 5 * len(default_lambda_grid())
        assert all(converged for _, converged in fits)
        assert max(fit.iterations for fit, _ in fits) <= 25

    def test_cv_solves_one_stacked_system_per_fold_step(self, monkeypatch):
        # The five folds share a training size, so CV fits all their grids
        # as one stack: one stacked solve per Newton step of the slowest
        # member of any fold, not one per fold, member and step.
        fits, solves = criterion_10_cv(monkeypatch, np.geomspace(1e-2, 1e1, 10))
        assert len(fits) == 5 * 10
        assert solves <= max(fit.iterations for fit, _ in fits)


def loop_hessian(design, probs, lam):
    """sum_i (x_i x_i') (x) W_i / n plus 2 lam on the gamma diagonal, one
    sample at a time, with W_i = diag(p_i) - p_i p_i'."""
    n, q = design.shape
    k = probs.shape[-1]
    hessian = np.zeros((q * k, q * k))
    for x, p in zip(design, probs):
        hessian += np.kron(np.outer(x, x), np.diag(p) - np.outer(p, p))
    hessian /= n
    gamma_diag = np.arange(k, q * k)
    hessian[gamma_diag, gamma_diag] += 2.0 * lam
    return hessian


def criterion_10_cv(monkeypatch, grid):
    """Runs 5-fold multinomial CV on data of criterion 10's shape; returns
    the fits of every member of its stacks and the number of linear solves."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((150, 6))
    labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int) + (x[:, 0] - x[:, 1] > 1.0)
    t, _, _ = fit_whitener(SampleMatrix(x, names(6)), True)
    fits = []
    solves = [0]
    real_fit = solver._MultinomialModel.fit
    real_solve = np.linalg.solve

    def recording_stack(model, lams, rows=None):
        stack = real_fit(model, lams, rows)
        fits.extend(stack_members(model, lams, rows, stack))
        return stack

    def counting_solve(*args):
        solves[0] += 1
        return real_solve(*args)

    monkeypatch.setattr(solver._MultinomialModel, "fit", recording_stack)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    cv_select_lambda(t, labels, "multinomial", grid, 5, 3)
    return fits, solves[0]


def stack_members(model, lams, rows, stack):
    """The members of a stacked fit of `model` as (RidgeFit, converged) pairs,
    fold by fold for a model of several CV folds."""
    alpha, gamma, iterations, converged = stack
    lams = np.tile(lams, len(iterations) // len(lams))
    return [(RidgeFit(alpha[i], gamma[i], float(lams[i]), int(iterations[i])), bool(converged[i]))
            for i in range(len(lams))]


class TestMultinomialStack:
    def test_members_match_stacks_of_one(self, monkeypatch):
        # Mixed labels and penalties; under a cap of 6 iterations the
        # separable members at lambda = 1e-4 and 0.01 stop unconverged while
        # the others converge.
        rng = np.random.default_rng(45)
        z = whitened_data(rng, 60, 3)
        separable = (z[:, 0] > 0).astype(int)
        labels = np.array([separable, rng.permutation(separable), separable,
                           rng.permutation(separable), separable])
        lams = np.array([1e-4, 1e-4, 0.01, 1.0, 10.0])
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 6)
        model = solver._MultinomialModel(z, separable)

        def fit_stack(labels, lams):
            return stack_members(model, lams, labels, model.fit(lams, labels))

        fits = fit_stack(labels, lams)
        assert [converged for _, converged in fits] == [False, True, False, True, True]
        # room for two members (m = 8 unknowns, n = 60, r + 1 = 4 design
        # columns, k = 2 classes): the stack is solved in parts of 2, 2 and 1
        monkeypatch.setattr(solver, "_STACK_BYTES", 2 * 8 * (8**2 + 60 * 4 + 60 * 2))
        chunked = fit_stack(labels, lams)
        for i, (fit, converged) in enumerate(fits):
            (single,) = fit_stack(labels[i:i + 1], lams[i:i + 1])
            for other, other_converged in (single, chunked[i]):
                assert np.array_equal(fit.alpha, other.alpha)
                assert np.array_equal(fit.gamma, other.gamma)
                assert (loss_value(fit, z, labels[i], "multinomial", penalized=True)
                        == loss_value(other, z, labels[i], "multinomial", penalized=True))
                assert fit.iterations == other.iterations
                assert converged == other_converged
        assert fits[0][0].iterations == 6

    def test_parts_share_the_models_design(self, monkeypatch):
        # the design [1, z] is built with the model, not once per part
        rng = np.random.default_rng(46)
        z = whitened_data(rng, 60, 3)
        labels = (z[:, 0] > 0).astype(int)
        model = solver._MultinomialModel(z, labels)
        builds = [0]
        real_column_stack = np.column_stack

        def counting_column_stack(*args, **kwargs):
            builds[0] += 1
            return real_column_stack(*args, **kwargs)

        monkeypatch.setattr(solver, "_STACK_BYTES", 8 * (8**2 + 60 * 4 + 60 * 2))
        monkeypatch.setattr(np, "column_stack", counting_column_stack)
        _, _, _, converged = model.fit(np.array([0.1, 1.0, 10.0]))
        assert converged.all()
        assert builds[0] == 0

    def test_gradient_reuses_the_line_search_log_probabilities(self, monkeypatch):
        # A stack scores its start and each line-search trial with one
        # take_along_axis call on the labels' log-probabilities. An accepted
        # trial's log-probabilities give the next step's gradient and
        # Hessian, so _log_softmax runs once per score and never for a
        # gradient. A sufficient decrease of 0.6 times the slope rejects every
        # full Newton step near the optimum, so trials also backtrack.
        rng = np.random.default_rng(47)
        z = whitened_data(rng, 60, 3)
        labels = (z[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(int) + (z[:, 1] > 0.5)
        counts = {"log_softmax": 0, "scores": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "_log_softmax", counting("log_softmax", solver._log_softmax))
        monkeypatch.setattr(np, "take_along_axis", counting("scores", np.take_along_axis))
        monkeypatch.setattr(solver, "ARMIJO_C", 0.6)
        _, _, iterations, converged = solver._MultinomialModel(z, labels).fit(
            np.array([1e-4, 0.01, 1.0]))
        assert converged.all()
        # the start, one trial per Newton step and the backtracked ones
        assert counts["scores"] > iterations.max()
        assert counts["log_softmax"] == counts["scores"]

    def test_unsolvable_system_raises_in_fit_and_cv(self, monkeypatch):
        # a member whose Newton system cannot be solved stops unconverged at
        # its first step: a single fit raises, and CV scores every lambda inf
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        rng = np.random.default_rng(44)
        z = whitened_data(rng, 60, 3)
        labels = (z[:, 0] > 0).astype(int)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match=r"lambda=0\.1 did not converge in 1 iterations"):
            fit_multinomial(z, labels, 0.1)
        with pytest.raises(NumericalError, match="no lambda in the grid produced a finite CV loss"):
            cv_select_lambda(z, labels, "multinomial", [0.01, 100.0], 3, 0)


@pytest.mark.parametrize("loss", ["mse", "multinomial"])
def test_fit_leaves_the_callers_design_unchanged(loss):
    rng = np.random.default_rng(47)
    z = rng.standard_normal((40, 3)) + 2.0  # nonzero column means
    before = z.copy()
    if loss == "mse":
        fit_mse(z, z[:, 0] + rng.standard_normal(40), 0.5)
    else:
        fit_multinomial(z, (z[:, 0] > 2.0).astype(int), 0.5)
    assert z.tobytes() == before.tobytes()


class TestSignalConcentration:
    def test_nonlinear_single_source_dominates(self):
        # Y depends on X1 alone but nonlinearly; the fitted coefficient row
        # for X1 should still tower over the rest in nearly every seed
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((5000, 10))
            y = x[:, 0] ** 3
            data = SampleMatrix(x, names(10))
            t, back, _ = fit_whitener(data, True)
            fit = fit_mse(t, y, 0.1)
            beta = back @ fit.gamma[:, 0]
            row = np.abs(beta)
            hits += row[0] >= 3.0 * row[1:].max()
        assert hits >= 18


class TestLossValue:
    def test_zero_fit_gives_variance(self):
        rng = np.random.default_rng(20)
        z = whitened_data(rng, 40, 3)
        y = rng.standard_normal(40)
        fit = RidgeFit(np.array([float(y.mean())]), np.zeros((3, 1)), 1.0, 0)
        assert loss_value(fit, z, y, "mse", penalized=False) == pytest.approx(float(y.var()))

    def test_perfect_fit_penalized_is_penalty(self):
        rng = np.random.default_rng(21)
        z = whitened_data(rng, 30, 2)
        gamma = np.array([[1.5], [-0.5]])
        y = 0.7 + z @ gamma[:, 0]
        fit = RidgeFit(np.array([0.7]), gamma, 1.0, 0)
        assert loss_value(fit, z, y, "mse", penalized=True) == pytest.approx(
            float(np.sum(gamma**2)), abs=1e-12
        )

    def test_matches_hand_coded_objective(self):
        rng = np.random.default_rng(22)
        z = whitened_data(rng, 35, 4)
        y = rng.standard_normal(35)
        alpha = 0.3
        gamma = rng.standard_normal((4, 1))
        fit = RidgeFit(np.array([alpha]), gamma, 0.25, 0)
        resid = y - alpha - z @ gamma[:, 0]
        expected = float(resid @ resid) / 35 + 0.25 * float(np.sum(gamma**2))
        assert loss_value(fit, z, y, "mse", penalized=True) == pytest.approx(expected, abs=1e-10)

    def test_multinomial_hand_nll(self):
        rng = np.random.default_rng(23)
        z = whitened_data(rng, 20, 2)
        labels = rng.integers(0, 2, size=20)
        while len(np.unique(labels)) < 2:
            labels = rng.integers(0, 2, size=20)
        alpha = np.array([0.1, -0.1])
        gamma = rng.standard_normal((2, 2))
        fit = RidgeFit(alpha, gamma, 0.5, 0)
        logits = alpha + z @ gamma
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        nll = -float(np.mean(np.log(probs[np.arange(20), labels])))
        assert loss_value(fit, z, labels, "multinomial", penalized=False) == pytest.approx(
            nll, abs=1e-12
        )

    def test_unknown_loss(self):
        fit = RidgeFit(np.array([0.0]), np.zeros((2, 1)), 1.0, 0)
        with pytest.raises(UsageError):
            loss_value(fit, np.zeros((3, 2)), np.zeros(3), "hinge", penalized=False)


class TestFoldIndices:
    def test_partition(self):
        folds = fold_indices(23, 5, 7)
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(23))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = fold_indices(50, 10, 3)
        b = fold_indices(50, 10, 3)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_too_few_folds(self):
        with pytest.raises(UsageError):
            fold_indices(10, 1, 0)

    def test_more_folds_than_samples(self):
        with pytest.raises(UsageError):
            fold_indices(3, 5, 0)

    def test_negative_seed(self):
        with pytest.raises(UsageError):
            fold_indices(10, 2, -1)

    @pytest.mark.parametrize("n, folds, seed", [(23, 5, 7), (50, 10, 3), (150, 5, 9), (7, 7, 0)])
    def test_unlabelled_folds_split_the_seeded_permutation(self, n, folds, seed):
        # squared-error folds keep this layout, so their reports stay bitwise
        expected = np.array_split(
            np.random.default_rng(np.random.SeedSequence([seed])).permutation(n), folds)
        got = fold_indices(n, folds, seed)
        assert len(got) == folds
        for fold, want in zip(got, expected):
            assert np.array_equal(fold, want)

    def test_class_dealt_folds_hold_every_plentiful_class(self):
        # classes of 10, 11, 31 and 17 members and a rare one of 4, 10 folds
        rng = np.random.default_rng(31)
        labels = rng.permutation(np.repeat([0, 1, 2, 3, 4], [10, 11, 31, 17, 4]))
        n, folds = len(labels), 10
        sizes = [len(f) for f in np.array_split(np.arange(n), folds)]
        for seed in range(200):
            got = fold_indices(n, folds, seed, labels)
            assert [len(f) for f in got] == sizes
            assert np.array_equal(np.sort(np.concatenate(got)), np.arange(n))
            for fold in got:
                assert np.all(np.diff(fold) > 0)
                assert set(labels[fold]) >= {0, 1, 2, 3}


class TestMultinomialFeasible:
    def test_rare_class(self):
        labels = np.array([0] * 30 + [1] * 3)
        assert not multinomial_feasible(labels, 10)

    def test_balanced_plentiful(self):
        rng = np.random.default_rng(30)
        labels = rng.permutation(np.repeat([0, 1, 2], 50))
        assert multinomial_feasible(labels, 5)

    def test_one_count_per_class(self):
        # 4 classes of 10 fill 10 folds whatever the seed
        labels = np.repeat([0, 1, 2, 3], 10)
        assert multinomial_feasible(labels, 10)
        assert not multinomial_feasible(labels, 11)


def loop_cv_mse_losses(zv, y, grid, fold_list):
    """Squared-error CV losses one lambda at a time: per fold, one
    eigendecomposition of the centred training Gram matrix and a coefficient
    vector per lambda. A lambda that leaves the smallest eigenvalue plus
    lambda at most 1e-12 times the largest has no unique minimiser and scores
    inf."""
    all_rows = np.arange(zv.shape[0])
    per_fold = []
    for held in fold_list:
        train = np.setdiff1d(all_rows, held, assume_unique=True)
        z_tr, y_tr = zv[train], y[train]
        z_mean, y_mean = z_tr.mean(axis=0), float(y_tr.mean())
        zc = z_tr - z_mean
        evals, q = np.linalg.eigh(zc.T @ zc / len(train))
        rotated = q.T @ (zc.T @ (y_tr - y_mean) / len(train))
        losses = []
        for lam in grid:
            if not evals[0] + lam > 1e-12 * evals[-1]:
                losses.append(float("inf"))
                continue
            gamma = q @ (rotated / (evals + lam))
            residual = y[held] - (y_mean - float(gamma @ z_mean) + zv[held] @ gamma)
            losses.append(float(residual @ residual) / len(held))
        per_fold.append(losses)
    return per_fold


class TestCvMseLosses:
    def test_matches_loop_oracle_with_infinite_entries(self):
        # p > n_train leaves the training Gram matrix singular, so lambda = 0
        # has no unique minimiser on some fold and scores inf
        rng = np.random.default_rng(12)
        z = rng.standard_normal((30, 40))
        y = z[:, 0] + 0.5 * rng.standard_normal(30)
        grid = [0.0, 1e-4, 1e-2, 1.0, 100.0]
        fold_list = fold_indices(30, 3, 5)
        _, got = cv_select_lambda(z, y, "mse", grid, 3, 5)
        fold_losses = np.array(loop_cv_mse_losses(z, y, grid, fold_list))
        assert np.isinf(fold_losses[:, 0]).any() and not np.isinf(fold_losses[:, 1:]).any()
        got, expected = np.array(got), fold_losses.mean(axis=0)
        infinite = np.isinf(expected)
        assert np.array_equal(np.isinf(got), infinite)
        assert np.allclose(got[~infinite], expected[~infinite], rtol=1e-12, atol=0.0)

    def test_lambda_below_the_rounding_of_a_singular_gram_matrix(self):
        # every training fold's Gram matrix has e[0] of about -1e-15, so
        # lambda = 1e-20 leaves e + lambda <= 0: CV scores it inf and a
        # single fit raises instead of dividing by it
        rng = np.random.default_rng(12)
        z = rng.standard_normal((30, 40))
        y = z[:, 0] + 0.5 * rng.standard_normal(30)
        lam, means = cv_select_lambda(z, y, "mse", [1e-20, 1e-4, 1.0], 3, 5)
        assert np.isinf(means[0]) and np.all(np.isfinite(means[1:]))
        assert lam == 1.0
        with pytest.raises(NumericalError, match="lambda=1e-20"):
            fit_mse(z, y, 1e-20)


class TestCvFoldBatches:
    @pytest.mark.parametrize("n, cap, batches", [
        (150, None, [5]), (150, 2, [2, 2, 1]), (150, 1, [1] * 5),
        # held-out folds of 31, 31, 30, 30 and 30 rows: two training sizes
        (152, None, [2, 3]), (152, 2, [2, 2, 1]), (152, 1, [1] * 5),
    ])
    def test_batches_match_per_fold_fits(self, monkeypatch, n, cap, batches):
        # Consecutive folds of one training size share a stack, as many as
        # `cap` folds' designs and Newton members fit in _STACK_BYTES; each
        # fold's losses are bitwise those of its own model.
        rng = np.random.default_rng(48)
        z = whitened_data(rng, n, 4)
        score = z[:, 0] + 0.5 * rng.standard_normal(n)
        labels = np.searchsorted(np.sort(score)[[n // 3, 2 * n // 3]], score, side="right")
        grid, folds, seed = [1e-3, 0.1, 10.0], 5, 9
        if cap is not None:
            # the fold's design (n x 5) and, per member, m = 15 unknowns
            member = 8 * (15**2 + 2 * n * 5 + n * 3)
            monkeypatch.setattr(solver, "_STACK_BYTES", cap * (8 * n * 5 + len(grid) * member))
        stacks = []
        real_newton = solver._newton

        def recording_newton(designs, *args):
            stacks.append(len(designs))
            return real_newton(designs, *args)

        monkeypatch.setattr(solver, "_newton", recording_newton)
        _, means = cv_select_lambda(z, labels, "multinomial", grid, folds, seed)
        assert stacks == batches
        monkeypatch.undo()
        per_fold = []
        for held in fold_indices(n, folds, seed, labels):
            train = np.setdiff1d(np.arange(n), held)
            model = solver._MultinomialModel(z[train], labels[train])
            alpha, gamma, _, converged = model.fit(np.array(grid))
            losses = model.loss(z[held], labels[held], alpha, gamma, np.zeros(len(grid)))
            per_fold.append(np.where(converged, losses, np.inf))
        assert means == [float(np.mean([losses[i] for losses in per_fold]))
                         for i in range(len(grid))]


class TestCvSelectLambda:
    def test_folds_hold_one_training_copy(self):
        # A squared-error fold centres its gathered training rows in place;
        # a second, centred copy of them lifted the peak to 4.26 copies.
        n, r = 20_000, 5
        rng = np.random.default_rng(26)
        z = rng.standard_normal((n, r))
        y = z[:, 0] + rng.standard_normal(n)
        tracemalloc.start()
        try:
            cv_select_lambda(z, y, "mse", [0.01, 0.1, 1.0], 10, 26)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * (0.9 * n * r * 8)

    def test_frees_each_fold_before_the_next(self):
        # A fold's model and coefficients go before the next fold is gathered,
        # and its training rows come from a mask: the peak stays near one
        # training copy (1.86 copies; 3.26 with two folds alive at a time).
        n, r = 20_000, 5
        rng = np.random.default_rng(26)
        z = rng.standard_normal((n, r))
        y = z[:, 0] + rng.standard_normal(n)
        tracemalloc.start()
        try:
            cv_select_lambda(z, y, "mse", [0.01, 0.1, 1.0], 10, 26)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (0.9 * n * r * 8)

    def test_multinomial_folds_fit_within_the_stack_budget(self):
        # On 10 folds of 18 000 x 21 designs at m = 63, one fold's grid of
        # Newton members already fills _STACK_BYTES, so each fold is fitted
        # alone: 16.85 MB at the peak. Stacking all ten folds' designs and
        # grids peaked at 64.6 MB.
        n, r = 20_000, 20
        rng = np.random.default_rng(27)
        z = rng.standard_normal((n, r))
        score = z[:, 0] + 0.5 * z[:, 1] + rng.standard_normal(n)
        labels = np.searchsorted(np.sort(score)[[n // 3, 2 * n // 3]], score, side="right")
        tracemalloc.start()
        try:
            cv_select_lambda(z, labels, "multinomial", [0.01, 0.1, 1.0], 10, 27)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 16.85e6

    def test_singleton_grid(self):
        rng = np.random.default_rng(40)
        z = whitened_data(rng, 30, 3)
        y = rng.standard_normal(30)
        lam, means = cv_select_lambda(z, y, "mse", [0.37], 5, 0)
        assert lam == 0.37
        assert len(means) == 1 and np.isfinite(means[0])

    def test_signal_prefers_small_lambda(self):
        rng = np.random.default_rng(41)
        z = whitened_data(rng, 100, 5)
        y = z[:, 0] + 0.05 * rng.standard_normal(100)
        lam, _ = cv_select_lambda(z, y, "mse", [1e-6, 1e6], 5, 0)
        assert lam == 1e-6

    def test_noise_prefers_large_lambda(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = whitened_data(rng, 60, 5)
            y = rng.standard_normal(60)
            lam, _ = cv_select_lambda(z, y, "mse", [1e-6, 1e6], 5, seed)
            wins += lam == 1e6
        assert wins >= 16

    def test_tie_breaks_to_larger_lambda(self):
        # constant target: gamma = 0 at every lambda, all CV losses equal
        rng = np.random.default_rng(42)
        z = whitened_data(rng, 30, 3)
        y = np.full(30, 2.5)
        lam, means = cv_select_lambda(z, y, "mse", [0.1, 10.0, 1.0], 5, 0)
        assert lam == 10.0
        assert means[0] == means[1] == means[2]

    def test_empty_grid(self):
        with pytest.raises(UsageError):
            cv_select_lambda(np.zeros((10, 2)), np.zeros(10), "mse", [], 2, 0)

    def test_invalid_grid_value(self):
        with pytest.raises(UsageError):
            cv_select_lambda(np.zeros((10, 2)), np.zeros(10), "mse", [1.0, -2.0], 2, 0)

    def test_multinomial_zero_lambda_in_grid(self):
        with pytest.raises(UsageError):
            cv_select_lambda(np.zeros((10, 2)), np.repeat([0, 1], 5), "multinomial", [0.0, 1.0], 2, 0)

    def test_multinomial_missing_class_in_fold(self):
        z = np.random.default_rng(43).standard_normal((12, 2))
        labels = np.array([0] * 10 + [1] * 2)
        with pytest.raises(DataError, match="class 1 has 2 samples, fewer than the 6 CV folds"):
            cv_select_lambda(z, labels, "multinomial", [0.1, 1.0], 6, 0)

    def test_multinomial_nonconverged_lambda_not_selected(self, monkeypatch):
        # separable classes favour the smallest lambda, whose fits cannot
        # converge within the cap (Newton needs about 10 iterations there and
        # 3-4 at lambda = 1); CV scores it inf and picks the other
        rng = np.random.default_rng(45)
        z = whitened_data(rng, 60, 3)
        labels = (z[:, 0] > 0).astype(int)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 6)
        lam, means = cv_select_lambda(z, labels, "multinomial", [1e-4, 1.0], 3, 0)
        assert lam == 1.0
        assert means[0] == float("inf") and np.isfinite(means[1])
        with pytest.raises(NumericalError, match="finite CV loss"):
            cv_select_lambda(z, labels, "multinomial", [1e-4], 3, 0)

    def test_multinomial_singular_lambda_not_selected(self, monkeypatch):
        # every Newton system at lambda = 0.01, which CV picks on these data
        # (test_multinomial_selects_from_grid), is made singular: its members
        # stop unconverged, CV scores it inf and picks the other lambda
        rng = np.random.default_rng(44)
        z = whitened_data(rng, 60, 3)
        labels = (z[:, 0] > 0).astype(int)
        real_hessian = solver._multinomial_hessian

        def singular_at_one_lambda(design, probs, lam):
            hessian = real_hessian(design, probs, lam)
            hessian[lam == 0.01] = 0.0
            return hessian

        monkeypatch.setattr(solver, "_multinomial_hessian", singular_at_one_lambda)
        lam, means = cv_select_lambda(z, labels, "multinomial", [0.01, 100.0], 3, 0)
        assert lam == 100.0
        assert means[0] == float("inf") and np.isfinite(means[1])

    def test_multinomial_selects_from_grid(self):
        rng = np.random.default_rng(44)
        z = whitened_data(rng, 60, 3)
        labels = (z[:, 0] > 0).astype(int)
        lam, means = cv_select_lambda(z, labels, "multinomial", [0.01, 100.0], 3, 0)
        assert lam in (0.01, 100.0)
        assert all(np.isfinite(m) for m in means)
        # a sign-separable class structure wants weak regularization
        assert lam == 0.01
