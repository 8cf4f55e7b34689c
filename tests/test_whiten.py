"""Whitener tests: the whitened coordinates t, the back-map beta = back @ gamma,
the eigenvalue floor, and the change-of-variables identity between the
original-coordinate and whitened-coordinate ridge objectives."""
import numpy as np
import pytest

from covridge import (
    NumericalError,
    SampleMatrix,
    fit_mse,
    fit_whitener,
    lw_shrink,
)


def names(p):
    return [f"X{i + 1}" for i in range(p)]


def random_full_rank(rng, n, p, scale=1.0):
    return SampleMatrix(rng.standard_normal((n, p)) * scale, names(p))


def white_data(rng, n, p):
    # orthonormal columns of a centred matrix stay centred, so the sample
    # covariance (divisor n) is exactly I
    z = rng.standard_normal((n, p))
    q, _ = np.linalg.qr(z - z.mean(axis=0))
    return SampleMatrix(q * np.sqrt(n) + 5.0, names(p))


def whiten(m, shrink):
    t, back, _ = fit_whitener(m, shrink)
    return t, back


class TestFitWhitener:
    def test_identity_covariance(self):
        # data whose sample covariance is already I: back is orthogonal, so
        # it maps to Sigma^{-1} = I
        rng = np.random.default_rng(0)
        m = white_data(rng, 30, 4)
        t, back = whiten(m, False)
        assert back.shape == (4, 4)
        assert np.allclose(back @ back.T, np.eye(4), atol=1e-12)
        assert np.allclose(back.T @ back, np.eye(4), atol=1e-12)

    def test_scalar_covariance(self):
        m = SampleMatrix(np.array([[0.0], [4.0]]), names(1))
        t, back = whiten(m, False)
        assert abs(back[0, 0]) == pytest.approx(0.5)
        assert np.allclose(np.abs(t[:, 0]), [1.0, 1.0])

    def test_back_whitens_covariance(self):
        # back' Sigma back = I_r whether the basis comes from the Gram
        # (p <= n) or from the SVD of the centred data (p > n)
        rng = np.random.default_rng(1)
        for n, p in ((60, 12), (20, 45)):
            m = random_full_rank(rng, n, p)
            cov = lw_shrink(m)
            t, back = whiten(m, True)
            r = min(n, p)
            assert t.shape == (n, r) and back.shape == (p, r)
            assert np.max(np.abs(back.T @ cov.matrix @ back - np.eye(r))) < 1e-10

    def test_singular_covariance_rejected(self):
        # a duplicated column leaves a zero eigenvalue in S; with no
        # shrinkage it stays at the floor
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        x[:, 2] = x[:, 0]
        m = SampleMatrix(x, names(3))
        with pytest.raises(NumericalError, match="floor"):
            whiten(m, False)

    def test_wide_data_without_shrinkage_rejected(self):
        # p > n: the p - r directions the data do not span keep eigenvalue
        # rho * mu, which is zero without shrinkage
        rng = np.random.default_rng(3)
        m = random_full_rank(rng, 10, 25)
        with pytest.raises(NumericalError, match="floor"):
            fit_whitener(m, False)
        t, back, rho = fit_whitener(m, True)
        assert rho > 0.0
        assert t.shape == (10, 10)


class TestApplyWhitener:
    """The whitened coordinates t = (x - mean) @ back."""

    def test_identity_transform_passthrough(self):
        # already-white data are only rotated: inner products of rows survive
        rng = np.random.default_rng(4)
        m = white_data(rng, 25, 3)
        t, _ = whiten(m, False)
        xc = m.values - m.values.mean(axis=0)
        assert np.allclose(t @ t.T, xc @ xc.T, atol=1e-10)

    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(5)
        for n, p in ((30, 3), (15, 40)):
            m = random_full_rank(rng, n, p)
            t, _ = whiten(m, True)
            assert np.allclose(t.mean(axis=0), 0.0, atol=1e-12)

    def test_self_whitening_gives_identity_covariance(self):
        rng = np.random.default_rng(6)
        m = random_full_rank(rng, 80, 6, scale=np.array([1, 2, 3, 0.5, 1.5, 4.0]))
        t, _ = whiten(m, False)
        assert np.max(np.abs(t.T @ t / m.n - np.eye(6))) < 1e-8

    def test_affine_in_convex_combinations(self):
        # (a*x + (1-a)*y - m) @ back = a*t_x + (1-a)*t_y because the weights
        # sum to one and the mean term cancels
        rng = np.random.default_rng(7)
        m = random_full_rank(rng, 25, 5)
        t, back = whiten(m, True)
        mean = m.values.mean(axis=0)
        x, y = m.values[0], m.values[1]
        for a in rng.uniform(0.0, 1.0, size=10):
            combo = (a * x + (1 - a) * y - mean) @ back
            assert np.allclose(combo, a * t[0] + (1 - a) * t[1], atol=1e-10)


class TestUnwhitenCoefficients:
    """Coefficients on t map to the original coordinates as beta = back @ gamma."""

    def test_round_trip(self):
        # gamma on t and beta on the centred data give the same predictor
        rng = np.random.default_rng(8)
        for n, p in ((40, 7), (12, 30)):
            m = random_full_rank(rng, n, p)
            t, back = whiten(m, True)
            gamma = rng.standard_normal(min(n, p))
            xc = m.values - m.values.mean(axis=0)
            assert np.allclose(xc @ (back @ gamma), t @ gamma, atol=1e-10)

    def test_diagonal(self):
        # uncorrelated columns with variances 4 and 9: back @ back' is the
        # diagonal Sigma^{-1}
        rng = np.random.default_rng(9)
        white = white_data(rng, 50, 2).values
        m = SampleMatrix(white * np.array([2.0, 3.0]), names(2))
        _, back = whiten(m, False)
        assert np.allclose(back @ back.T, np.diag([1 / 4, 1 / 9]), atol=1e-12)

    def test_matrix_valued(self):
        rng = np.random.default_rng(10)
        m = random_full_rank(rng, 40, 4)
        t, back = whiten(m, False)
        gamma = rng.standard_normal((4, 3))
        beta = back @ gamma
        assert beta.shape == (4, 3)
        xc = m.values - m.values.mean(axis=0)
        assert np.allclose(xc @ beta, t @ gamma, atol=1e-10)


class TestLossEquivalence:
    def test_original_equals_whitened_objective(self):
        # with beta = back @ gamma and the intercept shifted by beta'x-bar,
        # the penalized least-squares objective is the same number in both
        # coordinate systems: the data terms match pointwise and the penalty
        # obeys beta' Sigma beta = gamma' gamma
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(12, 51))
            p = int(rng.integers(1, 11))
            m = random_full_rank(rng, n, p)
            y = rng.standard_normal(n)
            cov = lw_shrink(m)
            t, back = whiten(m, True)
            lam = float(rng.uniform(0.01, 2.0))

            alpha = float(rng.standard_normal())
            gamma = rng.standard_normal(p)
            beta = back @ gamma
            alpha_x = alpha - float(beta @ m.values.mean(axis=0))

            resid_x = y - alpha_x - m.values @ beta
            obj_x = float(resid_x @ resid_x) / n + lam * float(beta @ cov.matrix @ beta)
            resid_t = y - alpha - t @ gamma
            obj_t = float(resid_t @ resid_t) / n + lam * float(gamma @ gamma)
            assert obj_x == pytest.approx(obj_t, rel=1e-8)


class TestWideData:
    def test_matches_direct_solve_when_p_exceeds_n(self):
        # the SVD branch: beta from the n-column fit equals the p x p direct
        # minimizer of |yc - Xc b|^2/n + lam * b' Sigma b
        rng = np.random.default_rng(12)
        n, p = 40, 120
        x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.1 * rng.standard_normal((p, p)))
        y = x[:, :3].sum(axis=1) + rng.standard_normal(n)
        m = SampleMatrix(x, names(p))
        cov = lw_shrink(m)
        assert cov.rho > 0.0
        t, back = whiten(m, True)
        xc = x - x.mean(axis=0)
        for lam in (0.01, 1.0):
            beta = back @ fit_mse(t, y, lam).gamma[:, 0]
            direct = np.linalg.solve(xc.T @ xc / n + lam * cov.matrix, xc.T @ (y - y.mean()) / n)
            assert np.linalg.norm(beta - direct) / np.linalg.norm(direct) < 1e-8
