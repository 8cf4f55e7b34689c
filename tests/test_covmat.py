"""Sample matrix and covariance estimation tests.

The shrinkage intensity is checked against a deliberately naive per-sample
loop written here, not against the vectorized closed form in the package.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covridge import (
    DataError,
    DegenerateDataError,
    SampleMatrix,
    UsageError,
    fit_whitener,
)
from covridge.covmat import lw_shrink, sample_covariance

# mildly heterogeneous scales: enough structure that the identity target is
# visibly wrong (so the intensity stays small at large n), not so much that
# the shrunk matrix drifts far from S
HETERO_SDS = np.array([0.7, 0.85, 1.0, 1.2, 1.4])


def names(p):
    return [f"X{i + 1}" for i in range(p)]


def direct_shrinkage(x):
    # per-sample loop oracle for the shrinkage intensity and target
    n, p = x.shape
    xc = x - x.mean(axis=0)
    s = np.zeros((p, p))
    for t in range(n):
        s += np.outer(xc[t], xc[t])
    s /= n
    mu = np.trace(s) / p
    d2 = float(np.sum((s - mu * np.eye(p)) ** 2))
    bbar2 = 0.0
    for t in range(n):
        bbar2 += float(np.sum((np.outer(xc[t], xc[t]) - s) ** 2))
    bbar2 /= n * n
    b2 = min(d2, bbar2)
    rho = 0.0 if d2 <= 0 else min(1.0, b2 / d2)
    return rho, (1 - rho) * s + rho * mu * np.eye(p), s, mu


def two_pass_covariance(x):
    # textbook two-pass sample covariance, divisor n
    xc = x - x.mean(axis=0)
    return xc.T @ xc / x.shape[0]


class TestSampleMatrix:
    def test_rejects_1d(self):
        with pytest.raises(DataError):
            SampleMatrix(np.zeros(3), ["A"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            SampleMatrix(np.zeros((3, 2)), ["A", "A"])

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(DataError):
            SampleMatrix(np.zeros((3, 2)), ["A"])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            SampleMatrix(np.array([[1.0, np.nan]]), ["A", "B"])

    def test_rejects_single_row(self):
        with pytest.raises(DataError):
            SampleMatrix(np.ones((1, 2)), ["A", "B"])

    def test_float_array_is_wrapped_not_copied(self):
        values = np.arange(6.0).reshape(3, 2)
        assert SampleMatrix(values, ["A", "B"]).values is values

    def test_integer_input_is_converted(self):
        values = np.arange(6).reshape(3, 2)
        m = SampleMatrix(values, ["A", "B"])
        assert m.values.dtype == np.float64
        assert np.array_equal(m.values, values)

    def test_column_lookup(self):
        m = SampleMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ["A", "B"])
        assert m.column_index("B") == 1
        assert np.array_equal(m.column("A"), [1.0, 3.0])
        with pytest.raises(UsageError):
            m.column_index("C")


class TestSampleCovariance:
    def test_two_point_hand_value(self):
        # (0,0) and (2,0): var of first column is ((−1)²+1²)/2 = 1, divisor n
        m = SampleMatrix(np.array([[0.0, 0.0], [2.0, 0.0]]), names(2))
        est = sample_covariance(m)
        assert np.allclose(est.matrix, [[1.0, 0.0], [0.0, 0.0]])
        assert est.estimator == "sample"
        assert est.rho == 0.0

    def test_constant_column_zero_variance(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        est = sample_covariance(SampleMatrix(x, names(2)))
        assert est.matrix[1, 1] == 0.0

    def test_large_sample_near_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1000, 3))
        est = sample_covariance(SampleMatrix(x, names(3)))
        assert np.max(np.abs(est.matrix - np.eye(3))) < 0.15
        # frozen cross-check against the two-pass oracle on this draw
        assert np.allclose(est.matrix, two_pass_covariance(x), atol=1e-12)

    def test_row_order_invariance(self):
        # invariant up to summation order: BLAS accumulates in a different
        # order for permuted rows, so last-ulp wiggle is expected
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 4))
        a = sample_covariance(SampleMatrix(x, names(4))).matrix
        b = sample_covariance(SampleMatrix(x[::-1], names(4))).matrix
        assert np.allclose(a, b, atol=1e-14, rtol=0)


class TestLwShrink:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        est = lw_shrink(SampleMatrix(x, names(4)))
        rho, sigma, _, mu = direct_shrinkage(x)
        assert est.rho == pytest.approx(rho, rel=1e-12)
        assert est.mu == pytest.approx(mu, rel=1e-12)
        assert np.allclose(est.matrix, sigma, atol=1e-12)
        assert est.estimator == "lw2004"

    def test_target_equal_to_s_is_fixed_point(self):
        # two columns, equal variance, zero sample correlation: S = mu*I
        # already, so the convex combination returns S whatever rho does
        x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        est = lw_shrink(SampleMatrix(x, names(2)))
        assert np.allclose(est.matrix, np.eye(2), atol=1e-14)

    def test_wide_data_positive_definite(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 50))
        est = lw_shrink(SampleMatrix(x, names(50)))
        assert np.linalg.eigvalsh(est.matrix)[0] > 0.0

    def test_large_n_small_rho(self):
        # at n = 2000 with visibly unequal scales the intensity collapses
        # and the shrunk matrix hugs S; with equal scales the identity
        # target is exactly right and rho stays near 1 instead
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2000, 5)) * HETERO_SDS
        data = SampleMatrix(x, names(5))
        est = lw_shrink(data)
        assert est.rho < 0.05
        s = sample_covariance(data).matrix
        assert np.max(np.abs(est.matrix - s)) < 0.02
        rho, _, _, _ = direct_shrinkage(x)
        assert est.rho == pytest.approx(rho, rel=1e-12)

    def test_isotropic_data_shrinks_heavily(self):
        # equal scales: the identity target coincides with the truth, so the
        # intensity stays near its ceiling no matter how large n gets
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2000, 5))
        est = lw_shrink(SampleMatrix(x, names(5)))
        assert est.rho > 0.8

    def test_rho_decays_with_n(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            big = lw_shrink(SampleMatrix(rng.standard_normal((5000, 5)) * HETERO_SDS, names(5))).rho
            small = lw_shrink(SampleMatrix(rng.standard_normal((50, 5)) * HETERO_SDS, names(5))).rho
            wins += big < small
        assert wins >= 18

    def test_min_eigenvalue_floor(self):
        # smallest eigenvalue of the convex combination is at least rho*mu
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((8, 20))
            est = lw_shrink(SampleMatrix(x, names(20)))
            assert np.linalg.eigvalsh(est.matrix)[0] >= est.rho * est.mu - 1e-10

    def test_all_rows_identical_rejected(self):
        x = np.ones((5, 3))
        with pytest.raises(DegenerateDataError):
            lw_shrink(SampleMatrix(x, names(3)))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        est = lw_shrink(SampleMatrix(rng.standard_normal((12, 6)), names(6)))
        assert np.array_equal(est.matrix, est.matrix.T)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rho_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        p = int(rng.integers(1, 8))
        x = rng.standard_normal((n, p)) * rng.uniform(0.1, 3.0, size=p)
        if np.all(x == x[0]):
            return
        est = lw_shrink(SampleMatrix(x, names(p)))
        assert 0.0 <= est.rho <= 1.0


@pytest.mark.parametrize("estimator", [sample_covariance, lw_shrink])
def test_estimator_forms_one_p_by_p_array(estimator):
    # the returned matrix plus the n x p centred copy (0.1 p x p here); no
    # shrinkage delta, identity or symmetrized copy on the side
    n, p = 100, 1000
    data = SampleMatrix(np.random.default_rng(4).standard_normal((n, p)), names(p))
    tracemalloc.start()
    try:
        estimator(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * p * p


class TestWhitenerIntensity:
    """The whitener takes rho from its own decomposition, without forming S."""

    @pytest.mark.parametrize("n, p", [(60, 4), (40, 12), (15, 40), (8, 20)])
    def test_matches_lw_shrink_and_loop_oracle(self, n, p):
        # p < n (Gram eigenvalues) and p > n (singular values)
        rng = np.random.default_rng(n * p)
        x = rng.standard_normal((n, p)) * rng.uniform(0.3, 3.0, size=p)
        _, _, rho = fit_whitener(SampleMatrix(x, names(p)), True)
        assert rho == pytest.approx(lw_shrink(SampleMatrix(x, names(p))).rho, rel=1e-12)
        assert rho == pytest.approx(direct_shrinkage(x)[0], rel=1e-12)

    def test_target_equal_to_s_gives_zero(self):
        # S = mu*I exactly: d^2 = 0, so rho = 0 in all three computations
        x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        _, _, rho = fit_whitener(SampleMatrix(x, names(2)), True)
        assert rho == 0.0
        assert lw_shrink(SampleMatrix(x, names(2))).rho == 0.0
        assert direct_shrinkage(x)[0] == 0.0

