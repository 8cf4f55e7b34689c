"""Permutation p-value tests.

The batched closed-form path is checked against a per-permutation loop
that replays the same RNG streams one at a time; the maxT adjusted p-values
are checked against a loop over that oracle's null statistics.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covridge.permtest as permtest
from covridge import (
    NumericalError,
    PermutationConfig,
    SampleMatrix,
    UsageError,
    fit_mse,
    fit_multinomial,
    fit_whitener,
    permutation_pvalues,
    row_abs_sum,
)
from covridge.permtest import exceedance_counts, maxt_adjusted_pvalues, permutation_stream


def whitened(rng, n, p, scale=1.0):
    """Original columns x, whitened coordinates and back-map under shrinkage."""
    data = SampleMatrix(rng.standard_normal((n, p)) * scale, [f"X{i + 1}" for i in range(p)])
    t, back, _ = fit_whitener(data, True)
    return data.values, t, back


def observed_statistic(z, target, loss, lam, back):
    fit = fit_mse(z, target, lam) if loss == "mse" else fit_multinomial(z, target, lam)
    return row_abs_sum(back @ fit.gamma)


class TestConfig:
    def test_negative_b(self):
        with pytest.raises(UsageError):
            PermutationConfig(b=-1)

    def test_negative_seed(self):
        with pytest.raises(UsageError):
            PermutationConfig(seed=-2)

    def test_defaults(self):
        c = PermutationConfig()
        assert c.b == 1000 and c.seed == 0


class TestRowAbsSum:
    def test_vector(self):
        assert np.array_equal(row_abs_sum(np.array([1.0, -2.0, 0.0])), [1.0, 2.0, 0.0])

    def test_matrix(self):
        beta = np.array([[1.0, -1.0], [0.0, 0.0], [2.0, 3.0]])
        assert np.array_equal(row_abs_sum(beta), [2.0, 0.0, 5.0])

    def test_zero_iff_zero_row(self):
        rng = np.random.default_rng(0)
        beta = rng.standard_normal((5, 3))
        beta[2] = 0.0
        s = row_abs_sum(beta)
        for j in range(5):
            assert (s[j] == 0.0) == bool(np.all(beta[j] == 0.0))


class TestPermutationStream:
    def test_pure_function_of_seed_and_index(self):
        a = permutation_stream(5, 3).permutation(10)
        b = permutation_stream(5, 3).permutation(10)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = permutation_stream(5, 0).permutation(50)
        b = permutation_stream(5, 1).permutation(50)
        assert not np.array_equal(a, b)


class TestPermutationPvalues:
    def test_zero_permutations_gives_ones(self):
        rng = np.random.default_rng(1)
        _, z, back = whitened(rng, 40, 4)
        y = rng.standard_normal(40)
        res = permutation_pvalues(z, y, "mse", 0.1, back, PermutationConfig(b=0))
        assert np.array_equal(res.p_values, np.ones(4))
        assert np.array_equal(res.exceed_counts, np.zeros(4))

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(7)
        _, z, back = whitened(rng, 20, 3)
        y = rng.standard_normal(20)
        config = PermutationConfig(b=5)
        with pytest.raises(UsageError):
            permutation_pvalues(z, y, "mse", 0.1, back[:, :2], config)

    @pytest.mark.parametrize("loss", ["mse", "multinomial"])
    def test_observed_fit_matches_public_fit(self, loss):
        rng = np.random.default_rng(12)
        x, z, back = whitened(rng, 48, 3)
        target = x[:, 0] + rng.standard_normal(48)
        if loss == "multinomial":
            target = (target > 0).astype(int)
        fit = fit_mse(z, target, 0.4) if loss == "mse" else fit_multinomial(z, target, 0.4)
        res = permutation_pvalues(z, target, loss, 0.4, back, PermutationConfig(b=9))
        for field in dataclasses.fields(fit):
            assert np.array_equal(getattr(res.fit, field.name), getattr(fit, field.name))
        assert np.array_equal(res.beta, back @ fit.gamma)
        assert np.array_equal(res.observed, observed_statistic(z, target, loss, 0.4, back))

    def test_zero_statistic_gives_p_one(self):
        # a constant column centers to zero: its Gram row and cross entry
        # vanish, so its coefficient is exactly zero in every refit and the
        # >= comparison fires for all b permutations
        rng = np.random.default_rng(2)
        z = rng.standard_normal((30, 3))
        z[:, 1] = 7.0
        y = rng.standard_normal(30)
        res = permutation_pvalues(z, y, "mse", 0.5, np.eye(3), PermutationConfig(b=25))
        assert res.observed[1] == 0.0
        assert res.p_values[1] == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x, z, back = whitened(rng, 30, 3)
        y = x[:, 0] + rng.standard_normal(30)
        lam = 0.2
        config = PermutationConfig(b=50, seed=9)
        res = permutation_pvalues(z, y, "mse", lam, back, config)

        zc = z - z.mean(axis=0)
        yc = y - y.mean()
        system = zc.T @ zc / 30 + lam * np.eye(3)
        gamma_obs = np.linalg.solve(system, zc.T @ yc / 30)
        s_obs = np.abs(back @ gamma_obs)
        assert np.allclose(res.observed, s_obs, atol=1e-12)

        counts = np.zeros(3, dtype=int)
        for idx in range(50):
            stream = np.random.default_rng(np.random.SeedSequence([9, idx]))
            perm_y = yc[stream.permutation(30)]
            gamma = np.linalg.solve(system, zc.T @ perm_y / 30)
            counts += np.abs(back @ gamma) >= s_obs
        assert np.array_equal(res.exceed_counts, counts)
        assert np.allclose(res.p_values, (1 + counts) / 51.0)

    def test_strong_signal_minimal_p(self):
        rng = np.random.default_rng(4)
        x, z, back = whitened(rng, 100, 3)
        y = 3.0 * x[:, 0] + 0.01 * rng.standard_normal(100)
        res = permutation_pvalues(z, y, "mse", 0.01, back, PermutationConfig(b=199))
        assert res.p_values[0] == pytest.approx(1.0 / 200.0)

    def test_null_uniformity(self):
        rng = np.random.default_rng(5)
        _, z, back = whitened(rng, 200, 100)
        y = rng.standard_normal(200)
        res = permutation_pvalues(z, y, "mse", 1.0, back, PermutationConfig(b=499, seed=5))
        fraction = float(np.mean(res.p_values <= 0.05))
        assert 0.01 <= fraction <= 0.11

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(6)
        _, z, back = whitened(rng, 50, 4)
        y = rng.standard_normal(50)
        a = permutation_pvalues(z, y, "mse", 0.3, back, PermutationConfig(b=64, seed=1))
        b = permutation_pvalues(z, y, "mse", 0.3, back, PermutationConfig(b=64, seed=1))
        assert np.array_equal(a.p_values, b.p_values)
        assert np.array_equal(a.exceed_counts, b.exceed_counts)

    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_p_at_least_reciprocal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 25))
        p = int(rng.integers(1, 4))
        b = int(rng.integers(0, 30))
        z = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        res = permutation_pvalues(
            z, y, "mse", 0.5, np.eye(p), PermutationConfig(b=b, seed=seed)
        )
        assert np.all(res.p_values >= 1.0 / (1.0 + b))
        assert np.all(res.p_values <= 1.0)


class TestMultinomialPath:
    def build(self, rng, n=48):
        x, z, back = whitened(rng, n, 3)
        labels = (x[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(int)
        return z, labels, back

    def test_signal_column_small_p(self):
        rng = np.random.default_rng(7)
        z, labels, back = self.build(rng, n=80)
        res = permutation_pvalues(z, labels, "multinomial", 0.1, back, PermutationConfig(b=49))
        assert res.p_values[0] == res.p_values.min()
        assert res.p_values[0] <= 0.1

    def test_failure_fraction_escalates(self, monkeypatch):
        rng = np.random.default_rng(10)
        z, labels, back = self.build(rng)

        def failing_refits(tv, labels, k, lams):
            # the observed fit goes through fit_multinomial, which this
            # leaves alone; every member of every refit stack fails
            return [None] * len(lams)

        monkeypatch.setattr(permtest, "_fit_multinomial_stack", failing_refits)
        with pytest.raises(NumericalError, match="permutation refits failed"):
            permutation_pvalues(z, labels, "multinomial", 0.5, back, PermutationConfig(b=8))


def loop_null_statistics(z, y, lam, back, b, seed):
    """Observed and p x b null statistics of the squared-error path, one
    permutation at a time."""
    n, p = z.shape
    zc = z - z.mean(axis=0)
    yc = y - y.mean()
    system = zc.T @ zc / n + lam * np.eye(p)
    s_obs = np.abs(back @ np.linalg.solve(system, zc.T @ yc / n))
    null = np.empty((p, b))
    for idx in range(b):
        stream = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        gamma = np.linalg.solve(system, zc.T @ yc[stream.permutation(n)] / n)
        null[:, idx] = np.abs(back @ gamma)
    return s_obs, null


def loop_maxt(s_obs, null):
    p, b = null.shape
    rms = np.array([np.sqrt(np.mean([null[j, i] ** 2 for i in range(b)])) for j in range(p)])
    maxima = [max(null[j, i] / rms[j] for j in range(p)) for i in range(b)]
    return np.array(
        [(1 + sum(m >= s_obs[j] / rms[j] for m in maxima)) / (1 + b) for j in range(p)]
    )


class TestMaxTAdjustment:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        # columns on different scales: studentizing must put them on one
        x, z, back = whitened(rng, 30, 4, scale=np.array([1.0, 1.0, 50.0, 1.0]))
        y = x[:, 0] + 0.5 * x[:, 3] + rng.standard_normal(30)
        config = PermutationConfig(b=60, seed=9)
        res = permutation_pvalues(z, y, "mse", 0.2, back, config)

        s_obs, null = loop_null_statistics(z, y, 0.2, back, 60, 9)
        assert res.null_statistics.shape == (4, 60)
        assert np.allclose(res.null_statistics, null, rtol=1e-12, atol=0.0)
        expected = loop_maxt(res.observed, res.null_statistics)
        assert np.array_equal(res.adjusted_p_values, expected)
        assert np.array_equal(loop_maxt(s_obs, null), expected)

    @given(st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_adjusted_never_below_marginal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 30))
        p = int(rng.integers(1, 7))
        b = int(rng.integers(0, 40))
        z = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
        y = z[:, 0] + rng.standard_normal(n)
        res = permutation_pvalues(
            z, y, "mse", 0.5, np.eye(p), PermutationConfig(b=b, seed=seed)
        )
        assert np.all(res.adjusted_p_values >= res.p_values)
        counts = res.adjusted_p_values * (1 + b) - 1
        assert np.allclose(counts, np.round(counts), atol=1e-9)
        assert np.all(res.adjusted_p_values <= 1.0)

    def test_zero_rms_column_gets_one(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((30, 3))
        z[:, 1] = 7.0
        y = z[:, 0] + rng.standard_normal(30)
        res = permutation_pvalues(z, y, "mse", 0.5, np.eye(3), PermutationConfig(b=40))
        assert not np.any(res.null_statistics[1])
        assert res.adjusted_p_values[1] == 1.0
        assert res.adjusted_p_values[0] < 1.0

    def test_constant_response_gives_all_ones(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((30, 3))
        y = np.full(30, 2.5)
        res = permutation_pvalues(z, y, "mse", 0.5, np.eye(3), PermutationConfig(b=40))
        assert np.array_equal(res.adjusted_p_values, np.ones(3))

    def test_zero_permutations_gives_ones(self):
        rng = np.random.default_rng(1)
        _, z, back = whitened(rng, 40, 4)
        y = rng.standard_normal(40)
        res = permutation_pvalues(z, y, "mse", 0.1, back, PermutationConfig(b=0))
        assert np.array_equal(res.adjusted_p_values, np.ones(4))
        assert res.null_statistics.shape == (4, 0)

    def test_raised_column_is_an_exceedance_for_every_variable(self):
        observed = np.array([3.0, 0.5, 2.0])
        null = np.array([[1.0, 0.2, 5.0, 0.1], [0.1, 0.6, 0.3, 0.2], [1.0, 1.0, 1.0, 1.0]])
        clean_counts = exceedance_counts(observed, null)
        clean_adjusted = maxt_adjusted_pvalues(observed, null)
        broken = np.column_stack([null, np.full(3, np.nan)])
        assert np.array_equal(exceedance_counts(observed, broken), clean_counts + 1)
        # the NaN column does not enter the RMS, so the other maxima are
        # unchanged and one more permutation beats every variable
        assert np.array_equal(
            np.rint(maxt_adjusted_pvalues(observed, broken) * 6), np.rint(clean_adjusted * 5) + 1
        )


def assert_one_refit_lost(clean, res, idx):
    """`res` repeats `clean` except that refit `idx` left a NaN null column,
    counted once in `failed` and as an exceedance for every variable."""
    assert res.failed == clean.failed + 1
    assert np.all(np.isnan(res.null_statistics[:, idx]))
    keep = np.arange(clean.null_statistics.shape[1]) != idx
    assert np.array_equal(res.null_statistics[:, keep], clean.null_statistics[:, keep])
    missed = clean.null_statistics[:, idx] < clean.observed
    assert np.array_equal(res.exceed_counts, clean.exceed_counts + missed)
    assert np.all(res.p_values >= clean.p_values)
    assert np.all(res.adjusted_p_values >= res.p_values)
    expected = maxt_adjusted_pvalues(res.observed, res.null_statistics)
    assert np.array_equal(res.adjusted_p_values, expected)


class TestFailedRefits:
    def build(self, rng, n=48):
        x, z, back = whitened(rng, n, 3)
        labels = (x[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(int)
        return z, labels, back

    def test_raised_refit_counts_as_exceedance(self, monkeypatch):
        rng = np.random.default_rng(11)
        z, labels, back = self.build(rng)
        config = PermutationConfig(b=100, seed=4)
        clean = permutation_pvalues(z, labels, "multinomial", 1.0, back, config)

        real_stack = permtest._fit_multinomial_stack

        def stack_failing_once(*args):
            # the 100 refits form one stack in index order, so member 6
            # refits permutation 6
            fits = real_stack(*args)
            fits[6] = None
            return fits

        monkeypatch.setattr(permtest, "_fit_multinomial_stack", stack_failing_once)
        res = permutation_pvalues(z, labels, "multinomial", 1.0, back, config)
        assert_one_refit_lost(clean, res, 6)

    def test_nonconverged_refit_counts_as_exceedance(self, monkeypatch):
        rng = np.random.default_rng(11)
        z, labels, back = self.build(rng)
        config = PermutationConfig(b=100, seed=4)
        clean = permutation_pvalues(z, labels, "multinomial", 1.0, back, config)

        real_stack = permtest._fit_multinomial_stack

        def stack_stalling_once(*args):
            fits = real_stack(*args)
            fits[6] = dataclasses.replace(fits[6], converged=False)
            return fits

        monkeypatch.setattr(permtest, "_fit_multinomial_stack", stack_stalling_once)
        res = permutation_pvalues(z, labels, "multinomial", 1.0, back, config)
        assert_one_refit_lost(clean, res, 6)

    def test_singular_member_loses_only_its_refit(self, monkeypatch):
        # One member's Newton system is singular: the stacked solve raises
        # for the whole stack, and the member-by-member solve that follows
        # fails for that member alone.
        rng = np.random.default_rng(11)
        z, labels, back = self.build(rng)
        config = PermutationConfig(b=100, seed=4)
        clean = permutation_pvalues(z, labels, "multinomial", 1.0, back, config)

        real_solve = np.linalg.solve
        poisoned = []

        def solve_singular_for_permutation_6(hessians, gradients):
            if len(gradients) == config.b and not poisoned:
                # the first step of the refit stack: member 6 is permutation 6
                poisoned.append(gradients[6].copy())
            if poisoned and any(np.array_equal(g, poisoned[0]) for g in gradients):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(hessians, gradients)

        monkeypatch.setattr(np.linalg, "solve", solve_singular_for_permutation_6)
        res = permutation_pvalues(z, labels, "multinomial", 1.0, back, config)
        assert poisoned
        assert_one_refit_lost(clean, res, 6)

    def test_null_columns_follow_permutation_index(self):
        rng = np.random.default_rng(8)
        z, labels, back = self.build(rng)
        config = PermutationConfig(b=12, seed=2)
        res = permutation_pvalues(z, labels, "multinomial", 0.5, back, config)
        for idx in (0, 5, 11):
            shuffled = labels[permutation_stream(2, idx).permutation(len(labels))]
            stats = observed_statistic(z, shuffled, "multinomial", 0.5, back)
            assert np.array_equal(res.null_statistics[:, idx], stats)
