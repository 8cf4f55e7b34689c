"""Permutation p-value tests.

The batched closed-form path is checked against a per-permutation loop
that draws the same permutations one at a time; the maxT adjusted p-values
are checked against a loop over that oracle's null statistics.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covridge.permtest as permtest
import covridge.solver as solver
from covridge import (
    NumericalError,
    SampleMatrix,
    UsageError,
    fit_mse,
    fit_multinomial,
    fit_whitener,
    permutation_pvalues,
    row_abs_sum,
)
from covridge.permtest import exceedance_counts, maxt_adjusted_pvalues
from covridge.solver import fold_indices


def whitened(rng, n, p, scale=1.0):
    """Original columns x, whitened coordinates and back-map under shrinkage."""
    data = SampleMatrix(rng.standard_normal((n, p)) * scale, [f"X{i + 1}" for i in range(p)])
    t, back, _ = fit_whitener(data, True)
    return data.values, t, back


def equal_thirds(score):
    """Three-class labels by tertile of `score`."""
    return np.searchsorted(np.quantile(score, [1 / 3, 2 / 3]), score)


def oracle_permutations(seed, n, b):
    """The test's definition of its permutations: one generator seeded by
    SeedSequence(seed, spawn_key=(1,)) draws permutation 0, 1, ..., b - 1 in order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return [rng.permutation(n) for _ in range(b)]


def observed_statistic(z, target, loss, lam, back):
    fit = fit_mse(z, target, lam) if loss == "mse" else fit_multinomial(z, target, lam)
    return row_abs_sum(back @ fit.gamma)


class TestConfig:
    """`b` and `seed` are checked before the observed fit runs."""

    def test_negative_b(self):
        with pytest.raises(UsageError, match="permutation count must be >= 0, got -1"):
            permutation_pvalues(np.zeros((3, 2)), np.zeros(3), "mse", 1.0, np.eye(2), b=-1)

    def test_negative_seed(self):
        with pytest.raises(UsageError, match="seed must be >= 0"):
            permutation_pvalues(np.zeros((3, 2)), np.zeros(3), "mse", 1.0, np.eye(2), seed=-2)

    def test_defaults(self):
        rng = np.random.default_rng(2)
        _, z, back = whitened(rng, 20, 3)
        y = rng.standard_normal(20)
        res = permutation_pvalues(z, y, "mse", 0.5, back)
        assert res.null_statistics.shape == (3, 1000)
        seeded = permutation_pvalues(z, y, "mse", 0.5, back, b=1000, seed=0)
        assert np.array_equal(res.null_statistics, seeded.null_statistics)


@pytest.mark.parametrize("loss", ["mse", "multinomial"])
def test_callers_design_is_left_unchanged(loss):
    # the solver model owns its design, so the public entry hands it a copy
    rng = np.random.default_rng(6)
    _, z, back = whitened(rng, 40, 3)
    z += 2.0  # column means far from 0, so a centring in place would show
    target = (z[:, 0] > 2.0).astype(int) if loss == "multinomial" else rng.standard_normal(40)
    before = z.copy()
    permutation_pvalues(z, target, loss, 0.5, back, b=9, seed=6)
    assert z.tobytes() == before.tobytes()


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
        # permutation j depends on (seed, j) alone: the first 100 null columns
        # at b = 600 (three batches of 256) are those of b = 100, bit for bit
        rng = np.random.default_rng(40)
        x, z, back = whitened(rng, 60, 4)
        y = x[:, 0] + rng.standard_normal(60)
        for loss, target in (("mse", y), ("multinomial", equal_thirds(y))):
            short = permutation_pvalues(z, target, loss, 0.5, back, b=100, seed=40)
            long = permutation_pvalues(z, target, loss, 0.5, back, b=600, seed=40)
            assert short.null_statistics.tobytes() == long.null_statistics[:, :100].tobytes()

    def test_distinct_indices_differ(self):
        # one generator drawn on from row to row: a generator seeded afresh
        # per row or per batch would repeat its permutations
        rng = np.random.default_rng(41)
        _, z, back = whitened(rng, 50, 3)
        y = rng.standard_normal(50)
        null = permutation_pvalues(z, y, "mse", 0.5, back, b=300, seed=41).null_statistics
        assert np.unique(null, axis=1).shape[1] == 300

    def test_first_permutation_is_not_the_cv_fold_permutation(self):
        # fold_indices splits the first permutation of SeedSequence([seed]);
        # the test's generator must not draw that permutation first
        rng = np.random.default_rng(42)
        n = 50
        _, z, back = whitened(rng, n, 3)
        y = rng.standard_normal(n)
        folds = np.concatenate(fold_indices(n, 5, 42))
        res = permutation_pvalues(z, y, "mse", 0.5, back, b=1, seed=42)
        assert not np.allclose(res.null_statistics[:, 0],
                               observed_statistic(z, y[folds], "mse", 0.5, back))
        first = oracle_permutations(42, n, 1)[0]
        assert np.allclose(res.null_statistics[:, 0],
                           observed_statistic(z, y[first], "mse", 0.5, back), rtol=1e-12, atol=0)

    def test_seed_sequences_built_do_not_grow_with_b(self, monkeypatch):
        rng = np.random.default_rng(3)
        _, z, back = whitened(rng, 30, 3)
        y = rng.standard_normal(30)
        built = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        counts = []
        for b in (10, 600):  # 600 spans three batches of 256
            built.clear()
            permutation_pvalues(z, y, "mse", 0.5, back, b=b, seed=4)
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("n", [1, 2, 1000, 100_003])
    def test_shuffle_in_place_equals_indexing_by_permutation(self, dtype, n):
        # The refits fill each row with the base target and shuffle it in
        # place, one row after another; every p-value rests on this equalling
        # the base indexed by the oracle's permutations in turn, bit for bit.
        base = np.random.default_rng(n).standard_normal(n) * 1e3
        base = base.astype(dtype)
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1,)))
        for perm in oracle_permutations(7, n, 3):
            row = np.empty_like(base)
            row[:] = base
            rng.shuffle(row)
            assert np.array_equal(row, base[perm])


class TestPermutationPvalues:
    def test_zero_permutations_gives_ones(self):
        rng = np.random.default_rng(1)
        _, z, back = whitened(rng, 40, 4)
        y = rng.standard_normal(40)
        res = permutation_pvalues(z, y, "mse", 0.1, back, b=0)
        assert np.array_equal(res.p_values, np.ones(4))
        assert np.array_equal(res.exceed_counts, np.zeros(4))

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(7)
        _, z, back = whitened(rng, 20, 3)
        y = rng.standard_normal(20)
        with pytest.raises(UsageError):
            permutation_pvalues(z, y, "mse", 0.1, back[:, :2], b=5)

    @pytest.mark.parametrize("loss", ["mse", "multinomial"])
    def test_observed_fit_matches_public_fit(self, loss):
        rng = np.random.default_rng(12)
        x, z, back = whitened(rng, 48, 3)
        target = x[:, 0] + rng.standard_normal(48)
        if loss == "multinomial":
            target = (target > 0).astype(int)
        fit = fit_mse(z, target, 0.4) if loss == "mse" else fit_multinomial(z, target, 0.4)
        res = permutation_pvalues(z, target, loss, 0.4, back, b=9)
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
        res = permutation_pvalues(z, y, "mse", 0.5, np.eye(3), b=25)
        assert res.observed[1] == 0.0
        assert res.p_values[1] == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x, z, back = whitened(rng, 30, 3)
        y = x[:, 0] + rng.standard_normal(30)
        lam = 0.2
        res = permutation_pvalues(z, y, "mse", lam, back, b=50, seed=9)

        zc = z - z.mean(axis=0)
        yc = y - y.mean()
        system = zc.T @ zc / 30 + lam * np.eye(3)
        gamma_obs = np.linalg.solve(system, zc.T @ yc / 30)
        s_obs = np.abs(back @ gamma_obs)
        assert np.allclose(res.observed, s_obs, atol=1e-12)

        counts = np.zeros(3, dtype=int)
        for perm in oracle_permutations(9, 30, 50):
            perm_y = yc[perm]
            gamma = np.linalg.solve(system, zc.T @ perm_y / 30)
            counts += np.abs(back @ gamma) >= s_obs
        assert np.array_equal(res.exceed_counts, counts)
        assert np.allclose(res.p_values, (1 + counts) / 51.0)

    def test_strong_signal_minimal_p(self):
        rng = np.random.default_rng(4)
        x, z, back = whitened(rng, 100, 3)
        y = 3.0 * x[:, 0] + 0.01 * rng.standard_normal(100)
        res = permutation_pvalues(z, y, "mse", 0.01, back, b=199)
        assert res.p_values[0] == pytest.approx(1.0 / 200.0)

    def test_null_uniformity(self):
        rng = np.random.default_rng(5)
        _, z, back = whitened(rng, 200, 100)
        y = rng.standard_normal(200)
        res = permutation_pvalues(z, y, "mse", 1.0, back, b=499, seed=5)
        fraction = float(np.mean(res.p_values <= 0.05))
        assert 0.01 <= fraction <= 0.11

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(6)
        _, z, back = whitened(rng, 50, 4)
        y = rng.standard_normal(50)
        a = permutation_pvalues(z, y, "mse", 0.3, back, b=64, seed=1)
        b = permutation_pvalues(z, y, "mse", 0.3, back, b=64, seed=1)
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
            z, y, "mse", 0.5, np.eye(p), b=b, seed=seed
        )
        assert np.all(res.p_values >= 1.0 / (1.0 + b))
        assert np.all(res.p_values <= 1.0)

    def test_refits_hold_one_batch_of_targets(self):
        # The permuted targets of a batch are filled into one buffer and
        # refitted in place; centring or copying the batch again would
        # double the peak.
        n, b = 20_000, 256
        rng = np.random.default_rng(24)
        z = rng.standard_normal((n, 5))
        y = z[:, 0] + rng.standard_normal(n)
        tracemalloc.start()
        try:
            permutation_pvalues(z, y, "mse", 0.1, np.eye(5), b=b, seed=24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * b * n * 8

    def test_refits_keep_targets_within_the_stack_budget(self, monkeypatch):
        # A 1 MiB budget holds 6 targets of n = 20 000; the 64 refits run in
        # batches of 6 through one buffer, and the results are the same as
        # in one batch of 64.
        n, r, b = 20_000, 5, 64
        budget = 1 << 20
        rng = np.random.default_rng(25)
        z = rng.standard_normal((n, r))
        y = z[:, 0] + rng.standard_normal(n)
        config = dict(b=b, seed=25)
        whole = permutation_pvalues(z, y, "mse", 0.1, np.eye(r), **config)
        monkeypatch.setattr(permtest, "_STACK_BYTES", budget)
        tracemalloc.start()
        try:
            capped = permutation_pvalues(z, y, "mse", 0.1, np.eye(r), **config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - n * r * 8 < 1.5 * budget
        assert np.array_equal(capped.p_values, whole.p_values)
        assert np.array_equal(capped.adjusted_p_values, whole.adjusted_p_values)
        np.testing.assert_allclose(capped.null_statistics, whole.null_statistics, rtol=1e-12)


class TestMultinomialPath:
    def build(self, rng, n=48):
        x, z, back = whitened(rng, n, 3)
        labels = (x[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(int)
        return z, labels, back

    def test_signal_column_small_p(self):
        rng = np.random.default_rng(7)
        z, labels, back = self.build(rng, n=80)
        res = permutation_pvalues(z, labels, "multinomial", 0.1, back, b=49)
        assert res.p_values[0] == res.p_values.min()
        assert res.p_values[0] <= 0.1

    def test_failure_fraction_escalates(self, monkeypatch):
        rng = np.random.default_rng(10)
        z, labels, back = self.build(rng)

        real_fit = solver._MultinomialModel.fit

        def failing_refits(model, lams, rows=None):
            # the observed fit (rows=None) is left alone; every member of
            # every refit stack fails
            alpha, gamma, iterations, converged = real_fit(model, lams, rows)
            if rows is not None:
                converged = np.zeros_like(converged)
            return alpha, gamma, iterations, converged

        monkeypatch.setattr(solver._MultinomialModel, "fit", failing_refits)
        with pytest.raises(NumericalError, match="permutation refits failed"):
            permutation_pvalues(z, labels, "multinomial", 0.5, back, b=8)


def loop_null_statistics(z, y, lam, back, b, seed):
    """Observed and p x b null statistics of the squared-error path, one
    permutation at a time."""
    n, p = z.shape
    zc = z - z.mean(axis=0)
    yc = y - y.mean()
    system = zc.T @ zc / n + lam * np.eye(p)
    s_obs = np.abs(back @ np.linalg.solve(system, zc.T @ yc / n))
    null = np.empty((p, b))
    for idx, perm in enumerate(oracle_permutations(seed, n, b)):
        gamma = np.linalg.solve(system, zc.T @ yc[perm] / n)
        null[:, idx] = np.abs(back @ gamma)
    return s_obs, null


def loop_maxt(s_obs, null):
    p, b = null.shape
    # each scale is the RMS of all b + 1 draws, the observed one included
    rms = np.array([np.sqrt(np.mean([s_obs[j] ** 2] + [null[j, i] ** 2 for i in range(b)]))
                    for j in range(p)])
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
        res = permutation_pvalues(z, y, "mse", 0.2, back, b=60, seed=9)

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
            z, y, "mse", 0.5, np.eye(p), b=b, seed=seed
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
        res = permutation_pvalues(z, y, "mse", 0.5, np.eye(3), b=40)
        assert not np.any(res.null_statistics[1])
        assert res.adjusted_p_values[1] == 1.0
        assert res.adjusted_p_values[0] < 1.0

    def test_zero_null_draws_under_a_nonzero_observation_give_the_smallest_p(self):
        # Studentized by all five draws, variable 0's observed value is
        # sqrt(5), the largest any draw can take; no null maximum reaches it.
        observed = np.array([0.3, 2.0, 0.5])
        null = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.5, 0.5, 1.5], [0.4, 0.1, 0.6, 0.2]])
        adjusted = maxt_adjusted_pvalues(observed, null)
        assert adjusted[0] == 1 / 5
        assert exceedance_counts(observed, null)[0] == 0
        assert np.array_equal(adjusted, loop_maxt(observed, null))

    def test_global_null_familywise_rate_at_p_much_larger_than_n(self):
        # x and y independent at n = 100, p = 1000 and B = 199: 20 designs
        # with 20 responses each. A false selection is any p~ <= 0.05. Over
        # 400 data sets its rate may exceed 0.05 by 3 binomial sd at most;
        # scales from the null draws alone give 0.090 here.
        n, p, sets = 100, 1000, 400
        false = 0
        for i in range(20):
            x = np.random.default_rng(np.random.SeedSequence([2026, i])).standard_normal((n, p))
            t, back, _ = fit_whitener(SampleMatrix(x, [f"X{k + 1}" for k in range(p)]), True)
            for j in range(20):
                y = np.random.default_rng(np.random.SeedSequence([2026, i, j])).standard_normal(n)
                res = permutation_pvalues(t, y, "mse", 1.0, back, b=199, seed=20 * i + j)
                false += res.adjusted_p_values.min() <= 0.05
        assert false / sets <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / sets)  # 0.083

    def test_constant_response_gives_all_ones(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((30, 3))
        y = np.full(30, 2.5)
        res = permutation_pvalues(z, y, "mse", 0.5, np.eye(3), b=40)
        assert np.array_equal(res.adjusted_p_values, np.ones(3))

    def test_zero_permutations_gives_ones(self):
        rng = np.random.default_rng(1)
        _, z, back = whitened(rng, 40, 4)
        y = rng.standard_normal(40)
        res = permutation_pvalues(z, y, "mse", 0.1, back, b=0)
        assert np.array_equal(res.adjusted_p_values, np.ones(4))
        assert res.null_statistics.shape == (4, 0)

    def test_every_refit_lost_gives_all_ones(self):
        # every M_b is inf; no refit is left to give a variable its scale
        observed = np.array([3.0, 0.5, 2.0])
        adjusted = maxt_adjusted_pvalues(observed, np.full((3, 4), np.nan))
        assert np.array_equal(adjusted, np.ones(3))

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
        config = dict(b=100, seed=4)
        clean = permutation_pvalues(z, labels, "multinomial", 1.0, back, **config)

        real_fit = solver._MultinomialModel.fit

        def stack_failing_once(model, lams, rows=None):
            # the 100 refits form one stack in index order, so member 6
            # refits permutation 6; a lost member's coefficients are never
            # read, so NaN there must not reach any statistic
            alpha, gamma, iterations, converged = real_fit(model, lams, rows)
            if rows is not None:
                converged, gamma = converged.copy(), gamma.copy()
                converged[6], gamma[6] = False, np.nan
            return alpha, gamma, iterations, converged

        monkeypatch.setattr(solver._MultinomialModel, "fit", stack_failing_once)
        res = permutation_pvalues(z, labels, "multinomial", 1.0, back, **config)
        assert_one_refit_lost(clean, res, 6)

    def test_nonconverged_refit_counts_as_exceedance(self, monkeypatch):
        rng = np.random.default_rng(11)
        z, labels, back = self.build(rng)
        config = dict(b=100, seed=4)
        clean = permutation_pvalues(z, labels, "multinomial", 1.0, back, **config)

        real_fit = solver._MultinomialModel.fit

        def stack_stalling_once(model, lams, rows=None):
            alpha, gamma, iterations, converged = real_fit(model, lams, rows)
            if rows is not None:
                converged = converged.copy()
                converged[6] = False
            return alpha, gamma, iterations, converged

        monkeypatch.setattr(solver._MultinomialModel, "fit", stack_stalling_once)
        res = permutation_pvalues(z, labels, "multinomial", 1.0, back, **config)
        assert_one_refit_lost(clean, res, 6)

    def test_singular_member_loses_only_its_refit(self, monkeypatch):
        # One member's Newton system is singular: the stacked solve raises
        # for the whole stack, and the member-by-member solve that follows
        # fails for that member alone.
        rng = np.random.default_rng(11)
        z, labels, back = self.build(rng)
        config = dict(b=100, seed=4)
        clean = permutation_pvalues(z, labels, "multinomial", 1.0, back, **config)

        real_solve = np.linalg.solve
        poisoned = []

        def solve_singular_for_permutation_6(hessians, gradients):
            if len(gradients) == config["b"] and not poisoned:
                # the first step of the refit stack: member 6 is permutation 6
                poisoned.append(gradients[6].copy())
            if poisoned and any(np.array_equal(g, poisoned[0]) for g in gradients):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(hessians, gradients)

        monkeypatch.setattr(np.linalg, "solve", solve_singular_for_permutation_6)
        res = permutation_pvalues(z, labels, "multinomial", 1.0, back, **config)
        assert poisoned
        assert_one_refit_lost(clean, res, 6)

    def test_null_columns_follow_permutation_index(self):
        rng = np.random.default_rng(8)
        z, labels, back = self.build(rng)
        res = permutation_pvalues(z, labels, "multinomial", 0.5, back, b=12, seed=2)
        perms = oracle_permutations(2, len(labels), 12)
        for idx in (0, 5, 11):
            shuffled = labels[perms[idx]]
            stats = observed_statistic(z, shuffled, "multinomial", 0.5, back)
            assert np.array_equal(res.null_statistics[:, idx], stats)
