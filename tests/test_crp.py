"""End-to-end pipeline tests: loss resolution, covariance choice, ranking,
selection, determinism, and the coordinate-change invariances."""
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import covridge.crp as crp
import covridge.permtest as permtest
import covridge.solver as solver
from covridge import (
    CrpConfig,
    DataError,
    DegenerateDataError,
    NumericalError,
    PolyToySpec,
    SampleMatrix,
    UsageError,
    crp_run,
    default_lambda_grid,
    gen_poly_toy,
)
from covridge.bench import derive_seed
from covridge.covmat import lw_shrink


def names(p):
    return [f"X{i + 1}" for i in range(p)]


def with_response(x, y, response="Y"):
    return SampleMatrix(np.column_stack([x, y]), names(x.shape[1]) + [response])


def equal_sized_classes(score, k):
    """Codes 0..k-1 by rank of `score`."""
    return np.argsort(np.argsort(score)) * k // len(score)


def rounding_ties(observed, draws, rel=1e-9):
    """Variables with a draw within `rel` relative of their observed value."""
    return np.any(np.abs(draws - observed[:, None]) <= rel * observed[:, None], axis=1)


class TestConfig:
    def test_defaults(self):
        c = CrpConfig()
        assert c.loss == "auto" and c.covariance == "auto"
        assert c.cv_folds == 10 and c.permutations == 1000
        assert c.alpha_level == 0.05
        assert c.lambda_grid == default_lambda_grid()

    def test_default_grid_shape(self):
        grid = default_lambda_grid()
        assert len(grid) == 50
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e2)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_bad_loss(self):
        with pytest.raises(UsageError):
            CrpConfig(loss="poisson")

    def test_bad_covariance(self):
        with pytest.raises(UsageError):
            CrpConfig(covariance="oas")

    def test_lw2004_is_not_a_covariance_choice(self):
        # `auto` is the one name for the always-shrinking estimate; the
        # report still records it as covariance_used="lw2004"
        with pytest.raises(UsageError, match="lw2004"):
            CrpConfig(covariance="lw2004")

    def test_bad_alpha(self):
        with pytest.raises(UsageError):
            CrpConfig(alpha_level=0.0)
        with pytest.raises(UsageError):
            CrpConfig(alpha_level=1.5)

    def test_permutation_count_bound(self):
        # only a negative count is refused; a config allocates nothing, and
        # one generator drawn in order has no upper bound on B
        assert CrpConfig(permutations=2**32 + 1).permutations == 2**32 + 1
        with pytest.raises(UsageError, match="permutation count must be >= 0, got -1"):
            CrpConfig(permutations=-1)

    def test_bad_fixed_lambda(self):
        with pytest.raises(UsageError):
            CrpConfig(lambda_fixed=-0.5)

    def test_multinomial_zero_fixed_lambda(self):
        # the multinomial loss has no minimiser without a penalty
        with pytest.raises(UsageError, match="multinomial fits require lambda > 0"):
            CrpConfig(loss="multinomial", lambda_fixed=0.0)

    def test_custom_grid_coerced(self):
        c = CrpConfig(lambda_grid=[1, 10])
        assert c.lambda_grid == (1.0, 10.0)


class TestBasicRuns:
    def test_single_strong_variable(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((150, 1))
        y = x[:, 0] + 0.01 * rng.standard_normal(150)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=199, seed=0))
        assert rep.p_values[0] == pytest.approx(1.0 / 200.0)
        assert rep.selected == ["X1"]
        assert rep.ranking == ["X1"]
        assert rep.loss_used == "mse"

    def test_constant_response(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 4))
        y = np.full(60, 3.0)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=49, seed=1))
        assert np.array_equal(rep.p_values, np.ones(4))
        assert rep.selected == []
        assert np.allclose(rep.beta, 0.0, atol=1e-12)

    def test_benchmark_scale_gaussian_replicate(self):
        # a fifth-degree polynomial response with 95 inert extras: everything
        # selected comes from the five real sources on this pinned seed
        data, truth = gen_poly_toy(PolyToySpec(family="gaussian", extras=95, n=1000, seed=1))
        rep = crp_run(data, "Y", CrpConfig(loss="mse", permutations=199, seed=1))
        assert rep.selected == ["X1", "X3"]
        assert set(rep.selected) <= truth.mb

    def test_missing_response_column(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 2))
        m = SampleMatrix(x, names(2))
        with pytest.raises(UsageError):
            crp_run(m, "Y")

    def test_response_only_matrix(self):
        m = SampleMatrix(np.random.default_rng(3).standard_normal((30, 1)), ["Y"])
        with pytest.raises(UsageError):
            crp_run(m, "Y")

    def test_report_consistency(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((80, 5))
        y = x[:, 1] + rng.standard_normal(80)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=49, seed=4))
        assert sorted(rep.ranking) == sorted(rep.variable_names)
        assert rep.response == "Y"
        assert rep.p_values.shape == (5,)
        assert rep.statistics.shape == (5,)
        assert rep.beta.shape == (5, 1)
        assert set(rep.selected) == {
            v for v, p in zip(rep.variable_names, rep.p_values) if p <= 0.05
        }
        # ranking is ordered by ascending p, descending statistic
        by_name = dict(zip(rep.variable_names, zip(rep.p_values, -rep.statistics)))
        keys = [by_name[v] for v in rep.ranking]
        assert keys == sorted(keys)
        assert rep.versions["covridge"]
        assert rep.config["permutations"] == 49

    def test_ranking_breaks_ties_like_the_tuple_key(self, monkeypatch):
        # tied p-values fall to the larger statistic, then to column order
        rng = np.random.default_rng(7)
        p = 60
        x = rng.standard_normal((80, p))
        y = x[:, 0] + rng.standard_normal(80)
        p_values = rng.integers(1, 4, p) / 20.0
        stats = rng.integers(0, 3, p) * 0.5
        real = crp._permutation_test

        def tied(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), observed=stats, p_values=p_values)

        monkeypatch.setattr(crp, "_permutation_test", tied)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(lambda_fixed=1.0, permutations=9, seed=7))
        order = sorted(range(p), key=lambda j: (p_values[j], -stats[j], j))
        assert rep.ranking == [rep.variable_names[j] for j in order]
        assert rep.selected == [rep.variable_names[j] for j in order if p_values[j] <= 0.05]

    def test_fixed_lambda_bypasses_cv(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        y = x[:, 0] + rng.standard_normal(60)
        rep = crp_run(
            with_response(x, y), "Y", CrpConfig(lambda_fixed=0.37, permutations=19, seed=5)
        )
        assert rep.lambda_used == 0.37

    def test_cv_skips_zero_lambda_that_the_fit_rejects(self):
        # X3 = X1 + X2 leaves every training fold's Gram matrix singular to
        # rounding (smallest over largest eigenvalue 4e-17 to 2e-16), so
        # lambda = 0 has no unique minimiser: CV must not pick it and then
        # fail at the observed fit.
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 2))
        x = np.column_stack([a, a[:, 0] + a[:, 1]])
        y = a[:, 0] + 0.3 * rng.standard_normal(20)
        config = CrpConfig(loss="mse", covariance="auto", lambda_grid=(0.0, 1.0), cv_folds=4,
                           seed=11, permutations=9)
        rep = crp_run(with_response(x, y), "Y", config)
        assert rep.lambda_used == 1.0

    def test_alpha_level_widens_selection(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((100, 4))
        y = x[:, 0] + 0.5 * x[:, 1] + 0.3 * rng.standard_normal(100)
        loose = crp_run(
            with_response(x, y), "Y", CrpConfig(permutations=99, seed=6, alpha_level=0.5)
        )
        tight = crp_run(
            with_response(x, y), "Y", CrpConfig(permutations=99, seed=6, alpha_level=0.02)
        )
        assert set(tight.selected) <= set(loose.selected)


class TestLossResolution:
    def test_auto_detects_integer_classes(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((90, 3))
        y = np.asarray(rng.permutation(np.repeat([1.0, 2.0], 45)))
        rep = crp_run(with_response(x, y), "Y", CrpConfig(cv_folds=5, permutations=9, seed=10))
        assert rep.loss_used == "multinomial"
        assert rep.class_levels == [1.0, 2.0]

    def test_auto_continuous_is_mse(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=9, seed=11))
        assert rep.loss_used == "mse"
        assert rep.class_levels is None

    def test_auto_too_many_levels_is_mse(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((100, 2))
        y = np.asarray(rng.integers(0, 40, size=100), dtype=float)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=9, seed=12))
        assert rep.loss_used == "mse"

    def test_auto_rare_class_falls_back(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((60, 2))
        y = np.zeros(60)
        y[:3] = 1.0
        rep = crp_run(with_response(x, y), "Y", CrpConfig(cv_folds=10, permutations=9, seed=13))
        assert rep.loss_used == "mse"

    def test_explicit_multinomial_rare_class_errors(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((60, 2))
        y = np.zeros(60)
        y[:3] = 1.0
        with pytest.raises(DataError, match="class 1 has 3 samples, fewer than the 10 CV folds"):
            crp_run(
                with_response(x, y),
                "Y",
                CrpConfig(loss="multinomial", cv_folds=10, permutations=9, seed=14),
            )

    def test_balanced_four_classes_go_multinomial_at_every_seed(self):
        # 30 members per class fill 10 class-dealt folds at any seed; under
        # plain shuffled folds some fold lacked a class at 7 of these seeds
        rng = np.random.default_rng(32)
        x = rng.standard_normal((120, 5))
        y = equal_sized_classes(x[:, 0] + rng.standard_normal(120), 4).astype(float)
        for seed in range(12):
            rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=19, seed=seed))
            assert rep.loss_used == "multinomial", seed

    def test_tertile_labels_that_left_a_shuffled_fold_without_a_class(self):
        # the benchmark's multinomial-cv input 340 at seed 9: tertiles of
        # X1 + 0.5 X2, whose plain shuffled fold 0 held no class-2 sample
        x = np.random.default_rng(derive_seed(9, 340, 0)).standard_normal((150, 6))
        score = x[:, 0] + 0.5 * x[:, 1]
        y = np.searchsorted(np.sort(score)[[50, 100]], score, side="right").astype(float)
        grid = tuple(float(g) for g in np.geomspace(1e-2, 1e1, 10))
        cfg = CrpConfig(loss="multinomial", cv_folds=5, lambda_grid=grid, permutations=50,
                        seed=derive_seed(9, 340, 1))
        rep = crp_run(with_response(x, y), "Y", cfg)
        assert rep.loss_used == "multinomial"
        assert rep.class_levels == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("loss", ["auto", "multinomial"])
    def test_fixed_lambda_needs_no_fold_count(self, loss):
        # a fixed penalty builds no CV fold, so class 7's 3 members are
        # enough, though fewer than the 10 folds CV would deal
        rng = np.random.default_rng(33)
        x = rng.standard_normal((60, 3))
        y = np.repeat([0.0, 1.0, 7.0], [29, 28, 3])
        cfg = CrpConfig(loss=loss, lambda_fixed=0.1, cv_folds=10, permutations=19, seed=33)
        rep = crp_run(with_response(x, rng.permutation(y)), "Y", cfg)
        assert rep.loss_used == "multinomial"
        assert rep.class_levels == [0.0, 1.0, 7.0]
        assert rep.lambda_used == 0.1

    def test_zero_fixed_lambda_takes_mse(self):
        # the multinomial loss needs lambda > 0, so auto fits squared error
        rng = np.random.default_rng(34)
        x = rng.standard_normal((60, 3))
        y = rng.permutation(np.repeat([0.0, 1.0, 2.0], 20))
        cfg = CrpConfig(lambda_fixed=0.0, permutations=19, seed=34)
        rep = crp_run(with_response(x, y), "Y", cfg)
        assert rep.loss_used == "mse" and rep.class_levels is None
        assert rep.lambda_used == 0.0

    def test_explicit_multinomial_on_continuous_errors(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        with pytest.raises(DataError):
            crp_run(with_response(x, y), "Y", CrpConfig(loss="multinomial", permutations=9))

    def test_multinomial_signal_ranked_first(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((120, 4))
        y = (x[:, 2] > 0).astype(float)
        rep = crp_run(
            with_response(x, y), "Y", CrpConfig(cv_folds=4, permutations=49, seed=16)
        )
        assert rep.loss_used == "multinomial"
        assert rep.ranking[0] == "X3"
        assert rep.beta.shape == (4, 2)

    @pytest.mark.parametrize("base, codes, loss", [
        ((0.0, 1.0), (-1.0, 1.0), "auto"),
        ((0.0, 1.0), (-1.0, 1.0), "multinomial"),
        ((0.0, 1.0), (3.0, 7.0), "auto"),
        ((0.0, 1.0, 2.0), (-1.0, 0.0, 1.0), "auto"),
    ], ids=["pm1-auto", "pm1-multinomial", "3-7-auto", "m101-auto"])
    def test_class_codes_change_only_the_levels(self, base, codes, loss):
        # integer codes of either sign are classes (-1/+1 is the SVM
        # convention); which integers code them changes class_levels alone
        rng = np.random.default_rng(19)
        x = rng.standard_normal((90, 4))
        ranks = equal_sized_classes(x[:, 0] + 0.5 * rng.standard_normal(90), len(base))
        cfg = CrpConfig(loss=loss, cv_folds=5, lambda_grid=(0.01, 0.1, 1.0), permutations=49,
                        seed=19, selection="maxt")
        a = crp_run(with_response(x, np.take(base, ranks)), "Y", cfg)
        b = crp_run(with_response(x, np.take(codes, ranks)), "Y", cfg)
        assert a.loss_used == b.loss_used == "multinomial"
        assert (a.class_levels, b.class_levels) == (list(base), list(codes))
        for field in ("lambda_used", "p_values", "adjusted_p_values", "ranking", "selected",
                      "beta", "intercept"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


    def test_nonconverged_observed_fit_raises(self, monkeypatch):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] > 0).astype(float)

        def no_permutations(*args):
            raise AssertionError("permutations ran after a failed observed fit")

        monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
        monkeypatch.setattr(permtest, "_column_batches", no_permutations)
        config = CrpConfig(loss="multinomial", lambda_fixed=0.01, permutations=9, seed=17)
        with pytest.raises(NumericalError, match=r"lambda=0\.01 did not converge in 3 iterations"):
            crp_run(with_response(x, y), "Y", config)


class TestCovarianceChoice:
    def test_auto_records_shrinkage(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(permutations=9, seed=20))
        assert rep.covariance_used == "lw2004"
        assert 0.0 <= rep.rho_used <= 1.0

    def test_explicit_sample(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        rep = crp_run(
            with_response(x, y), "Y", CrpConfig(covariance="sample", permutations=9, seed=21)
        )
        assert rep.covariance_used == "sample"
        assert rep.rho_used == 0.0

    def test_sample_overridden_when_rank_deficient(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((10, 12))
        y = rng.standard_normal(10)
        rep = crp_run(
            with_response(x, y),
            "Y",
            CrpConfig(covariance="sample", cv_folds=2, permutations=9, seed=22),
        )
        assert rep.covariance_used == "lw2004"
        assert rep.rho_used > 0.0

    def test_rho_matches_lw_shrink(self):
        rng = np.random.default_rng(23)
        for n, p in ((50, 3), (20, 35)):
            x = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, size=p)
            rep = crp_run(with_response(x, rng.standard_normal(n)), "Y",
                          CrpConfig(cv_folds=2, permutations=9, seed=23))
            assert rep.rho_used == pytest.approx(lw_shrink(SampleMatrix(x, names(p))).rho,
                                                 rel=1e-12)

    def test_all_identical_samples_rejected(self):
        x = np.full((30, 3), 2.0)
        y = np.random.default_rng(24).standard_normal(30)
        with pytest.raises(DegenerateDataError, match="all samples identical"):
            crp_run(with_response(x, y), "Y", CrpConfig(permutations=9, seed=24))

    def test_wide_run_forms_no_p_by_p_matrix(self):
        # the covariance is never built: the traced peak of a p = 1500 run
        # stays below the 18 MB that one p x p float64 array would take
        rng = np.random.default_rng(25)
        n, p = 60, 1500
        x = rng.standard_normal((n, p))
        data = with_response(x, x[:, 0] + rng.standard_normal(n))
        tracemalloc.start()
        try:
            crp_run(data, "Y", CrpConfig(permutations=50, seed=25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8

    def test_cv_starts_with_one_copy_of_the_design(self, monkeypatch):
        # When CV begins, the run holds the whitened coordinates t and no
        # copy of the explanatory columns (which lifted it to 2.00 copies).
        rng = np.random.default_rng(27)
        n, p = 20_000, 5
        x = rng.standard_normal((n, p))
        data = with_response(x, x[:, 0] + rng.standard_normal(n))
        held = []
        real_cv = crp.cv_select_lambda

        def measuring_cv(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_cv(*args, **kwargs)

        monkeypatch.setattr(crp, "cv_select_lambda", measuring_cv)
        tracemalloc.start()
        try:
            crp_run(data, "Y", CrpConfig(loss="mse", lambda_grid=(0.1, 1.0), permutations=9,
                                         seed=27))
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert held[0] < 1.5 * n * p * 8

    def test_run_frees_a_matrix_handed_over(self):
        # A caller that passes its only reference (as `covridge run` does)
        # lets the run drop the matrix once it holds its own explanatory
        # copy, which it then centres and whitens in place: the traced peak
        # is 2.44 matrices, against 3.94 when the matrix, that copy, a
        # centred copy and t were alive together.
        n, p = 20_000, 20

        def sample():
            rng = np.random.default_rng(28)
            values = rng.standard_normal((n, p + 1))
            values[:, p] = values[:, 0] + rng.standard_normal(n)
            return SampleMatrix(values, names(p) + ["Y"])

        tracemalloc.start()
        try:
            crp_run(sample(), "Y", CrpConfig(lambda_grid=(0.1, 1.0), permutations=9, seed=28))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * n * (p + 1) * 8

    def test_run_leaves_a_kept_matrix_unchanged(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((40, 4))
        data = with_response(x, x[:, 0] + rng.standard_normal(40))
        before = data.values.copy()
        crp_run(data, "Y", CrpConfig(permutations=9, seed=29))
        assert np.array_equal(data.values, before)

    def test_multinomial_run_leaves_a_kept_matrix_unchanged(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((60, 3)) + 2.0
        data = with_response(x, (x[:, 0] > 2.0).astype(float))
        before = data.values.copy()
        rep = crp_run(data, "Y", CrpConfig(loss="multinomial", cv_folds=3,
                                           lambda_grid=(0.1, 1.0), permutations=9, seed=31))
        assert rep.loss_used == "multinomial"
        assert data.values.tobytes() == before.tobytes()

    def test_permutation_stage_centres_t_in_place(self, monkeypatch):
        # The squared-error model centres the t that the run hands over, so
        # beyond its buffer of permuted targets the permutation test holds
        # n-vectors and small arrays (1.62 MB here); a centred n x r copy of
        # t would take it to 4.82 MB.
        rng = np.random.default_rng(30)
        n, r, b = 20_000, 20, 9
        x = rng.standard_normal((n, r))
        data = with_response(x, x[:, 0] + rng.standard_normal(n))
        extra = []
        real_test = crp._permutation_test

        def measuring_test(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = real_test(*args, **kwargs)
            extra.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        monkeypatch.setattr(crp, "_permutation_test", measuring_test)
        tracemalloc.start()
        try:
            crp_run(data, "Y", CrpConfig(loss="mse", lambda_grid=(0.1, 1.0), permutations=b,
                                         seed=30))
        finally:
            tracemalloc.stop()
        buffer = b * n * 8  # one batch holds all b permuted targets
        assert len(extra) == 1
        assert extra[0] < buffer + n * r * 8

    @pytest.mark.parametrize("n, p", [(60, 5), (30, 40)])
    def test_one_eigendecomposition_per_design(self, monkeypatch, n, p):
        # one per CV fold, one shared by the observed fit and every refit,
        # and one for whitening when p <= n (wide data whiten by SVD)
        real_eigh = np.linalg.eigh
        calls = {"n": 0}

        def counting_eigh(*args, **kwargs):
            calls["n"] += 1
            return real_eigh(*args, **kwargs)

        rng = np.random.default_rng(18)
        x = rng.standard_normal((n, p))
        y = x[:, 0] + rng.standard_normal(n)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rep = crp_run(with_response(x, y), "Y", CrpConfig(cv_folds=5, permutations=19, seed=18))
        assert rep.loss_used == "mse"
        assert calls["n"] == 5 + 1 + (p <= n)


class TestInvariances:
    @pytest.fixture
    def kept_tests(self, monkeypatch):
        """Every permutation test result of the runs that follow, in order."""
        tests = []
        real = crp._permutation_test

        def kept(*args, **kwargs):
            tests.append(real(*args, **kwargs))
            return tests[-1]

        monkeypatch.setattr(crp, "_permutation_test", kept)
        return tests

    @staticmethod
    def untied_counts_equal(first, second):
        """Whether the exceedance counts agree wherever rounding ties no draw
        to the observed value, and the mask of tied variables."""
        tie = rounding_ties(first.observed, first.null_statistics)
        tie |= rounding_ties(second.observed, second.null_statistics)
        return np.array_equal(first.exceed_counts[~tie], second.exceed_counts[~tie]), tie

    def test_rerun_identical(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((70, 5))
        y = x[:, 0] + rng.standard_normal(70)
        cfg = CrpConfig(permutations=59, seed=30)
        a = crp_run(with_response(x, y), "Y", cfg)
        b = crp_run(with_response(x, y), "Y", cfg)
        assert a.ranking == b.ranking
        assert np.array_equal(a.p_values, b.p_values)
        assert np.array_equal(a.beta, b.beta)
        assert a.lambda_used == b.lambda_used

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((80, 6))
        y = x[:, 0] + 0.5 * x[:, 3] + 0.2 * rng.standard_normal(80)
        cfg = CrpConfig(permutations=49, seed=31)
        base = crp_run(with_response(x, y), "Y", cfg)

        perm = [3, 0, 5, 1, 4, 2]
        shuffled = SampleMatrix(
            np.column_stack([x[:, perm], y]),
            [names(6)[j] for j in perm] + ["Y"],
        )
        other = crp_run(shuffled, "Y", cfg)

        assert other.ranking == base.ranking
        assert other.selected == base.selected
        for j, name in enumerate(other.variable_names):
            k = base.variable_names.index(name)
            assert other.p_values[j] == base.p_values[k]
            assert other.statistics[j] == pytest.approx(base.statistics[k], rel=1e-9)

    @pytest.mark.parametrize("covariance", ["auto", "sample"])
    @pytest.mark.parametrize("loss", ["mse", "multinomial"])
    def test_column_order_permutes_every_per_variable_output(self, kept_tests, loss, covariance):
        # t = (x - mean) V sigma^{-1/2} does not depend on the column order
        # up to column signs and rounding, so reordering the columns reorders
        # p-values, adjusted p-values, statistics and beta and keeps lambda.
        # Counts may differ only where rounding ties a draw to the observed value.
        rng = np.random.default_rng(32)
        n, p, b = 90, 6, 199
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
        score = x[:, 0] + 0.5 * x[:, 3] + 0.5 * rng.standard_normal(n)
        y = score if loss == "mse" else equal_sized_classes(score, 3)
        cfg = CrpConfig(loss=loss, covariance=covariance, cv_folds=5,
                        lambda_grid=tuple(np.geomspace(1e-3, 10.0, 8)), permutations=b, seed=32)
        perm = np.array([3, 0, 5, 1, 4, 2])
        base = crp_run(with_response(x, y), "Y", cfg)
        other = crp_run(SampleMatrix(np.column_stack([x[:, perm], y]),
                                     [names(p)[j] for j in perm] + ["Y"]), "Y", cfg)
        assert other.lambda_used == base.lambda_used
        assert other.covariance_used == base.covariance_used
        assert np.allclose(other.statistics, base.statistics[perm], rtol=1e-9, atol=0)
        scale = np.abs(base.beta).max()
        assert np.allclose(other.beta, base.beta[perm], rtol=1e-9, atol=1e-12 * scale)
        assert np.allclose(other.intercept, base.intercept, rtol=1e-9, atol=1e-12)

        first, second = kept_tests
        assert first.failed == second.failed == 0
        counts = [first.exceed_counts[perm], second.exceed_counts]
        tie = rounding_ties(first.observed, first.null_statistics)[perm]
        tie |= rounding_ties(second.observed, second.null_statistics)
        assert np.array_equal(counts[0][~tie], counts[1][~tie])
        # maxT compares each studentized statistic with every permutation's maximum
        adjusted, tie = [], np.zeros(p, dtype=bool)
        for result, order in ((first, perm), (second, np.arange(p))):
            obs, null = result.observed, result.null_statistics
            rms = np.sqrt((obs**2 + np.sum(null**2, axis=1)) / (1 + b))
            maxima = np.max(null / rms[:, None], axis=0)
            tie |= rounding_ties(obs / rms, np.broadcast_to(maxima, null.shape))[order]
            adjusted.append(np.rint(result.adjusted_p_values * (1 + b))[order])
        assert np.array_equal(adjusted[0][~tie], adjusted[1][~tie])

    def test_column_scaling_keeps_p_value_rank_order(self):
        # under the sample covariance, whitening absorbs a diagonal rescaling
        # exactly: the scaled column's coefficient shrinks by the same factor
        # in the observed fit and in every permutation refit, so the exceed
        # counts, p-values, and the p-value ordering are all unchanged
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((120, 6))
            y = 2.0 * x[:, 0] + x[:, 1] + 0.5 * rng.standard_normal(120)
            cfg = CrpConfig(
                permutations=99, seed=seed, lambda_fixed=0.01, covariance="sample"
            )
            base = crp_run(with_response(x, y), "Y", cfg)
            scaled = x.copy()
            scaled[:, 0] *= 10.0
            other = crp_run(with_response(scaled, y), "Y", cfg)
            assert np.array_equal(base.p_values, other.p_values)
            order_base = sorted(range(6), key=lambda j: (base.p_values[j], j))
            order_other = sorted(range(6), key=lambda j: (other.p_values[j], j))
            assert order_base == order_other

    def test_column_scaling_keeps_selection_under_shrinkage(self):
        # the identity shrinkage target is deliberately basis-dependent, so
        # scaling perturbs null p-values by a count or two; the selected set
        # stays put
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((120, 6))
            y = 2.0 * x[:, 0] + x[:, 1] + 0.5 * rng.standard_normal(120)
            cfg = CrpConfig(permutations=99, seed=seed)
            base = crp_run(with_response(x, y), "Y", cfg)
            scaled = x.copy()
            scaled[:, 0] *= 10.0
            other = crp_run(with_response(scaled, y), "Y", cfg)
            assert set(base.selected) == set(other.selected) == {"X1", "X2"}

    @pytest.mark.parametrize("a, c", [(-3.0, 7.5), (0.25, -100.0)])
    def test_response_affine_map_keeps_lambda_counts_and_ranking(self, kept_tests, a, c):
        # y -> a y + c maps the centred target to a times itself and leaves
        # the permutations alone: every fit's gamma scales by a and every CV
        # loss by a^2, so lambda, the exceedance counts and the ranking stay,
        # beta scales by a and the intercept maps as y does. Counts may
        # differ only where rounding ties a draw to the observed value.
        rng = np.random.default_rng(33)
        n, p, b = 90, 6, 199
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
        y = x[:, 0] + 0.5 * x[:, 3] + 0.5 * rng.standard_normal(n)
        cfg = CrpConfig(loss="mse", cv_folds=5, lambda_grid=tuple(np.geomspace(1e-3, 10.0, 8)),
                        permutations=b, seed=33)
        base = crp_run(with_response(x, y), "Y", cfg)
        other = crp_run(with_response(x, a * y + c), "Y", cfg)
        assert other.lambda_used == base.lambda_used
        scale = np.abs(base.beta).max()
        assert np.allclose(other.beta, a * base.beta, rtol=1e-9, atol=1e-12 * abs(a) * scale)
        assert np.allclose(other.intercept, a * base.intercept + c, rtol=1e-9, atol=1e-9)

        first, second = kept_tests
        assert first.failed == second.failed == 0
        same, tie = self.untied_counts_equal(first, second)
        assert same
        tied = {base.variable_names[j] for j in np.flatnonzero(tie)}
        assert ([v for v in other.ranking if v not in tied]
                == [v for v in base.ranking if v not in tied])

    # Fixed before the first run: n=90, p=6, B=199, 5 folds, a 9-point grid
    # on which CV picks an interior penalty, data and run seeds 34 and 35.
    RELATION_GRID = tuple(np.geomspace(1e-2, 1e2, 9))

    def test_non_monotone_class_relabelling_permutes_beta_columns(self, kept_tests):
        # codes {0, 1, 2} -> {2, 0, 1}: the multinomial fit is symmetric in
        # the classes and the statistic sums over them, so lambda, the
        # exceedance counts and the ranking stay, and class c's column of
        # beta becomes column 2, 0 or 1.
        rng = np.random.default_rng(34)
        n, p, b = 90, 6, 199
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
        y = equal_sized_classes(x[:, 0] + 0.5 * x[:, 3] + rng.standard_normal(n), 3)
        relabel = np.array([2, 0, 1])
        cfg = CrpConfig(loss="multinomial", cv_folds=5, lambda_grid=self.RELATION_GRID,
                        permutations=b, seed=34)
        base = crp_run(with_response(x, y), "Y", cfg)
        other = crp_run(with_response(x, relabel[y]), "Y", cfg)
        assert base.loss_used == other.loss_used == "multinomial"
        assert other.lambda_used == base.lambda_used
        scale = np.abs(base.beta).max()
        assert np.allclose(other.beta[:, relabel], base.beta, rtol=1e-9, atol=1e-12 * scale)
        assert np.allclose(other.intercept[relabel], base.intercept, rtol=1e-9, atol=1e-12)

        first, second = kept_tests
        assert first.failed == second.failed == 0
        same, tie = self.untied_counts_equal(first, second)
        assert same
        tied = {base.variable_names[j] for j in np.flatnonzero(tie)}
        assert ([v for v in other.ranking if v not in tied]
                == [v for v in base.ranking if v not in tied])

    @pytest.mark.parametrize("loss", ["mse", "multinomial"])
    @pytest.mark.parametrize("covariance", ["sample", "auto"])
    def test_column_rescaling_holds_only_without_shrinkage(self, kept_tests, loss, covariance):
        # x_j -> a_j x_j with a_j > 0: the penalty lambda beta' S beta makes
        # the fit depend on x only through its column space when S is the
        # sample covariance (n - 1 >= p), so lambda and the p-values stay
        # and beta_j divides by a_j. The shrinkage target mu I is not
        # scale-equivariant, so under it the relation must fail, which shows
        # that the relation has power.
        rng = np.random.default_rng(35)
        n, p, b = 90, 6, 199
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
        score = x[:, 0] + 0.5 * x[:, 3] + rng.standard_normal(n)
        y = score if loss == "mse" else equal_sized_classes(score, 3)
        a = np.array([0.5, 3.0, 1.0, 10.0, 0.2, 2.0])
        cfg = CrpConfig(loss=loss, covariance=covariance, cv_folds=5,
                        lambda_grid=self.RELATION_GRID, permutations=b, seed=35)
        base = crp_run(with_response(x, y), "Y", cfg)
        other = crp_run(with_response(x * a, y), "Y", cfg)
        expected = base.beta / a[:, None]
        scale = np.abs(expected).max()
        beta_kept = np.allclose(other.beta, expected, rtol=1e-9, atol=1e-12 * scale)
        first, second = kept_tests
        assert first.failed == second.failed == 0
        counts_kept, _ = self.untied_counts_equal(first, second)
        if covariance == "sample":
            assert other.lambda_used == base.lambda_used
            assert beta_kept and counts_kept
        else:
            assert base.rho_used > 0.0
            assert not beta_kept and not counts_kept

# Fixed before the first run: one input per shape, data seed 8, run seed 3.
THREADED_SHAPES = (("multinomial", 300, 60), ("mse", 1000, 100), ("mse", 100, 1000))

THREADED_RUNS = """
import json, sys
import numpy as np
from covridge import CrpConfig, SampleMatrix, crp_run

out = []
for loss, n, p in json.loads(sys.argv[1]):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, p))
    score = x[:, 0] + 0.5 * x[:, 1] + rng.standard_normal(n)
    y = np.searchsorted(np.quantile(score, [1 / 3, 2 / 3]), score) if loss == "multinomial" else score
    data = SampleMatrix(np.column_stack([x, y]), [f"X{j + 1}" for j in range(p)] + ["Y"])
    rep = crp_run(data, "Y", CrpConfig(loss=loss, permutations=200, seed=3))
    out.append({"p_values": rep.p_values.tolist(),
                "adjusted_p_values": rep.adjusted_p_values.tolist(),
                "ranking": rep.ranking, "selected": rep.selected, "lambda_used": rep.lambda_used})
json.dump(out, sys.stdout)
"""


class TestBlasThreadCounts:
    def test_decisions_equal_at_one_and_two_threads_on_threading_shapes(self):
        # Beside acceptance criterion 10, which compares report bytes on a
        # shape too small to thread: at these shapes OpenBLAS threads the
        # Gram matrix (mse, n=1000, p=100), the GEMM t = centred @ back after
        # the wide branch's SVD (mse, n=100, p=1000) or the Newton steps
        # (multinomial, n=300, p=60), so beta may change in its last bits
        # with the thread count. The p-values, ranking, selection and lambda
        # may not.
        def run(threads):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
            proc = subprocess.run(
                [sys.executable, "-c", THREADED_RUNS, json.dumps(THREADED_SHAPES)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        one, two = run(1), run(2)
        assert len(one) == len(two) == len(THREADED_SHAPES)
        for shape, a, b in zip(THREADED_SHAPES, one, two):
            for field in a:
                assert a[field] == b[field], (shape, field)


class TestSelectionRule:
    def test_unknown_rule_rejected(self):
        with pytest.raises(UsageError, match="selection"):
            CrpConfig(selection="bonferroni")

    def test_maxt_cuts_adjusted_p_values_only(self):
        data, _ = gen_poly_toy(PolyToySpec(family="gaussian", extras=15, n=300, seed=4))
        marginal = crp_run(data, "Y", CrpConfig(loss="mse", permutations=199, seed=4))
        maxt = crp_run(
            data, "Y", CrpConfig(loss="mse", permutations=199, seed=4, selection="maxt")
        )
        assert np.array_equal(maxt.p_values, marginal.p_values)
        assert np.array_equal(maxt.adjusted_p_values, marginal.adjusted_p_values)
        assert np.array_equal(maxt.beta, marginal.beta)
        assert maxt.ranking == marginal.ranking
        adjusted = dict(zip(maxt.variable_names, maxt.adjusted_p_values))
        assert maxt.selected == [v for v in maxt.ranking if adjusted[v] <= 0.05]
        assert maxt.selected
        assert set(maxt.selected) <= set(marginal.selected)
        assert np.all(maxt.adjusted_p_values >= maxt.p_values)
