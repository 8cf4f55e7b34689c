"""End-to-end pipeline tests: loss resolution, covariance choice, ranking,
selection, determinism, and the coordinate-change invariances."""
import tracemalloc

import numpy as np
import pytest

import covridge.permtest as permtest
import covridge.solver as solver
from covridge import (
    CrpConfig,
    DataError,
    DegenerateDataError,
    MultinomialInfeasible,
    NumericalError,
    PolyToySpec,
    SampleMatrix,
    UsageError,
    crp_run,
    default_lambda_grid,
    gen_poly_toy,
    lw_shrink,
)


def names(p):
    return [f"X{i + 1}" for i in range(p)]


def with_response(x, y, response="Y"):
    return SampleMatrix(np.column_stack([x, y]), names(x.shape[1]) + [response])


class TestConfig:
    def test_defaults(self):
        c = CrpConfig()
        assert c.loss == "auto" and c.covariance == "auto"
        assert c.cv_folds == 10 and c.permutations == 1000
        assert c.alpha_level == 0.05
        assert c.grid() == default_lambda_grid()

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

    def test_bad_alpha(self):
        with pytest.raises(UsageError):
            CrpConfig(alpha_level=0.0)
        with pytest.raises(UsageError):
            CrpConfig(alpha_level=1.5)

    def test_bad_fixed_lambda(self):
        with pytest.raises(UsageError):
            CrpConfig(lambda_fixed=-0.5)

    def test_custom_grid_coerced(self):
        c = CrpConfig(lambda_grid=[1, 10])
        assert c.grid() == (1.0, 10.0)


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

    def test_fixed_lambda_bypasses_cv(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        y = x[:, 0] + rng.standard_normal(60)
        rep = crp_run(
            with_response(x, y), "Y", CrpConfig(lambda_fixed=0.37, permutations=19, seed=5)
        )
        assert rep.lambda_used == 0.37

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
        with pytest.raises(MultinomialInfeasible):
            crp_run(
                with_response(x, y),
                "Y",
                CrpConfig(loss="multinomial", cv_folds=10, permutations=9, seed=14),
            )

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


    def test_nonconverged_observed_fit_raises(self, monkeypatch):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] > 0).astype(float)

        def no_permutations(*args):
            raise AssertionError("permutations ran after a failed observed fit")

        monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
        monkeypatch.setattr(permtest, "permutation_stream", no_permutations)
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
