"""Tests for the replicated benchmark loops."""
import pytest

from covridge import CovridgeError, NumericalError, UsageError
from covridge.bench import derive_seed, run_poly_suite, run_sem_suite

FAST = dict(reps=2, seed=0, n=80, b=20, extras_levels=(1, 3))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)

    def test_distinct_paths_distinct_seeds(self):
        seeds = {derive_seed(0, i, j) for i in range(6) for j in range(6)}
        assert len(seeds) == 36

    def test_order_matters(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_negative_component_rejected(self):
        with pytest.raises(UsageError, match=">= 0"):
            derive_seed(1, -2)


class TestRunPolySuite:
    def test_one_group_per_extras_level(self):
        result = run_poly_suite("gaussian", **FAST)
        assert result["suite"] == "toy-gaussian"
        assert [g["extras"] for g in result["groups"]] == [1, 3]
        for group in result["groups"]:
            agg = group["aggregate"]
            assert agg["replicates"] == 2
            assert set(agg) == {
                "replicates", "hit_rate", "mean_tp", "sd_tp", "subset_rate",
                "bucket_width", "rank_histogram",
            }
        assert result["failed_replicates"] == 0
        assert {len(v) for v in result["summaries"].values()} == {2}

    def test_single_replicate_reports_zero_sd(self):
        result = run_poly_suite("gaussian", reps=1, seed=3, n=80, b=20, extras_levels=(1,))
        assert result["groups"][0]["aggregate"]["sd_tp"] == 0.0

    def test_same_seed_reproduces_the_summary(self):
        a = run_poly_suite("beta22", **FAST)
        b = run_poly_suite("beta22", **FAST)
        assert a["groups"] == b["groups"]
        assert a["summaries"] == b["summaries"]

    def test_suite_name_keeps_cli_spelling(self):
        result = run_poly_suite("beta_random", reps=1, seed=1, n=80, b=10, extras_levels=(1,))
        assert result["suite"] == "toy-beta-random"

    def test_zero_reps_rejected(self):
        with pytest.raises(UsageError, match="at least 1"):
            run_poly_suite("gaussian", reps=0, seed=0)


class TestRunSemSuite:
    def test_groups_per_sample_size(self):
        result = run_sem_suite(reps=2, seed=1, p=10, expected_degree=2.0, b=20, sizes=(100, 200))
        assert result["suite"] == "sem"
        assert [g["n"] for g in result["groups"]] == [100, 200]
        for group in result["groups"]:
            assert "skipped_empty_boundary" in group
            assert group["aggregate"]["replicates"] + group["skipped_empty_boundary"] == 2

    def test_reproducible(self):
        kwargs = dict(reps=2, seed=5, p=8, expected_degree=1.5, b=10, sizes=(80,))
        assert run_sem_suite(**kwargs)["groups"] == run_sem_suite(**kwargs)["groups"]

    def test_zero_reps_rejected(self):
        with pytest.raises(UsageError, match="at least 1"):
            run_sem_suite(reps=0, seed=0)


def always_fails(*args, **kwargs):
    raise NumericalError("planted failure")


class TestLevelWithoutScoredReplicates:
    @pytest.mark.parametrize("run", [
        lambda: run_poly_suite("gaussian", reps=2, seed=0, n=80, b=10, extras_levels=(1,)),
        lambda: run_sem_suite(reps=2, seed=1, p=10, b=10, sizes=(100,)),
    ], ids=["poly", "sem"])
    def test_every_replicate_failing_is_numerical(self, monkeypatch, run):
        monkeypatch.setattr("covridge.bench.crp_run", always_fails)
        with pytest.raises(NumericalError, match="no scored replicate"):
            run()

    def test_every_boundary_empty_is_not_numerical(self, monkeypatch):
        # no edges: every response has an empty boundary, nothing is ranked
        monkeypatch.setattr("covridge.bench.crp_run", always_fails)
        with pytest.raises(CovridgeError, match="no scored replicate") as raised:
            run_sem_suite(reps=2, seed=1, p=10, expected_degree=0.0, b=10, sizes=(100,))
        assert not isinstance(raised.value, NumericalError)
