"""Tests for ranking/selection scoring and replicate aggregation."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covridge import (
    AggregateSummary,
    CrpReport,
    EvalSummary,
    GroundTruth,
    UsageError,
    aggregate_replicates,
    evaluate_ranking,
    rank_histogram,
)


def make_report(ranking, selected):
    """Fabricate a report with the given ranking; scoring only reads names."""
    p = len(ranking)
    return CrpReport(
        variable_names=sorted(ranking),
        response="Y",
        ranking=list(ranking),
        selected=list(selected),
        p_values=np.linspace(0.01, 0.9, p),
        statistics=np.linspace(1.0, 0.1, p),
        beta=np.zeros(p),
        intercept=np.zeros(1),
        lambda_used=0.1,
        rho_used=0.2,
        loss_used="mse",
        covariance_used="lw2004",
        class_levels=None,
        config={},
        seed=0,
        versions={},
    )


def truth_of(*mb):
    return GroundTruth(target="Y", mb=frozenset(mb), source="poly")


class TestEvaluateRanking:
    def test_boundary_variable_at_rank_one_is_a_hit(self):
        report = make_report(["X2", "X1", "X3"], [])
        summary = evaluate_ranking(report, truth_of("X2"), h=1)
        assert summary.hit_at_h is True
        assert summary.mb_ranks == (1,)

    def test_all_boundary_variables_below_h_is_a_miss(self):
        report = make_report(["X1", "X2", "X3", "X4"], [])
        summary = evaluate_ranking(report, truth_of("X3", "X4"), h=2)
        assert summary.hit_at_h is False
        assert summary.mb_ranks == (3, 4)

    def test_selected_equal_to_boundary_gives_clean_counts(self):
        report = make_report(["X1", "X2", "X3"], ["X1", "X3"])
        summary = evaluate_ranking(report, truth_of("X1", "X3"), h=2)
        assert summary.tp_selected == 2
        assert summary.fp_selected == 0

    def test_counts_partition_the_selected_set(self):
        report = make_report(["X1", "X2", "X3", "X4"], ["X1", "X2", "X4"])
        summary = evaluate_ranking(report, truth_of("X2", "X3"), h=1)
        assert summary.tp_selected == 1
        assert summary.fp_selected == 2
        assert summary.tp_selected + summary.fp_selected == 3

    def test_ranks_are_one_based_and_cover_the_boundary(self):
        report = make_report(["X5", "X4", "X3", "X2", "X1"], [])
        summary = evaluate_ranking(report, truth_of("X1", "X5"), h=3)
        assert summary.mb_ranks == (1, 5)
        assert all(1 <= r <= 5 for r in summary.mb_ranks)

    def test_truth_for_another_target_rejected(self):
        report = make_report(["X1", "X2"], [])
        truth = GroundTruth(target="Z", mb=frozenset({"X1"}), source="poly")
        with pytest.raises(UsageError, match="'Z'"):
            evaluate_ranking(report, truth, h=1)

    def test_unknown_boundary_variable_rejected(self):
        report = make_report(["X1", "X2"], [])
        with pytest.raises(UsageError, match="missing"):
            evaluate_ranking(report, truth_of("X9"), h=1)

    @pytest.mark.parametrize("h", [0, -1, 4])
    def test_h_outside_ranking_rejected(self, h):
        report = make_report(["X1", "X2", "X3"], [])
        with pytest.raises(UsageError, match="h must lie"):
            evaluate_ranking(report, truth_of("X1"), h=h)

    def test_replicate_id_passthrough(self):
        report = make_report(["X1", "X2"], [])
        assert evaluate_ranking(report, truth_of("X1"), h=1, replicate_id=7).replicate_id == 7

    def test_invariant_to_shuffling_non_boundary_tail(self):
        # permuting non-mb variables among the positions below rank h must
        # not change any score
        mb = truth_of("X1", "X4")
        base = evaluate_ranking(make_report(["X1", "X4", "X2", "X3", "X5"], ["X1"]), mb, h=2)
        swapped = evaluate_ranking(make_report(["X1", "X4", "X5", "X3", "X2"], ["X1"]), mb, h=2)
        assert base == swapped

    @given(st.data())
    def test_hit_is_monotone_in_h(self, data):
        p = data.draw(st.integers(min_value=2, max_value=8))
        names = [f"X{i}" for i in range(1, p + 1)]
        ranking = data.draw(st.permutations(names))
        mb = data.draw(st.sets(st.sampled_from(names), min_size=1))
        report = make_report(list(ranking), [])
        hits = [evaluate_ranking(report, truth_of(*mb), h=h).hit_at_h for h in range(1, p + 1)]
        assert hits == sorted(hits)
        assert hits[-1] is True


def synthetic_summaries(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        mb_size = int(rng.integers(1, 5))
        ranks = tuple(sorted(rng.choice(np.arange(1, 61), size=mb_size, replace=False).tolist()))
        tp = int(rng.integers(0, mb_size + 1))
        out.append(
            EvalSummary(
                replicate_id=i,
                h=5,
                hit_at_h=bool(rng.integers(0, 2)),
                tp_selected=tp,
                fp_selected=int(rng.integers(0, 4)),
                mb_ranks=ranks,
            )
        )
    return out


def spreadsheet_aggregate(summaries, width):
    """Independent aggregation: plain-arithmetic loops, no numpy."""
    r = len(summaries)
    tps = [s.tp_selected for s in summaries]
    mean = sum(tps) / r
    sd = math.sqrt(sum((t - mean) ** 2 for t in tps) / (r - 1)) if r > 1 else 0.0
    ranks = [rank for s in summaries for rank in s.mb_ranks]
    buckets = [0] * math.ceil(max(ranks) / width)
    for rank in ranks:
        buckets[(rank - 1) // width] += 1
    return {
        "hit_rate": sum(1 for s in summaries if s.hit_at_h) / r,
        "mean_tp": mean,
        "sd_tp": sd,
        "subset_rate": sum(1 for s in summaries if s.fp_selected == 0) / r,
        "rank_histogram": tuple(buckets),
    }


class TestAggregateReplicates:
    def test_single_replicate_has_zero_sd(self):
        summary = synthetic_summaries(1, seed=3)[0]
        agg = aggregate_replicates([summary])
        assert agg.replicates == 1
        assert agg.mean_tp == summary.tp_selected
        assert agg.sd_tp == 0.0

    def test_two_replicates_hand_computed(self):
        pair = [
            EvalSummary(0, 3, True, 2, 0, (1, 2)),
            EvalSummary(1, 3, False, 4, 1, (3, 40)),
        ]
        agg = aggregate_replicates(pair)
        assert agg.mean_tp == pytest.approx(3.0)
        assert agg.sd_tp == pytest.approx(math.sqrt(2.0))
        assert agg.hit_rate == pytest.approx(0.5)
        assert agg.subset_rate == pytest.approx(0.5)

    def test_matches_plain_arithmetic_oracle(self):
        summaries = synthetic_summaries(100, seed=11)
        agg = aggregate_replicates(summaries, bucket_width=10)
        oracle = spreadsheet_aggregate(summaries, width=10)
        assert agg.hit_rate == pytest.approx(oracle["hit_rate"], abs=1e-12)
        assert agg.mean_tp == pytest.approx(oracle["mean_tp"], abs=1e-12)
        assert agg.sd_tp == pytest.approx(oracle["sd_tp"], abs=1e-12)
        assert agg.subset_rate == pytest.approx(oracle["subset_rate"], abs=1e-12)
        assert agg.rank_histogram == oracle["rank_histogram"]

    def test_pair_of_singletons_matches_pairwise_formulas(self):
        a = EvalSummary(0, 2, True, 1, 0, (2,))
        b = EvalSummary(1, 2, True, 3, 2, (5,))
        agg = aggregate_replicates([a, b])
        mean = (a.tp_selected + b.tp_selected) / 2
        assert agg.mean_tp == pytest.approx(mean)
        assert agg.sd_tp == pytest.approx(abs(a.tp_selected - b.tp_selected) / math.sqrt(2.0))

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError, match="zero replicates"):
            aggregate_replicates([])

    def test_rates_are_fractions(self):
        agg = aggregate_replicates(synthetic_summaries(40, seed=5))
        assert 0.0 <= agg.hit_rate <= 1.0
        assert 0.0 <= agg.subset_rate <= 1.0
        assert isinstance(agg, AggregateSummary)


class TestRankHistogram:
    def test_all_rank_one_lands_in_first_bucket(self):
        summaries = [EvalSummary(i, 1, True, 1, 0, (1,)) for i in range(6)]
        assert rank_histogram(summaries, bucket_width=10) == (6,)

    def test_boundary_rank_eleven_opens_second_bucket(self):
        summaries = [EvalSummary(0, 1, True, 1, 0, (1, 11))]
        assert rank_histogram(summaries, bucket_width=10) == (1, 1)

    def test_uniform_ranks_fill_buckets_evenly(self):
        summaries = [EvalSummary(r, 1, True, 1, 0, (r,)) for r in range(1, 101)]
        assert rank_histogram(summaries, bucket_width=10) == (10,) * 10

    def test_width_one_is_a_tally(self):
        summaries = [EvalSummary(0, 1, True, 1, 0, (2, 2, 4))]
        assert rank_histogram(summaries, bucket_width=1) == (0, 2, 0, 1)

    def test_no_ranks_gives_empty_histogram(self):
        summaries = [EvalSummary(0, 1, False, 0, 0, ())]
        assert rank_histogram(summaries, bucket_width=10) == ()

    def test_zero_width_rejected(self):
        with pytest.raises(UsageError, match="bucket width"):
            rank_histogram([], bucket_width=0)
