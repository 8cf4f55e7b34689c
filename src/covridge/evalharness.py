"""Scoring of rankings and selections against ground-truth Markov boundaries."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crp import CrpReport
from .errors import UsageError
from .synthgen import GroundTruth

DEFAULT_BUCKET_WIDTH = 10


@dataclass(frozen=True)
class EvalSummary:
    """Per-replicate scores of one report against one ground truth."""

    replicate_id: int
    h: int
    hit_at_h: bool
    tp_selected: int
    fp_selected: int
    mb_ranks: tuple[int, ...]


@dataclass(frozen=True)
class AggregateSummary:
    replicates: int
    hit_rate: float
    mean_tp: float
    sd_tp: float
    subset_rate: float
    bucket_width: int
    rank_histogram: tuple[int, ...]


def evaluate_ranking(
    report: CrpReport, truth: GroundTruth, h: int, replicate_id: int = 0
) -> EvalSummary:
    """Score one report: hit@h on the ranking, true/false positives on the
    selected set, and the 1-based rank of every boundary variable."""
    if truth.target != report.response:
        raise UsageError(f"ground truth is for {truth.target!r}, report for {report.response!r}")
    known = set(report.variable_names)
    missing = sorted(truth.mb - known)
    if missing:
        raise UsageError(f"ground-truth variables missing from the report: {missing}")
    p = len(report.ranking)
    if not 1 <= h <= p:
        raise UsageError(f"h must lie in [1, {p}], got {h}")
    top = set(report.ranking[:h])
    selected = set(report.selected)
    tp = len(selected & truth.mb)
    position = {name: i + 1 for i, name in enumerate(report.ranking)}
    return EvalSummary(
        replicate_id=replicate_id,
        h=h,
        hit_at_h=bool(top & truth.mb),
        tp_selected=tp,
        fp_selected=len(selected) - tp,
        mb_ranks=tuple(sorted(position[name] for name in truth.mb)),
    )


def rank_histogram(summaries: Sequence[EvalSummary], bucket_width: int) -> tuple[int, ...]:
    """Counts of all pooled boundary-variable ranks in buckets of the given
    width; the first bucket covers ranks 1..bucket_width."""
    if bucket_width < 1:
        raise UsageError("bucket width must be >= 1")
    ranks = [rank for summary in summaries for rank in summary.mb_ranks]
    if not ranks:
        return ()
    counts = [0] * math.ceil(max(ranks) / bucket_width)
    for rank in ranks:
        counts[(rank - 1) // bucket_width] += 1
    return tuple(counts)


def aggregate_replicates(
    summaries: Sequence[EvalSummary], bucket_width: int = DEFAULT_BUCKET_WIDTH
) -> AggregateSummary:
    """Aggregate per-replicate scores: rates, mean/SD of true positives
    (sample SD, zero for a single replicate) and the pooled rank histogram."""
    if not summaries:
        raise UsageError("cannot aggregate zero replicates")
    tps = np.array([s.tp_selected for s in summaries], dtype=float)
    sd = float(tps.std(ddof=1)) if len(tps) > 1 else 0.0
    return AggregateSummary(
        replicates=len(summaries),
        hit_rate=float(np.mean([s.hit_at_h for s in summaries])),
        mean_tp=float(tps.mean()),
        sd_tp=sd,
        subset_rate=float(np.mean([s.fp_selected == 0 for s in summaries])),
        bucket_width=bucket_width,
        rank_histogram=rank_histogram(summaries, bucket_width),
    )
