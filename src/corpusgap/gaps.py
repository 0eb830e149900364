"""Per-subtopic content gap scoring.

Coverage gap: demand-weighted rarity. Demand is how often users raise a
subtopic in queries, supply is how many documents cover it; the score is

    [ln(1 + queries) / max_over_subtopics ln(1 + queries)]
        * [ln((D + c) / (docs + c))] ** alpha

with natural logarithms throughout (the base only rescales scores and the
ranking that drives allocation is base-invariant). Usefulness gap: inverted,
min-max-scaled mean of judged helpfulness of each subtopic's best documents.
The hybrid score blends the two after scaling coverage to [0, 100] so the
components are commensurate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from math import fsum
from pathlib import Path
from typing import Mapping, Sequence

from . import planner
from .corpus import Corpus, Document, Query, Taxonomy, read_records, record_field, write_records
from .gateway import JudgeFn

log = logging.getLogger(__name__)

TOP_DOCS_PER_QUERY = 3


class EmptyDemandError(ValueError):
    """No queries at all: the demand normalizer would divide by zero."""


@dataclass(frozen=True)
class SubtopicStats:
    subtopic: str
    query_count: int
    doc_count: int

    def __post_init__(self) -> None:
        if self.query_count < 0 or self.doc_count < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class GapParams:
    total_docs: int
    smoothing: float = 1.0
    exponent: float = 1.5

    def __post_init__(self) -> None:
        if self.total_docs <= 0:
            raise ValueError("total_docs must be positive")
        if self.smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")


@dataclass(frozen=True)
class GapWeights:
    coverage: float = 0.5
    usefulness: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0 or not 0.0 <= self.usefulness <= 1.0:
            raise ValueError("weights must lie in [0, 1]")
        if self.coverage + self.usefulness != 1.0:
            raise ValueError("weights must sum to exactly 1.0")


@dataclass(frozen=True)
class SubtopicGap:
    subtopic: str
    query_count: int
    doc_count: int
    coverage: float
    coverage_scaled: float
    usefulness_gap: float | None
    hybrid: float


def coverage_gap(
    stats: SubtopicStats,
    all_stats: Sequence[SubtopicStats],
    params: GapParams,
) -> float:
    """Demand-weighted rarity score for one subtopic.

    Exactly 0 when the subtopic has no queries or when every document
    covers it (docs == total_docs with the default smoothing).
    """
    if stats.doc_count > params.total_docs:
        raise ValueError(
            f"doc_count {stats.doc_count} exceeds total_docs {params.total_docs}"
        )
    max_demand = max(math.log1p(s.query_count) for s in all_stats)
    if max_demand <= 0.0:
        raise EmptyDemandError("no queries in any subtopic")
    demand = math.log1p(stats.query_count) / max_demand
    if demand == 0.0:
        return 0.0
    rarity = math.log(
        (params.total_docs + params.smoothing) / (stats.doc_count + params.smoothing)
    )
    return demand * rarity**params.exponent


def min_max_scale(values: Mapping[str, float], high: float = 100.0) -> dict[str, float]:
    """Scale values to [0, high]. A degenerate range maps everything to 0:
    with no spread there is no discriminative signal to amplify."""
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
    if hi == lo:
        return {k: 0.0 for k in values}
    return {k: (v - lo) / (hi - lo) * high for k, v in values.items()}


def usefulness_gap(per_query_scores: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Per-subtopic usefulness gaps from per-query usefulness values.

    Each input value is one query's mean over its top-scoring documents.
    Subtopic means are min-max scaled to [0, 100] and inverted so that
    higher means a larger gap. The best-served subtopic maps to 0, the
    worst to 100; degenerate ranges map to 0 for all.
    """
    if not per_query_scores:
        raise ValueError("no subtopics to score")
    if any(not scores for scores in per_query_scores.values()):
        raise ValueError("every subtopic needs at least one per-query score")
    means = {s: fsum(v) / len(v) for s, v in per_query_scores.items()}
    scaled = min_max_scale(means)
    if all(v == 0.0 for v in scaled.values()):
        return {s: 0.0 for s in scaled}
    return {s: 100.0 - v for s, v in scaled.items()}


def top_mean(scores: Sequence[float]) -> float:
    """A query's usefulness: the mean of its best min(3, n) document
    scores; fewer than three documents means all of them count."""
    if not scores:
        raise ValueError("no documents scored")
    top = sorted(scores, reverse=True)[:TOP_DOCS_PER_QUERY]
    return fsum(top) / len(top)


def hybrid_score(
    coverage: float,
    usefulness: float | None,
    weights: GapWeights,
) -> float:
    """Blend scaled coverage with the usefulness gap; coverage-only when
    usefulness data is unavailable."""
    if usefulness is None:
        return coverage
    return weights.coverage * coverage + weights.usefulness * usefulness


def build_stats(
    corpus: Corpus,
    queries: Sequence[Query],
    taxonomy: Taxonomy,
) -> list[SubtopicStats]:
    query_counts: dict[str, int] = {}
    for query in queries:
        if query.subtopic is not None:
            query_counts[query.subtopic] = query_counts.get(query.subtopic, 0) + 1
    doc_counts = corpus.doc_count_by_subtopic()
    return [
        SubtopicStats(
            subtopic=s,
            query_count=query_counts.get(s, 0),
            doc_count=doc_counts.get(s, 0),
        )
        for s in taxonomy.subtopic_ids
    ]


def usefulness_inputs(
    corpus: Corpus,
    queries: Sequence[Query],
    judge: JudgeFn,
) -> dict[str, list[float]]:
    """Per-subtopic lists of per-query usefulness values.

    Pairs are judged only within matching subtopic, one batch per
    subtopic (`planner.judge_pairs`); subtopics with no documents or no
    queries produce no entry. A pair whose judge call fails is logged and
    left out, so a query with no judged document contributes no value.
    """
    docs_by_subtopic: dict[str, list[Document]] = {}
    for doc in corpus.documents:
        if doc.subtopic is not None:
            docs_by_subtopic.setdefault(doc.subtopic, []).append(doc)
    queries_by_subtopic: dict[str, list[Query]] = {}
    for query in sorted(queries, key=lambda q: q.id):
        if query.subtopic in docs_by_subtopic:
            queries_by_subtopic.setdefault(query.subtopic, []).append(query)
    per_query: dict[str, list[float]] = {}
    for subtopic, subtopic_queries in queries_by_subtopic.items():
        rows = planner.judge_pairs(judge, subtopic_queries, docs_by_subtopic[subtopic], log)
        for row in rows:
            scores = [score for score in row if score is not None]
            if scores:
                per_query.setdefault(subtopic, []).append(top_mean(scores))
    return per_query


def analyze_gaps(
    corpus: Corpus,
    queries: Sequence[Query],
    taxonomy: Taxonomy,
    params: GapParams | None = None,
    weights: GapWeights | None = None,
    judge: JudgeFn | None = None,
) -> list[SubtopicGap]:
    """Full per-subtopic gap report, sorted by hybrid score descending.

    Without a judge the hybrid falls back to scaled coverage everywhere.
    With one, subtopics that have documents but no queries carry a
    usefulness gap of 0.0 (nothing was judged, so there is no signal);
    usefulness is absent exactly for subtopics with zero documents.
    """
    params = params or GapParams(total_docs=len(corpus))
    weights = weights or GapWeights()
    stats = build_stats(corpus, queries, taxonomy)
    raw = {s.subtopic: coverage_gap(s, stats, params) for s in stats}
    scaled = min_max_scale(raw)
    gaps_by_subtopic: dict[str, float | None]
    if judge is None:
        gaps_by_subtopic = {s.subtopic: None for s in stats}
    else:
        per_query = usefulness_inputs(corpus, queries, judge)
        judged = usefulness_gap(per_query) if per_query else {}
        gaps_by_subtopic = {}
        for s in stats:
            if s.doc_count == 0:
                gaps_by_subtopic[s.subtopic] = None
            else:
                gaps_by_subtopic[s.subtopic] = judged.get(s.subtopic, 0.0)
    result = [
        SubtopicGap(
            subtopic=s.subtopic,
            query_count=s.query_count,
            doc_count=s.doc_count,
            coverage=raw[s.subtopic],
            coverage_scaled=scaled[s.subtopic],
            usefulness_gap=gaps_by_subtopic[s.subtopic],
            hybrid=hybrid_score(scaled[s.subtopic], gaps_by_subtopic[s.subtopic], weights),
        )
        for s in stats
    ]
    result.sort(key=lambda g: (-g.hybrid, g.subtopic))
    return result


def reblend(gaps: Sequence[SubtopicGap], weights: GapWeights) -> dict[str, float]:
    """Recompute hybrid scores from stored components under new weights."""
    return {
        g.subtopic: hybrid_score(g.coverage_scaled, g.usefulness_gap, weights)
        for g in gaps
    }


@dataclass(frozen=True)
class SweepRow:
    coverage_weight: float
    usefulness_weight: float
    avg_abs_diff: float
    corpus_pct_diff: float


def sensitivity_sweep(
    gaps: Sequence[SubtopicGap],
    budget: int,
    availability: Mapping[str, int],
    weight_grid: Sequence[GapWeights],
    base_weights: GapWeights = GapWeights(),
) -> list[SweepRow]:
    """Quota-plan stability under alternative coverage/usefulness weights.

    For each weighting, rebuild the plan and compare with the base plan:
    mean absolute per-subtopic allocation difference, and the percentage
    of targeted documents that changed subtopic.
    """
    base_plan = planner.allocate_quotas(reblend(gaps, base_weights), budget, availability)
    rows = []
    for weights in weight_grid:
        plan = planner.allocate_quotas(reblend(gaps, weights), budget, availability)
        diffs = [
            abs(plan.allocations[s] - base_plan.allocations[s])
            for s in base_plan.allocations
        ]
        moved = sum(diffs) / 2
        rows.append(
            SweepRow(
                coverage_weight=weights.coverage,
                usefulness_weight=weights.usefulness,
                avg_abs_diff=sum(diffs) / len(diffs),
                corpus_pct_diff=moved / budget * 100.0,
            )
        )
    return rows


def write_gap_report(gaps: Sequence[SubtopicGap], path: str | Path) -> None:
    write_records(path, (asdict(g) for g in gaps))


# The kind of each gap record field, as `corpus.record_field` reads it.
_GAP_FIELD_KINDS = {
    "subtopic": "str",
    "query_count": "int",
    "doc_count": "int",
    "coverage": "number",
    "coverage_scaled": "number",
    "usefulness_gap": "number?",
    "hybrid": "number",
}


def read_gap_report(path: str | Path) -> list[SubtopicGap]:
    """The gaps `write_gap_report` wrote. A record that lacks a field, or
    holds one of the wrong type, is refused with one IngestError naming
    the file and line."""
    gaps = []
    for lineno, record in read_records(path):
        where = f"{path}:{lineno}"
        gaps.append(SubtopicGap(**{name: record_field(record, name, kind, where) for name, kind in _GAP_FIELD_KINDS.items()}))
    return gaps
