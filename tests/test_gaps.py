from __future__ import annotations

import logging
import math
import random
from itertools import combinations

import pytest

from corpusgap.corpus import Corpus, Document, MainTopic, Query, Section, Source, Split, Taxonomy
from corpusgap.gaps import (
    EmptyDemandError,
    GapParams,
    GapWeights,
    SubtopicGap,
    SubtopicStats,
    analyze_gaps,
    coverage_gap,
    hybrid_score,
    min_max_scale,
    read_gap_report,
    sensitivity_sweep,
    top_mean,
    usefulness_gap,
    usefulness_inputs,
    write_gap_report,
)
from corpusgap.gateway import Gateway, ProviderError, make_gateway_judge
from corpusgap.providers import MockProvider

from .world import mock_gateway_judge


def oracle_coverage(query_count, doc_count, total_docs, max_query_count, c=1.0, alpha=1.5):
    """Independent closed-form evaluation, written separately from the
    library implementation."""
    demand = math.log(1 + query_count) / math.log(1 + max_query_count)
    rarity = math.log((total_docs + c) / (doc_count + c)) ** alpha
    return demand * rarity


def stats_list(pairs):
    return [
        SubtopicStats(subtopic=f"s{i}", query_count=q, doc_count=d)
        for i, (q, d) in enumerate(pairs)
    ]


class TestCoverageGap:
    def test_hand_derived_scalar(self):
        all_stats = stats_list([(5, 2), (3, 9)])
        params = GapParams(total_docs=10, smoothing=1.0, exponent=1.5)
        value = coverage_gap(all_stats[0], all_stats, params)
        assert value == pytest.approx(1.4810019359229922, rel=1e-12)
        assert round(value, 4) == 1.4810

    def test_zero_demand_is_exact_zero(self):
        all_stats = stats_list([(0, 2), (3, 9)])
        assert coverage_gap(all_stats[0], all_stats, GapParams(total_docs=10)) == 0.0

    def test_full_supply_is_exact_zero(self):
        all_stats = stats_list([(5, 10), (3, 9)])
        assert coverage_gap(all_stats[0], all_stats, GapParams(total_docs=10)) == 0.0

    def test_empty_demand_errors(self):
        all_stats = stats_list([(0, 1), (0, 2)])
        with pytest.raises(EmptyDemandError):
            coverage_gap(all_stats[0], all_stats, GapParams(total_docs=10))

    def test_doc_count_above_total_rejected(self):
        all_stats = stats_list([(5, 11)])
        with pytest.raises(ValueError, match="exceeds"):
            coverage_gap(all_stats[0], all_stats, GapParams(total_docs=10))

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.randint(1, 6)
            total_docs = rng.randint(1, 10_000)
            pairs = [
                (rng.randint(0, 1000), rng.randint(0, total_docs)) for _ in range(n)
            ]
            if all(q == 0 for q, _ in pairs):
                pairs[0] = (1, pairs[0][1])
            all_stats = stats_list(pairs)
            params = GapParams(total_docs=total_docs)
            max_q = max(q for q, _ in pairs)
            for stat, (q, d) in zip(all_stats, pairs):
                got = coverage_gap(stat, all_stats, params)
                want = oracle_coverage(q, d, total_docs, max_q)
                if want == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_demand(self):
        params = GapParams(total_docs=100)
        values = []
        for q in range(0, 50, 5):
            all_stats = stats_list([(q, 10), (60, 10)])
            values.append(coverage_gap(all_stats[0], all_stats, params))
        assert values == sorted(values)

    def test_strictly_decreasing_in_supply(self):
        params = GapParams(total_docs=50)
        values = []
        for d in range(0, 50):
            all_stats = stats_list([(10, d), (10, 5)])
            values.append(coverage_gap(all_stats[0], all_stats, params))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_reduces_to_plain_idf_form(self):
        # alpha -> 1, smoothing -> 0 yields log(D / docs) rarity.
        params = GapParams(total_docs=64, smoothing=1e-12, exponent=1.0)
        all_stats = stats_list([(7, 4), (7, 4)])
        value = coverage_gap(all_stats[0], all_stats, params)
        assert value == pytest.approx(math.log(64 / 4), rel=1e-9)


class TestUsefulnessGap:
    def test_endpoints_and_midpoint(self):
        gaps = usefulness_gap({"t1": [80.0], "t2": [60.0], "t3": [70.0]})
        assert gaps == {"t1": 0.0, "t2": 100.0, "t3": 50.0}

    def test_single_subtopic_degenerates_to_zero(self):
        assert usefulness_gap({"only": [42.0]}) == {"only": 0.0}

    def test_all_equal_means_degenerate_to_zero(self):
        assert usefulness_gap({"a": [50.0], "b": [50.0, 50.0]}) == {"a": 0.0, "b": 0.0}

    def test_hand_minmax_case(self):
        gaps = usefulness_gap({"a": [10.0], "b": [20.0], "c": [40.0]})
        assert gaps["a"] == pytest.approx(100.0)
        assert gaps["b"] == pytest.approx(200.0 / 3.0)
        assert gaps["c"] == pytest.approx(0.0)

    def test_means_aggregate_per_query_values(self):
        gaps = usefulness_gap({"a": [10.0, 30.0], "b": [40.0]})
        # mean(a)=20 < mean(b)=40, so a has the larger gap
        assert gaps == {"a": 100.0, "b": 0.0}

    def test_randomized_endpoints(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 12)
            means = {f"s{i}": [rng.uniform(1, 100)] for i in range(n)}
            values = [v[0] for v in means.values()]
            if len(set(values)) < 2:
                continue
            gaps = usefulness_gap(means)
            lo = min(means, key=lambda s: means[s][0])
            hi = max(means, key=lambda s: means[s][0])
            assert gaps[lo] == pytest.approx(100.0)
            assert gaps[hi] == pytest.approx(0.0)
            assert all(-1e-9 <= g <= 100.0 + 1e-9 for g in gaps.values())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            usefulness_gap({})


def make_doc(doc_id: str, text: str, subtopic: str | None = None) -> Document:
    return Document(
        id=doc_id,
        source=Source.BASELINE,
        title="",
        sections=(Section(heading="", body=text),),
        subtopic=subtopic,
    )


class TestScoreQueryAgainstDocs:
    """A query's usefulness against its subtopic's documents is `top_mean`
    of their judge scores."""

    def test_top_three_of_five(self):
        assert top_mean([90, 80, 70, 60, 50]) == pytest.approx(80.0)

    def test_two_docs_uses_both(self):
        assert top_mean([60, 40]) == pytest.approx(50.0)

    def test_singleton(self):
        assert top_mean([77]) == 77.0

    def test_matches_best_subset_brute_force(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(1, 7)
            scores = [rng.randint(1, 100) for _ in range(n)]
            got = top_mean(scores)
            k = min(3, n)
            want = max(
                sum(combo) / k for combo in combinations(scores, k)
            )
            assert got == pytest.approx(want)

    def test_empty_docs_rejected(self):
        with pytest.raises(ValueError, match="no documents"):
            top_mean([])


class TestHybridScore:
    def test_even_blend(self):
        assert hybrid_score(40.0, 80.0, GapWeights(0.5, 0.5)) == pytest.approx(60.0)

    def test_absent_usefulness_falls_back_to_coverage(self):
        assert hybrid_score(60.0, None, GapWeights(0.5, 0.5)) == 60.0

    def test_degenerate_weight_equals_coverage(self):
        assert hybrid_score(70.0, 30.0, GapWeights(1.0, 0.0)) == pytest.approx(70.0)

    def test_linear_in_each_input(self):
        w = GapWeights(0.3, 0.7)
        base = hybrid_score(10.0, 20.0, w)
        assert hybrid_score(20.0, 20.0, w) - base == pytest.approx(0.3 * 10)
        assert hybrid_score(10.0, 30.0, w) - base == pytest.approx(0.7 * 10)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            GapWeights(0.6, 0.5)


def tiny_taxonomy() -> Taxonomy:
    return Taxonomy(topics=(MainTopic(name="T", subtopics=("a", "b", "c")),))


class TestAnalyzeGaps:
    def build_world(self):
        taxonomy = tiny_taxonomy()
        docs = (
            make_doc("d1", "alpha beta gamma", "T: a"),
            make_doc("d2", "alpha beta", "T: a"),
            make_doc("d3", "delta epsilon", "T: b"),
        )
        corpus = Corpus(name="c", documents=docs)
        queries = [
            Query(id="q1", text="alpha beta gamma", split=Split.TRAIN, subtopic="T: a"),
            Query(id="q2", text="delta zeta", split=Split.TRAIN, subtopic="T: b"),
            Query(id="q3", text="eta theta", split=Split.TRAIN, subtopic="T: c"),
        ]
        return taxonomy, corpus, queries

    def test_usefulness_absent_iff_no_docs(self):
        taxonomy, corpus, queries = self.build_world()
        gaps = analyze_gaps(corpus, queries, taxonomy, judge=mock_gateway_judge(0))
        by_subtopic = {g.subtopic: g for g in gaps}
        assert by_subtopic["T: c"].usefulness_gap is None  # zero docs
        assert by_subtopic["T: a"].usefulness_gap is not None
        assert by_subtopic["T: b"].usefulness_gap is not None
        assert by_subtopic["T: c"].doc_count == 0

    def test_sorted_descending_by_hybrid(self):
        taxonomy, corpus, queries = self.build_world()
        gaps = analyze_gaps(corpus, queries, taxonomy, judge=mock_gateway_judge(0))
        hybrids = [g.hybrid for g in gaps]
        assert hybrids == sorted(hybrids, reverse=True)

    def test_without_judge_hybrid_is_scaled_coverage(self):
        taxonomy, corpus, queries = self.build_world()
        gaps = analyze_gaps(corpus, queries, taxonomy)
        for g in gaps:
            assert g.usefulness_gap is None
            assert g.hybrid == g.coverage_scaled

    def test_docs_without_queries_get_zero_usefulness(self):
        taxonomy = tiny_taxonomy()
        corpus = Corpus(
            name="c",
            documents=(make_doc("d1", "alpha", "T: a"), make_doc("d2", "beta", "T: b")),
        )
        queries = [Query(id="q1", text="alpha", split=Split.TRAIN, subtopic="T: a")]
        gaps = analyze_gaps(corpus, queries, taxonomy, judge=mock_gateway_judge(0))
        by_subtopic = {g.subtopic: g for g in gaps}
        assert by_subtopic["T: b"].usefulness_gap == 0.0

    def test_report_round_trip(self, tmp_path):
        taxonomy, corpus, queries = self.build_world()
        gaps = analyze_gaps(corpus, queries, taxonomy, judge=mock_gateway_judge(0))
        path = tmp_path / "gaps.jsonl"
        write_gap_report(gaps, path)
        assert read_gap_report(path) == gaps


class TestJudgeFailures:
    def world(self):
        docs = (
            make_doc("d1", "one two", "T: a"),
            make_doc("d2", "two three", "T: a"),
            make_doc("d3", "four", "T: b"),
        )
        queries = [
            Query(id="q1", text="one", split=Split.TRAIN, subtopic="T: a"),
            Query(id="q2", text="two", split=Split.TRAIN, subtopic="T: a"),
            Query(id="q3", text="four", split=Split.TRAIN, subtopic="T: b"),
        ]
        return Corpus(name="c", documents=docs), queries

    def test_failed_pair_is_logged_and_left_out(self, caplog):
        corpus, queries = self.world()
        table = {("one", "d1"): 90, ("one", "d2"): 40, ("two", "d1"): 70, ("two", "d2"): 30}

        def judge(pairs):
            return [
                ProviderError("judge unavailable")
                if (query_text, doc.id) == ("one", "d1") or query_text == "four"
                else table[query_text, doc.id]
                for query_text, doc in pairs
            ]

        with caplog.at_level(logging.WARNING, logger="corpusgap.gaps"):
            per_query = usefulness_inputs(corpus, queries, judge)
        # q1 keeps only d2; q3 has no judged document, so "T: b" gets no value.
        assert per_query == {"T: a": [40.0, 50.0]}
        assert "query q1 doc d1" in caplog.text and "query q3 doc d3" in caplog.text

    def test_gateway_judge_failure_does_not_end_gaps(self):
        corpus, queries = self.world()

        class DownForOneDoc(MockProvider):
            def generate_many(self, requests, render):
                return [
                    ProviderError("endpoint unavailable")
                    if request.template == "usefulness_rubric" and request.bindings["user_query"] == "four"
                    else reply
                    for request, reply in zip(requests, super().generate_many(requests, render))
                ]

        gateway = Gateway(DownForOneDoc(seed=0), sleep=lambda s: None)
        gaps = analyze_gaps(corpus, queries, tiny_taxonomy(), judge=make_gateway_judge(gateway))
        by_subtopic = {g.subtopic: g for g in gaps}
        assert by_subtopic["T: a"].usefulness_gap is not None
        assert by_subtopic["T: b"].usefulness_gap == 0.0


class TestMinMaxScale:
    def test_spans_full_range(self):
        scaled = min_max_scale({"a": 2.0, "b": 6.0, "c": 4.0})
        assert scaled == {"a": 0.0, "b": 100.0, "c": 50.0}

    def test_degenerate_maps_to_zero(self):
        assert min_max_scale({"a": 3.0, "b": 3.0}) == {"a": 0.0, "b": 0.0}


def sweep_fixture():
    return [
        SubtopicGap("X", 0, 0, 0.0, 100.0, 20.0, 60.0),
        SubtopicGap("Y", 0, 0, 0.0, 50.0, 80.0, 65.0),
        SubtopicGap("Z", 0, 0, 0.0, 0.0, 100.0, 50.0),
    ]


class TestSensitivitySweep:
    def test_identity_weights_give_zero_diff(self):
        rows = sensitivity_sweep(
            sweep_fixture(),
            budget=10,
            availability={"X": 10, "Y": 10, "Z": 10},
            weight_grid=[GapWeights(0.5, 0.5)],
        )
        assert rows[0].avg_abs_diff == 0.0
        assert rows[0].corpus_pct_diff == 0.0

    def test_hand_executed_planner_oracle(self):
        # 50/50 blend: X 60, Y 65, Z 50 -> raw {3.4286, 3.7143, 2.8571}
        # -> floors {3,3,2}, remainders {.43,.71,.86} -> {3,4,3}.
        # 0/100 blend: X 20, Y 80, Z 100 -> raw {1,4,5} exact -> {1,4,5}.
        # diffs {2,0,2}: avg 4/3, moved 2 of 10 -> 20%.
        rows = sensitivity_sweep(
            sweep_fixture(),
            budget=10,
            availability={"X": 10, "Y": 10, "Z": 10},
            weight_grid=[GapWeights(0.4, 0.6), GapWeights(0.0, 1.0)],
        )
        forty_sixty, usefulness_only = rows
        assert usefulness_only.avg_abs_diff == pytest.approx(4.0 / 3.0)
        assert usefulness_only.corpus_pct_diff == pytest.approx(20.0)
        # 40/60 blend: X 52, Y 68, Z 60 -> raw {2.888, 3.777, 3.333}
        # -> floors {2,3,3} rem {.89,.78,.33} -> {3,4,3}: same as base.
        assert forty_sixty.avg_abs_diff == 0.0
        assert forty_sixty.corpus_pct_diff == 0.0
