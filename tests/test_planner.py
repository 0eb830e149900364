from __future__ import annotations

import random

import pytest

from corpusgap.corpus import Corpus, Document, Query, Section, Source, Split
from corpusgap.gateway import Gateway
from corpusgap.planner import (
    ArticleMetadata,
    QuotaPlan,
    ScoredExternalDoc,
    allocate_quotas,
    build_directed_corpus,
    build_nondirected_corpus,
    generate_synthetic_doc,
    parse_article,
    read_plan,
    score_external_pool,
    write_plan,
)
from corpusgap.providers import MockProvider

from .world import mock_gateway_judge, mock_score


class TestAllocateQuotas:
    def test_exact_proportionality(self):
        plan = allocate_quotas({"A": 2.0, "B": 1.0, "C": 1.0}, 4, {"A": 9, "B": 9, "C": 9})
        assert plan.allocations == {"A": 2, "B": 1, "C": 1}

    def test_largest_remainder_hand_case(self):
        plan = allocate_quotas({"A": 0.5, "B": 0.3, "C": 0.2}, 7, {"A": 9, "B": 9, "C": 9})
        assert plan.allocations == {"A": 4, "B": 2, "C": 1}

    def test_cap_with_redistribution(self):
        plan = allocate_quotas({"A": 1.0, "B": 1.0}, 3, {"A": 1, "B": 10})
        assert plan.allocations == {"A": 1, "B": 2}

    def test_budget_beyond_availability_rejected(self):
        with pytest.raises(ValueError, match="availability"):
            allocate_quotas({"A": 1.0}, 5, {"A": 3})

    def test_all_zero_scores_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            allocate_quotas({"A": 0.0, "B": 0.0}, 2, {"A": 5, "B": 5})

    def test_remainder_tie_breaks_on_subtopic_id(self):
        plan = allocate_quotas({"A": 1.0, "B": 1.0}, 3, {"A": 9, "B": 9})
        assert plan.allocations == {"A": 2, "B": 1}

    def test_deep_cap_cascade(self):
        plan = allocate_quotas({"A": 9.0, "B": 1.0}, 10, {"A": 2, "B": 20})
        assert plan.allocations == {"A": 2, "B": 8}

    def test_randomized_invariants(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 12)
            scores = {f"s{i}": rng.uniform(0, 10) for i in range(n)}
            if all(v == 0 for v in scores.values()):
                scores["s0"] = 1.0
            budget = rng.randint(1, 60)
            capped = rng.random() < 0.5
            if capped:
                availability = {s: rng.randint(0, 20) for s in scores}
                if sum(availability.values()) < budget:
                    availability["s0"] = availability.get("s0", 0) + budget
            else:
                availability = {s: budget for s in scores}
            plan = allocate_quotas(scores, budget, availability)
            assert sum(plan.allocations.values()) == budget
            assert all(
                plan.allocations[s] <= availability[s] for s in scores
            )
            if not capped:
                total = sum(scores.values())
                for s in scores:
                    raw = budget * scores[s] / total
                    assert abs(plan.allocations[s] - raw) < 1.0 + 1e-9

    def test_monotone_in_own_score(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 8)
            scores = {f"s{i}": rng.uniform(0.1, 10) for i in range(n)}
            budget = rng.randint(1, 40)
            availability = {s: budget for s in scores}
            before = allocate_quotas(scores, budget, availability)
            bumped = dict(scores)
            bumped["s0"] = scores["s0"] * rng.uniform(1.01, 3.0)
            after = allocate_quotas(bumped, budget, availability)
            assert after.allocations["s0"] >= before.allocations["s0"]

    def test_plan_file_round_trip(self, tmp_path):
        scores = {"A": 0.5, "B": 0.3, "C": 0.2}
        plan = allocate_quotas(scores, 7, {"A": 9, "B": 9, "C": 9})
        path = tmp_path / "plan.jsonl"
        write_plan(plan, scores, path)
        assert read_plan(path) == plan

    def test_quota_plan_validates_sum(self):
        with pytest.raises(ValueError, match="sum"):
            QuotaPlan(budget=3, allocations={"A": 1})


def external_doc(doc_id: str, subtopic: str | None, text: str = "x") -> Document:
    return Document(
        id=doc_id,
        source=Source.REFERENCE,
        title="",
        sections=(Section(heading="", body=text),),
        subtopic=subtopic,
    )


def scored(doc_id: str, subtopic: str, score: float | None) -> ScoredExternalDoc:
    return ScoredExternalDoc(doc=external_doc(doc_id, subtopic), subtopic=subtopic, avg_score=score)


def tiny_baseline(n: int = 3) -> Corpus:
    docs = tuple(
        Document(
            id=f"base-{i}", source=Source.BASELINE, title="t", sections=(Section("", "b"),)
        )
        for i in range(n)
    )
    return Corpus(name="baseline", documents=docs)


class TestBuildDirected:
    def test_zero_budget_returns_baseline(self):
        baseline = tiny_baseline()
        plan = QuotaPlan(budget=0, allocations={})
        corpus = build_directed_corpus(baseline, [], plan)
        assert corpus.documents == baseline.documents

    def test_top_by_score_selected(self):
        baseline = tiny_baseline()
        pool = [scored("p1", "A", 91), scored("p2", "A", 88), scored("p3", "A", 70)]
        plan = QuotaPlan(budget=2, allocations={"A": 2})
        corpus = build_directed_corpus(baseline, pool, plan)
        added = {d.id for d in corpus.documents} - {d.id for d in baseline.documents}
        assert added == {"p1", "p2"}

    def test_score_tie_breaks_on_doc_id(self):
        baseline = tiny_baseline()
        pool = [scored("p9", "A", 88), scored("p1", "A", 88), scored("p5", "A", 88)]
        plan = QuotaPlan(budget=2, allocations={"A": 2})
        corpus = build_directed_corpus(baseline, pool, plan)
        added = {d.id for d in corpus.documents} - {d.id for d in baseline.documents}
        assert added == {"p1", "p5"}

    def test_unjudged_ranks_after_judged_by_id(self):
        baseline = tiny_baseline()
        pool = [scored("p0", "A", None), scored("p2", "A", 1), scored("p1", "A", None)]
        plan = QuotaPlan(budget=2, allocations={"A": 2})
        corpus = build_directed_corpus(baseline, pool, plan)
        added = {d.id for d in corpus.documents} - {d.id for d in baseline.documents}
        assert added == {"p2", "p0"}

    def test_size_is_baseline_plus_budget(self):
        baseline = tiny_baseline(387)
        pool = [scored(f"p{i:04d}", "A", 50 + (i % 40)) for i in range(200)]
        plan = QuotaPlan(budget=162, allocations={"A": 162})
        corpus = build_directed_corpus(baseline, pool, plan)
        assert len(corpus) == 549

    def test_plan_pool_mismatch_rejected(self):
        baseline = tiny_baseline()
        pool = [scored("p1", "A", 91)]
        plan = QuotaPlan(budget=2, allocations={"A": 2})
        with pytest.raises(ValueError, match="pool has 1"):
            build_directed_corpus(baseline, pool, plan)


class TestBuildNondirected:
    def test_seeded_determinism(self):
        baseline = tiny_baseline()
        pool = [external_doc(f"p{i}", "A") for i in range(30)]
        first = build_nondirected_corpus(baseline, pool, 10, seed=42)
        second = build_nondirected_corpus(baseline, pool, 10, seed=42)
        assert first == second

    def test_different_seeds_differ(self):
        baseline = tiny_baseline()
        pool = [external_doc(f"p{i}", "A") for i in range(30)]
        samples = {
            tuple(d.id for d in build_nondirected_corpus(baseline, pool, 10, seed=s).documents)
            for s in range(8)
        }
        assert len(samples) > 1

    def test_full_pool_regardless_of_seed(self):
        baseline = tiny_baseline(387)
        pool = [external_doc(f"p{i:04d}", "A") for i in range(2954)]
        corpus = build_nondirected_corpus(baseline, pool, 2954, seed=123)
        assert len(corpus) == 3341
        assert {d.id for d in corpus.documents} == {d.id for d in baseline.documents} | {
            d.id for d in pool
        }

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool"):
            build_nondirected_corpus(tiny_baseline(), [external_doc("p1", "A")], 2, seed=0)


class TestScoreExternalPool:
    def test_mean_of_query_scores(self):
        doc = external_doc("p1", "A", "x")
        queries = [
            Query(id="q1", text="a", split=Split.TRAIN, subtopic="A"),
            Query(id="q2", text="b", split=Split.TRAIN, subtopic="A"),
        ]
        table = {"q1-p1": 80, "q2-p1": 90}
        judge = lambda pairs: [table[f"{'q1' if q == 'a' else 'q2'}-{d.id}"] for q, d in pairs]
        results, skipped = score_external_pool([doc], queries, judge)
        assert skipped == []
        assert results[0].avg_score == pytest.approx(85.0)

    def test_doc_without_matching_queries_is_unjudged(self):
        docs = [external_doc("p1", "A"), external_doc("p2", "B"), external_doc("p3", None), external_doc("p4", "A")]
        queries = [Query(id="q1", text="a", split=Split.TRAIN, subtopic="A")]
        asked = []

        def judge(pairs):
            asked.extend(d.id for _, d in pairs)
            return [RuntimeError("provider down") if d.id == "p4" else 50 for _, d in pairs]

        results, skipped = score_external_pool(docs, queries, judge)
        assert [(r.doc.id, r.subtopic, r.avg_score) for r in results] == [("p1", "A", 50.0), ("p2", "B", None)]
        assert skipped == ["p3", "p4"]
        assert asked == ["p1", "p4"]

    def test_judge_failures_excluded_from_mean(self):
        doc = external_doc("p1", "A")
        queries = [
            Query(id="q1", text="boom", split=Split.TRAIN, subtopic="A"),
            Query(id="q2", text="fine", split=Split.TRAIN, subtopic="A"),
        ]

        def judge(pairs):
            return [RuntimeError("provider down") if q == "boom" else 70 for q, _ in pairs]

        results, skipped = score_external_pool([doc], queries, judge)
        assert results[0].avg_score == 70.0
        assert skipped == []

    def test_matches_brute_force_under_mock_judge(self):
        docs = [
            external_doc("p1", "A", "alpha beta gamma"),
            external_doc("p2", "A", "delta epsilon"),
        ]
        queries = [
            Query(id=f"q{i}", text=t, split=Split.TRAIN, subtopic="A")
            for i, t in enumerate(["alpha beta", "gamma delta", "epsilon alpha"])
        ]
        results, _ = score_external_pool(docs, queries, mock_gateway_judge(0))
        for result in results:
            expected = sum(mock_score(q.text, result.doc.text, 0) for q in queries) / len(queries)
            assert result.avg_score == pytest.approx(expected)


class TestLadderContract:
    def test_same_rung_same_size_and_baseline_preserved(self):
        from .world import build_ladders, build_world

        world = build_world(seed=0)
        directed, nondirected = build_ladders(world, mock_gateway_judge(0), sample_seed=3)
        baseline_ids = {d.id for d in world.baseline.documents}
        for d_corpus, nd_corpus, budget in zip(directed, nondirected, world.budgets):
            assert len(d_corpus) == len(nd_corpus) == len(world.baseline) + budget
            assert baseline_ids <= {d.id for d in d_corpus.documents}
            assert baseline_ids <= {d.id for d in nd_corpus.documents}


    def test_unasked_subtopic_builds_every_rung_up_to_the_full_pool(self):
        baseline = tiny_baseline()
        pool = Corpus(
            name="pool",
            documents=(
                external_doc("p1", "A", "alpha"),
                external_doc("p2", "A", "alpha beta"),
                external_doc("p3", "A", "gamma"),
                external_doc("p5", "B"),
                external_doc("p4", "B"),
            ),
        )
        queries = [Query(id="q1", text="alpha", split=Split.TRAIN, subtopic="A")]
        scored_pool, skipped = score_external_pool(pool.documents, queries, mock_gateway_judge(0))
        assert skipped == []
        availability = pool.doc_count_by_subtopic()
        added = []
        for budget in range(1, len(pool) + 1):
            plan = allocate_quotas({"A": 3.0, "B": 1.0}, budget, availability)
            corpus = build_directed_corpus(baseline, scored_pool, plan)
            added.append({d.id for d in corpus.documents[len(baseline):]})
        assert [len(ids) for ids in added] == [1, 2, 3, 4, 5]
        assert added[2] - added[1] == {"p4"}  # the first unjudged pick is the lowest id
        assert added[-1] == {d.id for d in pool.documents}


class TestParseArticle:
    def test_markdown_structure(self):
        title, sections = parse_article("# T\nintro\n## H1\nbody one\n## H2\nbody two")
        assert title == "T"
        assert [s.heading for s in sections] == ["", "H1", "H2"]

    def test_no_headings_yields_untitled_section(self):
        title, sections = parse_article("Plain Title\njust some prose")
        assert title == "Plain Title"
        assert sections == (Section(heading="", body="just some prose"),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no content"):
            parse_article("")


class CannedProvider:
    def __init__(self, text: str):
        self.id = "canned"
        self.text = text
        self.calls = 0

    def generate(self, request, prompt):
        self.calls += 1
        return self.text


class TestGenerateSyntheticDoc:
    def gateway(self, seed=0):
        return Gateway(MockProvider(seed=seed), sleep=lambda s: None)

    def test_mock_section_count_matches_headers(self):
        metadata = ArticleMetadata(title="Sleep Help", headers=("One", "Two", "Three"), word_count=120)
        result = generate_synthetic_doc(metadata, self.gateway(), doc_id="syn-1")
        assert len(result.document.sections) == 3
        assert result.document.source is Source.SYNTHETIC

    def test_mock_hits_word_target_exactly(self):
        metadata = ArticleMetadata(title="Sleep Help", headers=("One", "Two"), word_count=150)
        result = generate_synthetic_doc(metadata, self.gateway(), doc_id="syn-1")
        assert result.generated_words == 150
        assert not result.length_flagged

    def test_deterministic_generation(self):
        metadata = ArticleMetadata(title="Sleep Help", headers=("One",), word_count=80)
        a = generate_synthetic_doc(metadata, self.gateway(seed=4), doc_id="syn-1")
        b = generate_synthetic_doc(metadata, self.gateway(seed=4), doc_id="syn-1")
        assert a.document == b.document

    def test_length_deviation_flagged(self):
        long_article = "# T\n## H\n" + " ".join(["word"] * 998)
        gateway = Gateway(CannedProvider(long_article), sleep=lambda s: None)
        metadata = ArticleMetadata(title="T", headers=("H",), word_count=800)
        result = generate_synthetic_doc(metadata, gateway, doc_id="syn-1")
        assert result.generated_words == 1000
        assert result.length_deviation == pytest.approx(0.25)
        assert result.length_flagged

    def test_within_tolerance_not_flagged(self):
        article = "# T\n## H\n" + " ".join(["word"] * 838)
        gateway = Gateway(CannedProvider(article), sleep=lambda s: None)
        metadata = ArticleMetadata(title="T", headers=("H",), word_count=800)
        result = generate_synthetic_doc(metadata, gateway, doc_id="syn-1")
        assert result.generated_words == 840
        assert not result.length_flagged

    def test_empty_title_rejected(self):
        metadata = ArticleMetadata(title="  ", headers=("H",), word_count=100)
        with pytest.raises(ValueError, match="title"):
            generate_synthetic_doc(metadata, self.gateway(), doc_id="syn-1")

    def test_empty_generation_rejected(self):
        gateway = Gateway(CannedProvider("   \n  "), sleep=lambda s: None)
        metadata = ArticleMetadata(title="T", headers=("H",), word_count=100)
        with pytest.raises(ValueError, match="empty generation"):
            generate_synthetic_doc(metadata, gateway, doc_id="syn-1")

    def test_empty_generation_never_cached(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        provider = CannedProvider("")
        gateway = Gateway(provider, cache_path=path, sleep=lambda s: None)
        metadata = ArticleMetadata(title="T", headers=("H",), word_count=100)
        for _ in range(2):
            with pytest.raises(ValueError, match="empty generation"):
                generate_synthetic_doc(metadata, gateway, doc_id="syn-1")
        assert provider.calls == 2
        assert not path.exists() or path.read_text(encoding="utf-8") == ""

    def test_subtopic_passthrough(self):
        metadata = ArticleMetadata(title="T", headers=("H",), word_count=60)
        result = generate_synthetic_doc(
            metadata, self.gateway(), doc_id="syn-1", subtopic="Sleep: Insomnia"
        )
        assert result.document.subtopic == "Sleep: Insomnia"
