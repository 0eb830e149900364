"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py -v` to see
them inline)."""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from corpusgap.corpus import percent_increase
from corpusgap.evaluation import (
    CorpusInfo,
    LadderPoint,
    Pipeline,
    doc_reduction_report,
    emit_report,
    emit_threshold_report,
    run_grid,
)
from corpusgap.gaps import GapParams, SubtopicStats, coverage_gap, usefulness_gap
from corpusgap.gateway import Gateway, make_gateway_judge, make_gateway_rewriter
from corpusgap.planner import allocate_quotas, build_nondirected_corpus
from corpusgap.providers import HashedBagEmbedder, MockProvider
from corpusgap.retrieval import (
    CachedEmbedder,
    SearchIndex,
    build_chunk_index,
    build_document_index,
    merge_chunk_candidates,
    retrieve,
)
from corpusgap.corpus import Corpus, Document, Query, Section, Source, Split

from .world import build_ladders, build_world, mock_gateway_judge, reference_corpus, world_embedder


def criterion(label):
    def mark(fn):
        fn.acceptance_label = label
        return fn

    return mark


# --- 1: corpus size ladder ---------------------------------------------------

SIZE_LADDER = [
    (50, 12.9),
    (162, 41.9),
    (288, 74.4),
    (500, 129.2),
    (898, 232.0),
    (1230, 317.8),
    (1560, 403.1),
    (2097, 541.9),  # printed source value 542.1 contradicts its own doc counts
    (2561, 661.8),
    (2954, 763.3),
    (7640, 1974.2),
]


@criterion("01 size-ladder percent increases")
def test_c01_size_ladder():
    start = time.perf_counter()
    for added, expected in SIZE_LADDER:
        assert round(percent_increase(387 + added, 387), 1) == expected
    assert round(percent_increase(387, 387), 1) == 0.0
    assert time.perf_counter() - start < 1.0


# --- 2 & 3: threshold analysis from the published score tables ---------------

DOCS_ADDED = [0, 50, 162, 288, 500, 898, 1230, 1560, 2097, 2561, 2954]
PCT_INCREASE = [0.0, 12.9, 41.9, 74.4, 129.2, 232.0, 317.8, 403.1, 542.1, 661.8, 763.3]

DIRECTED_SCORES = {
    Pipeline.BASELINE: [54.57, 56.44, 57.87, 58.92, 60.16, 61.85, 62.90, 63.33, 64.01, 64.40, 64.68],
    Pipeline.HIERARCHICAL: [65.12, 70.84, 74.78, 77.20, 78.21, 79.86, 79.76, 80.08, 80.36, 80.09, 80.29],
    Pipeline.RERANKING: [68.44, 74.01, 76.87, 78.63, 80.78, 80.78, 81.33, 81.55, 81.54, 81.59, 81.48],
    Pipeline.QUERY_TRANSFORMATION: [66.97, 75.76, 78.86, 80.12, 80.46, 81.41, 81.58, 81.37, 81.47, 81.62, 81.96],
}
NONDIRECTED_SCORES = {
    Pipeline.BASELINE: [54.57, 55.22, 55.91, 56.80, 58.13, 59.64, 60.33, 60.63, 61.79, 62.14, 62.54],
    Pipeline.HIERARCHICAL: [65.12, 66.63, 69.12, 71.23, 72.99, 75.08, 75.87, 76.99, 78.28, 78.65, 78.62],
    Pipeline.RERANKING: [68.44, 69.54, 71.97, 73.72, 75.67, 76.88, 78.19, 78.90, 79.88, 80.46, 80.44],
    Pipeline.QUERY_TRANSFORMATION: [66.97, 68.81, 68.81, 74.64, 76.73, 78.17, 78.17, 79.61, 80.77, 80.42, 80.58],
}
REFERENCE_SCORES = {
    Pipeline.BASELINE: 65.86,
    Pipeline.HIERARCHICAL: 80.70,
    Pipeline.RERANKING: 82.12,
    Pipeline.QUERY_TRANSFORMATION: 82.22,
}

EXPECTED_DOCS = {
    Pipeline.BASELINE: (1230, 2954),
    Pipeline.HIERARCHICAL: (288, 1560),
    Pipeline.RERANKING: (288, 1230),
    Pipeline.QUERY_TRANSFORMATION: (162, 898),
}
EXPECTED_PCT_PAIRS = {
    Pipeline.BASELINE: (318, 763),
    Pipeline.HIERARCHICAL: (74, 403),
    Pipeline.RERANKING: (74, 318),
    Pipeline.QUERY_TRANSFORMATION: (42, 232),
}
EXPECTED_DECREASE = {
    Pipeline.BASELINE: 58.4,
    Pipeline.HIERARCHICAL: 81.5,
    Pipeline.RERANKING: 76.5,
    Pipeline.QUERY_TRANSFORMATION: 81.9,
}


def fixture_ladders(scores):
    return {
        pipeline: [
            LadderPoint(docs_added=d, percent_increase=p, avg_score=s)
            for d, p, s in zip(DOCS_ADDED, PCT_INCREASE, column)
        ]
        for pipeline, column in scores.items()
    }


def fixture_report():
    return doc_reduction_report(
        fixture_ladders(DIRECTED_SCORES), fixture_ladders(NONDIRECTED_SCORES), REFERENCE_SCORES
    )


@criterion("02 threshold doc counts and percent pairs")
def test_c02_threshold_reproduction():
    start = time.perf_counter()
    report = fixture_report()
    rows = {row.pipeline: row for row in report.rows}
    for pipeline, (d_docs, nd_docs) in EXPECTED_DOCS.items():
        assert rows[pipeline].directed.docs_added == d_docs
        assert rows[pipeline].nondirected.docs_added == nd_docs
    for pipeline, (d_pct, nd_pct) in EXPECTED_PCT_PAIRS.items():
        assert round(rows[pipeline].directed.percent_increase) == d_pct
        assert round(rows[pipeline].nondirected.percent_increase) == nd_pct
    assert time.perf_counter() - start < 1.0


@criterion("03 doc-reduction percentages")
def test_c03_percent_decrease():
    rows = {row.pipeline: row for row in fixture_report().rows}
    for pipeline, expected in EXPECTED_DECREASE.items():
        assert rows[pipeline].pct_decrease == pytest.approx(expected, abs=0.2)


# --- 4: coverage-gap closed form vs independent oracle ------------------------


def oracle_coverage(query_count, doc_count, total_docs, max_query_count, c=1.0, alpha=1.5):
    demand = math.log(1 + query_count) / math.log(1 + max_query_count)
    rarity = math.log((total_docs + c) / (doc_count + c)) ** alpha
    return demand * rarity


@criterion("04 coverage-gap oracle equivalence")
def test_c04_coverage_oracle():
    rng = random.Random(20250809)
    for trial in range(1000):
        n = rng.randint(1, 8)
        total_docs = rng.randint(1, 10_000)
        pairs = [(rng.randint(0, 1000), rng.randint(0, total_docs)) for _ in range(n)]
        if all(q == 0 for q, _ in pairs):
            pairs[0] = (rng.randint(1, 1000), pairs[0][1])
        if trial % 3 == 0:
            pairs[rng.randrange(n)] = (0, rng.randint(0, total_docs))  # zero-demand case
        if trial % 5 == 0:
            pairs[rng.randrange(n)] = (rng.randint(0, 1000), total_docs)  # full-supply case
        if all(q == 0 for q, _ in pairs):
            pairs.append((1, 0))
            n += 1
        stats = [
            SubtopicStats(subtopic=f"s{i}", query_count=q, doc_count=d)
            for i, (q, d) in enumerate(pairs)
        ]
        params = GapParams(total_docs=total_docs)
        max_q = max(q for q, _ in pairs)
        for stat, (q, d) in zip(stats, pairs):
            got = coverage_gap(stat, stats, params)
            if q == 0 or d == total_docs:
                assert got == 0.0
            else:
                assert got == pytest.approx(
                    oracle_coverage(q, d, total_docs, max_q), rel=1e-12
                )


# --- 5: usefulness-gap endpoints ---------------------------------------------


@criterion("05 usefulness-gap endpoints")
def test_c05_usefulness_endpoints():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 15)
        per_query = {
            f"s{i}": [rng.uniform(1.0, 100.0) for _ in range(rng.randint(1, 4))]
            for i in range(n)
        }
        means = {s: sum(v) / len(v) for s, v in per_query.items()}
        gaps = usefulness_gap(per_query)
        if len(set(means.values())) == 1:
            assert all(g == 0.0 for g in gaps.values())
            continue
        assert gaps[min(means, key=means.get)] == pytest.approx(100.0)
        assert gaps[max(means, key=means.get)] == pytest.approx(0.0)
    # degenerate ranges
    assert usefulness_gap({"only": [55.0]}) == {"only": 0.0}
    assert usefulness_gap({"a": [40.0], "b": [40.0]}) == {"a": 0.0, "b": 0.0}


# --- 6: quota allocation -------------------------------------------------------


@criterion("06 quota allocation invariants and oracles")
def test_c06_quota_allocation():
    assert allocate_quotas({"A": 2.0, "B": 1.0, "C": 1.0}, 4, {"A": 9, "B": 9, "C": 9}).allocations == {
        "A": 2, "B": 1, "C": 1,
    }
    assert allocate_quotas({"A": 0.5, "B": 0.3, "C": 0.2}, 7, {"A": 9, "B": 9, "C": 9}).allocations == {
        "A": 4, "B": 2, "C": 1,
    }
    assert allocate_quotas({"A": 1.0, "B": 1.0}, 3, {"A": 1, "B": 10}).allocations == {"A": 1, "B": 2}

    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 15)
        scores = {f"s{i}": rng.uniform(0.0, 10.0) for i in range(n)}
        if all(v == 0.0 for v in scores.values()):
            scores["s0"] = 1.0
        budget = rng.randint(1, 80)
        uncapped = rng.random() < 0.5
        if uncapped:
            availability = {s: budget for s in scores}
        else:
            availability = {s: rng.randint(0, 25) for s in scores}
            if sum(availability.values()) < budget:
                availability["s0"] = availability.get("s0", 0) + budget
        plan = allocate_quotas(scores, budget, availability)
        assert sum(plan.allocations.values()) == budget
        assert all(plan.allocations[s] <= availability[s] for s in scores)
        if uncapped:
            total = sum(scores.values())
            for s in scores:
                assert abs(plan.allocations[s] - budget * scores[s] / total) < 1.0 + 1e-9


# --- 7: exact index vs brute force --------------------------------------------


def brute_force(keys, matrix, query_vec, k):
    sims = [math.fsum(float(a) * float(b) for a, b in zip(row, query_vec)) for row in matrix]
    ranked = sorted(zip(keys, sims), key=lambda pair: (-pair[1], pair[0]))
    return [key for key, _ in ranked[:k]]


@criterion("07 exact top-k equals brute force")
def test_c07_index_exactness():
    rng = np.random.default_rng(2024)
    base = rng.normal(size=(180, 48))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    matrix = np.vstack([base, base[:20]])  # 200 vectors incl. exact duplicates
    keys = [f"v{i:04d}" for i in range(200)]
    index = SearchIndex(keys, matrix, HashedBagEmbedder(dim=48), "nohash", "document")
    for trial in range(25):
        query = rng.normal(size=48)
        query /= np.linalg.norm(query)
        got = [key for key, _ in index.search(query, 20)]
        assert got == brute_force(keys, matrix, query, 20)


# --- 8: pipeline equivalences under mocks --------------------------------------


def single_section_doc(doc_id: str, body: str) -> Document:
    return Document(
        id=doc_id,
        source=Source.BASELINE,
        title=body.split()[0],
        sections=(Section(heading="", body=body),),
    )


@criterion("08 pipeline equivalences under mocks")
def test_c08_pipeline_equivalences():
    rng = random.Random(23)
    vocab = [f"tok{i}" for i in range(60)]
    docs = tuple(
        single_section_doc(f"d{i:02d}", " ".join(rng.sample(vocab, 6))) for i in range(40)
    )
    corpus = Corpus(name="c", documents=docs)
    embedder = HashedBagEmbedder(dim=512)
    doc_index = build_document_index(corpus, embedder)
    chunk_index = build_chunk_index(corpus, embedder)
    judge = mock_gateway_judge(9)

    for i in range(12):
        query = Query(
            id=f"q{i}", text=" ".join(rng.sample(vocab, 5)), split=Split.TEST
        )
        # identity rewriter makes query transformation reproduce reranking
        [rerank] = retrieve(Pipeline.RERANKING, [query], doc_index, corpus, judge)
        [transformed] = retrieve(
            Pipeline.QUERY_TRANSFORMATION, [query], doc_index, corpus, judge, rewriter=list
        )
        assert transformed.top_docs == rerank.top_docs
        assert transformed.query_id == rerank.query_id

        # single-section corpus: chunk merge reproduces the baseline candidate set
        qvec = embedder.embed(query.text)
        baseline_candidates = {key for key, _ in doc_index.search(qvec, 20)}
        merged = {doc_id for doc_id, _ in merge_chunk_candidates(chunk_index, qvec, 20, 3)}
        assert merged == baseline_candidates

    for n_docs in (1, 2, 3, 5, 8):
        small = Corpus(name=f"c{n_docs}", documents=docs[:n_docs])
        small_doc_index = build_document_index(small, embedder)
        small_chunk_index = build_chunk_index(small, embedder)
        query = Query(id="q", text=" ".join(rng.sample(vocab, 5)), split=Split.TEST)
        results = [
            *retrieve(Pipeline.BASELINE, [query], small_doc_index),
            *retrieve(Pipeline.HIERARCHICAL, [query], small_chunk_index, small, judge),
            *retrieve(Pipeline.RERANKING, [query], small_doc_index, small, judge),
            *retrieve(
                Pipeline.QUERY_TRANSFORMATION, [query], small_doc_index, small, judge, rewriter=list
            ),
        ]
        for result in results:
            ids = [d.doc_id for d in result.top_docs]
            assert len(ids) == min(3, n_docs)
            assert len(set(ids)) == len(ids)


# --- 9: directed beats random at every rung -------------------------------------


@criterion("09 directed >= non-directed at every rung")
def test_c09_directed_beats_random():
    start = time.perf_counter()
    world = build_world(seed=0)
    judge = mock_gateway_judge(0)
    embedder = CachedEmbedder(world_embedder())
    test_queries = list(world.test_queries)

    def cell_scores(corpus):
        results = run_grid([corpus], list(Pipeline), test_queries, embedder, judge, rewriter=list)
        return {result.spec.pipeline: result.avg_score for result in results}

    directed, _ = build_ladders(world, judge, sample_seed=0)
    directed_avg = {}
    for corpus, budget in zip(directed, world.budgets):
        for pipeline, score in cell_scores(corpus).items():
            directed_avg[(budget, pipeline)] = score

    for sample_seed in range(5):
        for budget in world.budgets:
            nondirected = build_nondirected_corpus(
                world.baseline, list(world.pool), budget, sample_seed
            )
            for pipeline, nd_score in cell_scores(nondirected).items():
                assert directed_avg[(budget, pipeline)] >= nd_score, (
                    f"non-directed won: seed={sample_seed} budget={budget} "
                    f"pipeline={pipeline.value}"
                )
    assert time.perf_counter() - start < 300.0


# --- 10: full-grid determinism ---------------------------------------------------


def run_full_grid(out_dir):
    world = build_world(seed=0)
    gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
    judge = make_gateway_judge(gateway)
    rewriter = make_gateway_rewriter(gateway)
    embedder = CachedEmbedder(world_embedder())

    directed, nondirected = build_ladders(world, judge, sample_seed=7)
    corpora = [world.baseline] + directed + nondirected + [reference_corpus(world)]
    assert len(corpora) == 22
    results = run_grid(
        corpora,
        list(Pipeline),
        list(world.test_queries),
        embedder,
        judge,
        rewriter,
    )
    assert len(results) == 88
    assert all(r.complete for r in results)

    baseline_size = len(world.baseline)
    info = {}
    for corpus in corpora:
        added = len(corpus) - baseline_size
        if corpus.name == "baseline":
            arm = "baseline"
        elif corpus.name == "reference":
            arm = "reference"
        else:
            arm = corpus.name.split("-")[0]
        info[corpus.name] = CorpusInfo(arm=arm, docs_added=added, total_docs=len(corpus))

    emit_report(results, info, out_dir)

    scores = {(r.spec.corpus_name, r.spec.pipeline): r.avg_score for r in results}

    def arm_ladder(corpora_subset, pipeline):
        points = [
            LadderPoint(
                docs_added=len(c) - baseline_size,
                percent_increase=percent_increase(len(c), baseline_size),
                avg_score=scores[(c.name, pipeline)],
            )
            for c in corpora_subset
        ]
        return sorted(points, key=lambda p: p.docs_added)

    directed_ladders = {p: arm_ladder([world.baseline] + directed, p) for p in Pipeline}
    nondirected_ladders = {p: arm_ladder([world.baseline] + nondirected, p) for p in Pipeline}
    references = {p: scores[("reference", p)] for p in Pipeline}
    report = doc_reduction_report(directed_ladders, nondirected_ladders, references)
    emit_threshold_report(report, out_dir)

    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out_dir))] = path.read_bytes()
    return files


@criterion("10 end-to-end grid determinism")
def test_c10_grid_determinism(tmp_path):
    first = run_full_grid(tmp_path / "run1")
    second = run_full_grid(tmp_path / "run2")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"report differs: {name}"
