from __future__ import annotations

import collections
import json
import random
import re

import numpy as np
import pytest

from corpusgap import evaluation
from corpusgap.corpus import Corpus, Document, Query, Section, Source, Split
from corpusgap.evaluation import (
    CorpusInfo,
    ExperimentSpec,
    LadderPoint,
    Pipeline,
    ThresholdNotReached,
    doc_reduction_report,
    emit_report,
    emit_threshold_report,
    find_threshold,
    run_experiment,
    run_grid,
)
from corpusgap.gateway import Gateway, ProviderError, make_gateway_judge, make_gateway_rewriter
from corpusgap.providers import HashedBagEmbedder, MockProvider
from corpusgap.retrieval import CachedEmbedder

from .world import build_ladders, build_world, load_experiment, mock_gateway_judge, reference_corpus, world_embedder


def doc(doc_id: str, body: str) -> Document:
    return Document(
        id=doc_id, source=Source.BASELINE, title="", sections=(Section(heading="", body=body),)
    )


def tquery(qid: str, text: str) -> Query:
    return Query(id=qid, text=text, split=Split.TEST)


@pytest.fixture
def resources():
    """The (corpus, embedder) arguments of `run_experiment`."""
    corpus = Corpus(
        name="tiny",
        documents=(doc("d1", "alpha beta"), doc("d2", "alpha gamma"), doc("d3", "delta")),
    )
    return corpus, HashedBagEmbedder(dim=64)


class TestRunExperiment:
    def test_three_doc_average(self, resources):
        scripted = {"d1": 70, "d2": 50, "d3": 90}
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.BASELINE)
        result = run_experiment(
            spec, *resources, [tquery("q1", "alpha")], judge=lambda pairs: [scripted[d.id] for _, d in pairs]
        )
        assert result.avg_score == pytest.approx(70.0)
        assert result.complete
        assert len(result.per_query) == 1
        assert len(result.per_query[0].doc_scores) == 3

    def test_deterministic_repeat(self, resources):
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.RERANKING, seed=5)
        runs = [
            run_experiment(spec, *resources, [tquery("q1", "alpha beta")], mock_gateway_judge(5))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_aggregate_invariant_to_query_order(self, resources):
        queries = [tquery(f"q{i}", f"alpha tok{i}") for i in range(6)]
        judge = mock_gateway_judge(1)
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.RERANKING)
        forward = run_experiment(spec, *resources, queries, judge)
        shuffled = list(queries)
        random.Random(3).shuffle(shuffled)
        backward = run_experiment(spec, *resources, shuffled, judge)
        assert forward.avg_score == backward.avg_score

    def test_train_queries_rejected(self, resources):
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.BASELINE)
        train = Query(id="q1", text="alpha", split=Split.TRAIN)
        with pytest.raises(ValueError, match="non-test"):
            run_experiment(spec, *resources, [train], judge=lambda pairs: [50] * len(pairs))

    def test_pipeline_error_saves_partial_and_flags(self, resources, tmp_path):
        def judge(pairs):
            return [60 if i < 3 else RuntimeError("judge quota exhausted") for i in range(len(pairs))]

        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.RERANKING)
        out = tmp_path / "cell.jsonl"
        queries = [tquery("q1", "alpha"), tquery("q2", "beta")]
        result = run_experiment(spec, *resources, queries, judge, out_path=out)
        assert result.complete is False
        assert result.error == "RuntimeError: judge quota exhausted"
        partial = load_experiment(out)
        assert partial == result
        assert partial.avg_score is None
        assert len(partial.per_query) == 1

    def test_batched_judge_failure_surfaces_at_its_query(self, resources, tmp_path):
        class DownForOneQuery(MockProvider):
            def generate_many(self, requests, render):
                return [
                    ProviderError("endpoint unavailable")
                    if request.bindings.get("user_query") == "beta"
                    else reply
                    for request, reply in zip(requests, super().generate_many(requests, render))
                ]

        judge = make_gateway_judge(Gateway(DownForOneQuery(seed=0), sleep=lambda s: None))
        queries = [tquery("q1", "alpha"), tquery("q2", "beta"), tquery("q3", "delta")]
        for pipeline in (Pipeline.BASELINE, Pipeline.RERANKING):
            out = tmp_path / f"{pipeline.value}.jsonl"
            spec = ExperimentSpec(corpus_name="tiny", pipeline=pipeline)
            result = run_experiment(spec, *resources, queries, judge, out_path=out)
            assert result.complete is False
            assert result.error.startswith("ProviderError: ") and "endpoint unavailable" in result.error
            partial = load_experiment(out)
            assert partial == result
            assert [o.query_id for o in partial.per_query] == ["q1"]

    def test_rewrites_sent_as_one_complete_many_batch(self, resources, monkeypatch):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        batches = []
        complete_keyed = gateway.complete_keyed

        def spy(keys, request_at, parser):
            batches.append([request_at(i).template for i in range(len(keys))])
            return complete_keyed(keys, request_at, parser)

        # Both `complete_many` and the judge send their batches through
        # `complete_keyed`.
        monkeypatch.setattr(gateway, "complete_keyed", spy)
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.QUERY_TRANSFORMATION)
        queries = [tquery("q1", "alpha"), tquery("q2", "beta"), tquery("q3", "delta")]
        result = run_experiment(
            spec, *resources, queries, make_gateway_judge(gateway), make_gateway_rewriter(gateway)
        )
        assert result.complete
        assert batches == [["rewrite_query"] * 3, ["usefulness_rubric"] * 9]
        assert gateway.provider.calls_by_template["rewrite_query"] == 3

    def test_rewrite_failure_keeps_earlier_queries(self, resources, tmp_path):
        class RewriteDownForOneQuery(MockProvider):
            def generate_many(self, requests, render):
                return [
                    ProviderError("rewrite endpoint unavailable")
                    if request.bindings.get("query") == "delta"
                    else reply
                    for request, reply in zip(requests, super().generate_many(requests, render))
                ]

        gateway = Gateway(RewriteDownForOneQuery(seed=0), sleep=lambda s: None)
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.QUERY_TRANSFORMATION)
        queries = [tquery("q1", "alpha"), tquery("q2", "beta"), tquery("q3", "delta"), tquery("q4", "gamma")]
        out = tmp_path / "cell.jsonl"
        result = run_experiment(
            spec, *resources, queries, make_gateway_judge(gateway), make_gateway_rewriter(gateway),
            out_path=out,
        )
        assert result.complete is False
        assert result.error.startswith("ProviderError: ") and "rewrite endpoint unavailable" in result.error
        partial = load_experiment(out)
        assert partial == result and partial.avg_score is None
        assert [o.query_id for o in partial.per_query] == ["q1", "q2"]
        assert all(len(o.doc_scores) == 3 for o in partial.per_query)

    def test_gateway_rewriter_refuses_a_bare_string(self):
        rewrite = make_gateway_rewriter(Gateway(MockProvider(seed=0), sleep=lambda s: None))
        with pytest.raises(TypeError, match="batch"):
            rewrite("cant sleep")
        assert len(rewrite(["cant sleep"])) == 1

    def test_save_load_round_trip(self, resources, tmp_path):
        spec = ExperimentSpec(corpus_name="tiny", pipeline=Pipeline.BASELINE, seed=2)
        out = tmp_path / "cell.jsonl"
        result = run_experiment(
            spec, *resources, [tquery("q1", "alpha")], mock_gateway_judge(2), out_path=out
        )
        assert load_experiment(out) == result
        assert "error" not in out.read_text(encoding="utf-8")


class TestRunGrid:
    def test_grid_shape_and_continuation(self, tmp_path):
        corpora = [
            Corpus(name="a", documents=(doc("d1", "alpha"), doc("d2", "beta"))),
            Corpus(name="b", documents=(doc("d3", "alpha"), doc("d4", "gamma"))),
        ]
        results = run_grid(
            corpora,
            list(Pipeline),
            [tquery("q1", "alpha")],
            HashedBagEmbedder(dim=64),
            mock_gateway_judge(0),
            rewriter=list,
            out_dir=tmp_path,
        )
        assert len(results) == 8
        assert all(r.complete for r in results)
        assert (tmp_path / "a__baseline.jsonl").exists()

    def test_failed_cell_returns_its_reason_and_the_grid_goes_on(self, tmp_path):
        def judge(pairs):
            return [ProviderError("endpoint unavailable") if d.id == "d4" else 50 for _, d in pairs]

        corpora = [
            Corpus(name="a", documents=(doc("d1", "alpha"), doc("d2", "beta"))),
            Corpus(name="b", documents=(doc("d3", "alpha"), doc("d4", "gamma"))),
        ]
        results = run_grid(
            corpora, [Pipeline.BASELINE], [tquery("q1", "alpha")], HashedBagEmbedder(dim=64), judge,
            out_dir=tmp_path,
        )
        assert [(r.spec.corpus_name, r.complete, r.error) for r in results] == [
            ("a", True, None),
            ("b", False, "ProviderError: endpoint unavailable"),
        ]
        meta = json.loads((tmp_path / "b__baseline.jsonl").read_text(encoding="utf-8").splitlines()[0])
        assert meta["error"] == "ProviderError: endpoint unavailable"
        assert load_experiment(tmp_path / "b__baseline.jsonl") == results[1]

    def test_chunk_index_built_only_for_hierarchical(self, monkeypatch):
        built = []
        build = evaluation.build_chunk_index

        def spy(corpus, embedder):
            built.append(corpus.name)
            return build(corpus, embedder)

        monkeypatch.setattr(evaluation, "build_chunk_index", spy)
        corpora = [
            Corpus(name="a", documents=(doc("d1", "alpha"), doc("d2", "beta"))),
            Corpus(name="b", documents=(doc("d3", "alpha"), doc("d4", "gamma"))),
        ]
        args = ([tquery("q1", "alpha")], HashedBagEmbedder(dim=64), mock_gateway_judge(0))
        results = run_grid(corpora, [Pipeline.BASELINE], *args)
        assert all(r.complete for r in results) and built == []
        results = run_grid(corpora, [Pipeline.BASELINE, Pipeline.HIERARCHICAL], *args)
        assert all(r.complete for r in results) and len(built) == 1

    @pytest.mark.parametrize(
        "bad, failing, attempts",
        [
            # One section, no title: the document and its one chunk embed the same text.
            (doc("bad", "beta gamma"), set(Pipeline), 2),
            (Document(id="bad", source=Source.BASELINE, title="", sections=(Section("", "beta"), Section("", "gamma"))),
             {Pipeline.HIERARCHICAL}, 1),
        ],
        ids=["both-kinds", "chunk-kind"],
    )
    def test_failed_index_build_is_tried_once_per_grid(self, tmp_path, bad, failing, attempts):
        bad_texts = {bad.section_text(1)} if len(bad.sections) > 1 else {bad.text}
        asked = []

        class FailsOnOneText(HashedBagEmbedder):
            def embed(self, text):
                asked.append(text)
                if text in bad_texts:
                    raise ProviderError("embed endpoint unavailable")
                return super().embed(text)

        embedder = CachedEmbedder(FailsOnOneText(dim=64))
        corpora = [
            Corpus(name="a", documents=(doc("d1", "alpha beta"), bad)),
            Corpus(name="b", documents=(doc("d2", "gamma delta"),)),
            Corpus(name="c", documents=(doc("d1", "alpha beta"), doc("d2", "gamma delta"), bad)),
        ]
        results = run_grid(
            corpora, list(Pipeline), [tquery("q1", "alpha")], embedder, mock_gateway_judge(0), rewriter=list,
            out_dir=tmp_path,
        )
        assert sum(text in bad_texts for text in asked) == attempts
        assert len(results) == 12
        for result in results:
            if result.spec.pipeline in failing:
                assert (result.complete, result.error, result.avg_score, result.per_query) == (
                    False, "ProviderError: embed endpoint unavailable", None, ()
                )
                name = f"{result.spec.corpus_name}__{result.spec.pipeline.value}.jsonl"
                assert load_experiment(tmp_path / name) == result
            else:
                assert result.complete and len(result.per_query) == 1

    def test_run_experiment_equals_its_grid_cell(self, tmp_path):
        corpus = Corpus(name="tiny", documents=(doc("d1", "alpha beta"), doc("d2", "alpha gamma"), doc("d3", "delta")))
        embedder = HashedBagEmbedder(dim=64)
        queries = [tquery("q1", "alpha"), tquery("q2", "gamma delta")]
        judge = mock_gateway_judge(4)
        grid = run_grid([corpus], list(Pipeline), queries, embedder, judge, rewriter=list, seed=4, k_candidates=2)
        for cell in grid:
            out = tmp_path / f"{cell.spec.pipeline.value}.jsonl"
            alone = run_experiment(cell.spec, corpus, embedder, queries, judge, list, k_candidates=2, out_path=out)
            assert alone == cell and alone.complete and alone.spec.seed == 4
            assert load_experiment(out) == cell

    def test_run_experiment_refuses_a_spec_for_another_corpus(self, resources):
        spec = ExperimentSpec(corpus_name="other", pipeline=Pipeline.BASELINE)
        with pytest.raises(ValueError, match="spec names corpus 'other', but the corpus is 'tiny'"):
            run_experiment(spec, *resources, [tquery("q1", "alpha")], mock_gateway_judge(0))

    def test_every_cell_equals_its_corpus_run_alone(self):
        rng = random.Random(31)
        vocab = [f"tok{i}" for i in range(30)]

        def sections(n):
            return tuple(Section(f"h{j}", " ".join(rng.sample(vocab, 4))) for j in range(n))

        docs = [
            Document(id=f"d{i:02d}", source=Source.BASELINE, title="t", sections=sections(1 + i % 3))
            for i in range(24)
        ]
        # A small embedding dimension makes bucket collisions, and so tied
        # similarities, common.
        embedder = HashedBagEmbedder(dim=16)
        corpora = [
            Corpus(name="base", documents=tuple(docs[:10])),
            Corpus(name="rung", documents=tuple(docs[:10] + docs[17:20] + docs[12:14])),
            Corpus(name="all", documents=tuple(reversed(docs))),
        ]
        queries = [tquery(f"q{i}", " ".join(rng.sample(vocab, 3))) for i in range(6)]
        gateway = Gateway(MockProvider(seed=2), sleep=lambda s: None)
        judge, rewriter = make_gateway_judge(gateway), make_gateway_rewriter(gateway)
        results = run_grid(corpora, list(Pipeline), queries, embedder, judge, rewriter, k_candidates=4)
        want = [
            run_experiment(
                ExperimentSpec(corpus.name, pipeline), corpus, embedder,
                queries, judge, rewriter, k_candidates=4,
            )
            for corpus in corpora
            for pipeline in Pipeline
        ]
        assert results == want and all(r.complete for r in results)

    def test_each_pair_judged_once_per_grid_in_chunk_bounded_calls(self, monkeypatch):
        rng = random.Random(5)
        vocab = [f"tok{i}" for i in range(20)]
        docs = [doc(f"d{i:02d}", " ".join(rng.sample(vocab, 4))) for i in range(16)]
        corpora = [
            Corpus(name="base", documents=tuple(docs[:6])),
            Corpus(name="rung", documents=tuple(docs[:6] + docs[9:12])),
            Corpus(name="all", documents=tuple(docs)),
        ]
        texts = [" ".join(rng.sample(vocab, 3)) for _ in range(4)]
        queries = [tquery(f"q{i}", text) for i, text in enumerate(texts + texts[:1])]
        embedder = HashedBagEmbedder(dim=32)
        inner = mock_gateway_judge(3)

        def needs(corpus, pipeline):
            pairs = []
            run_experiment(
                ExperimentSpec(corpus.name, pipeline), corpus, embedder, queries,
                lambda batch: pairs.extend((t, d.id) for t, d in batch) or inner(batch), list, k_candidates=5,
            )
            return set(pairs)

        cell_pairs = [needs(corpus, pipeline) for corpus in corpora for pipeline in Pipeline]
        calls_by_run = []

        class RecordingRetriever(evaluation.Retriever):
            def run(self, cells, queries):
                calls_by_run.append((len(cells), []))
                return super().run(cells, queries)

        def judge(batch):
            calls_by_run[-1][1].append([(t, d.id) for t, d in batch])
            return inner(batch)

        monkeypatch.setattr(evaluation, "Retriever", RecordingRetriever)
        monkeypatch.setattr(evaluation, "GRID_CHUNK_CELLS", 3)
        results = run_grid(corpora, list(Pipeline), queries, embedder, judge, list, k_candidates=5)
        assert all(r.complete for r in results)
        assert [n for n, _ in calls_by_run] == [3, 3, 3, 3]
        judged = [pair for _, calls in calls_by_run for batch in calls for pair in batch]
        assert len(judged) == len(set(judged)) == len(set().union(*cell_pairs))
        for chunk, (_, calls) in enumerate(calls_by_run):
            assert len(calls) <= 1
            for batch in calls:
                assert set(batch) <= set().union(*cell_pairs[3 * chunk : 3 * chunk + 3])

    @pytest.mark.parametrize("chunk_cells, asked", [(16, 1), (2, 2)])
    def test_failed_pair_fails_every_cell_holding_it_at_its_query(self, monkeypatch, tmp_path, chunk_cells, asked):
        monkeypatch.setattr(evaluation, "GRID_CHUNK_CELLS", chunk_cells)
        inner = mock_gateway_judge(0)
        bad = ("beta gamma", "bad")
        seen = []

        def judge(pairs):
            seen.extend((t, d.id) for t, d in pairs)
            return [ProviderError("judge down") if (t, d.id) == bad else s for (t, d), s in zip(pairs, inner(pairs))]

        corpora = [
            Corpus(name="a", documents=(doc("d1", "alpha beta"), doc("bad", "beta gamma"))),
            Corpus(name="b", documents=(doc("bad", "beta gamma"), doc("d2", "gamma delta"), doc("d3", "alpha"))),
            Corpus(name="c", documents=(doc("d1", "alpha beta"), doc("d2", "gamma delta"))),
        ]
        queries = [tquery("q1", "alpha"), tquery("q2", "beta gamma"), tquery("q3", "delta")]
        results = run_grid(
            corpora, [Pipeline.RERANKING, Pipeline.QUERY_TRANSFORMATION], queries, HashedBagEmbedder(dim=64),
            judge, rewriter=list, out_dir=tmp_path,
        )
        by_cell = {(r.spec.corpus_name, r.spec.pipeline): r for r in results}
        for name in ("a", "b"):
            for pipeline in (Pipeline.RERANKING, Pipeline.QUERY_TRANSFORMATION):
                cell = by_cell[name, pipeline]
                assert (cell.complete, cell.error, cell.avg_score) == (False, "ProviderError: judge down", None)
                assert [o.query_id for o in cell.per_query] == ["q1"]
                assert load_experiment(tmp_path / f"{name}__{pipeline.value}.jsonl") == cell
        for pipeline in (Pipeline.RERANKING, Pipeline.QUERY_TRANSFORMATION):
            assert by_cell["c", pipeline].complete and len(by_cell["c", pipeline].per_query) == 3
        # Asked again by each chunk that holds it (a's two cells, then b's), never once per cell.
        assert seen.count(bad) == asked

    def test_one_doc_id_with_two_documents_refused_before_any_cell(self, tmp_path):
        judged = []
        corpora = [
            Corpus(name="a", documents=(doc("d1", "alpha"), doc("d2", "beta"))),
            Corpus(name="b", documents=(doc("d1", "alpha"),)),
            Corpus(name="c", documents=(doc("d3", "gamma"), doc("d2", "beta prime"))),
        ]
        with pytest.raises(ValueError, match="doc id 'd2' names different documents in corpora 'a' and 'c'"):
            run_grid(
                corpora, list(Pipeline), [tquery("q1", "alpha")], HashedBagEmbedder(dim=64),
                lambda pairs: judged.extend(pairs) or [50] * len(pairs), rewriter=list, out_dir=tmp_path,
            )
        assert judged == [] and list(tmp_path.iterdir()) == []

    def test_empty_corpus_refused_before_any_cell(self, tmp_path):
        corpora = [Corpus(name="a", documents=(doc("d1", "alpha"),)), Corpus(name="none", documents=())]
        with pytest.raises(ValueError, match="corpus 'none' is empty"):
            run_grid(
                corpora, [Pipeline.BASELINE], [tquery("q1", "alpha")], HashedBagEmbedder(dim=64),
                mock_gateway_judge(0), out_dir=tmp_path,
            )
        assert list(tmp_path.iterdir()) == []

    def test_one_similarity_product_per_index_kind_and_search_vector(self, monkeypatch):
        # The world's 22 corpora share each union index: every search of a
        # vector, in any corpus, reads the prefix its first search made.
        world = build_world(seed=0)
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        judge, rewriter = make_gateway_judge(gateway), make_gateway_rewriter(gateway)
        directed, nondirected = build_ladders(world, judge, sample_seed=7)
        corpora = [world.baseline, *directed, *nondirected, reference_corpus(world)]
        products = collections.Counter()

        class CountingMatrix(np.ndarray):
            def __matmul__(self, other):
                products[self.kind] += 1
                return np.asarray(self) @ other

        def counted(build):
            def build_counted(corpus, embedder):
                index = build(corpus, embedder)
                index._padded = index._padded.view(CountingMatrix)
                index._padded.kind = index.kind
                return index

            return build_counted

        for name in ("build_document_index", "build_chunk_index"):
            monkeypatch.setattr(evaluation, name, counted(getattr(evaluation, name)))
        results = run_grid(corpora, list(Pipeline), list(world.test_queries), world_embedder(), judge, rewriter)
        assert len(results) == 88 and all(r.complete for r in results)
        # A search text's vector keys its prefix, and texts of one bag of
        # words embed alike.
        texts = sorted({q.text for q in world.test_queries})
        vectors = {text: world_embedder().embed(text).tobytes() for text in texts + rewriter(texts)}
        assert products == {"document": len(set(vectors.values())), "chunk": len({vectors[t] for t in texts})}


QT_DIRECTED = [
    LadderPoint(0, 0.0, 66.97),
    LadderPoint(50, 12.9, 75.76),
    LadderPoint(162, 41.9, 78.86),
    LadderPoint(288, 74.4, 80.12),
    LadderPoint(500, 129.2, 80.46),
]

BASELINE_NONDIRECTED_TAIL = [
    LadderPoint(2097, 542.1, 61.79),
    LadderPoint(2561, 661.8, 62.14),
    LadderPoint(2954, 763.3, 62.54),
]


class TestFindThreshold:
    def test_smallest_qualifying_rung(self):
        point = find_threshold(QT_DIRECTED, reference_score=82.22)
        assert point.docs_added == 162

    def test_ratio_rounds_half_up_at_three_decimals(self):
        # 62.54 / 65.86 = 0.94959..., which rounds to 0.950 and qualifies.
        point = find_threshold(BASELINE_NONDIRECTED_TAIL, reference_score=65.86)
        assert point.docs_added == 2954

    def test_saturated_ladder_returns_first_rung(self):
        ladder = [LadderPoint(10, 1.0, 80.0), LadderPoint(20, 2.0, 80.0)]
        assert find_threshold(ladder, reference_score=80.0).docs_added == 10

    def test_no_qualifying_rung_errors(self):
        ladder = [LadderPoint(10, 1.0, 10.0)]
        with pytest.raises(ThresholdNotReached):
            find_threshold(ladder, reference_score=100.0)

    def test_empty_ladder_errors(self):
        with pytest.raises(ValueError, match="empty"):
            find_threshold([], reference_score=1.0)

    @pytest.mark.parametrize("ratio", [float("nan"), 0.0, -1.0])
    def test_ratio_not_above_zero_rejected(self, ratio):
        ladder = [LadderPoint(10, 1.0, 80.0)]
        with pytest.raises(ValueError, match=re.escape(f"ratio must be above 0, got {ratio!r}")):
            find_threshold(ladder, reference_score=80.0, ratio=ratio)

    def test_unsorted_ladder_rejected(self):
        ladder = [LadderPoint(20, 2.0, 80.0), LadderPoint(10, 1.0, 80.0)]
        with pytest.raises(ValueError, match="sorted"):
            find_threshold(ladder, reference_score=80.0)

    def test_monotone_adding_better_smaller_rung(self):
        rng = random.Random(13)
        for _ in range(100):
            sizes = sorted(rng.sample(range(1, 1000), 6))
            ladder = [
                LadderPoint(s, float(s), rng.uniform(40.0, 100.0)) for s in sizes
            ]
            reference = 90.0
            try:
                base = find_threshold(ladder, reference)
            except ThresholdNotReached:
                base = None
            smaller = LadderPoint(0, 0.0, 99.0)
            improved = find_threshold([smaller] + ladder, reference)
            if base is not None:
                assert improved.docs_added <= base.docs_added


class TestDocReductionReport:
    def test_two_pipeline_rows(self):
        directed = {
            Pipeline.BASELINE: [
                LadderPoint(898, 232.0, 61.85),
                LadderPoint(1230, 317.8, 62.90),
                LadderPoint(1560, 403.1, 63.33),
            ],
            Pipeline.HIERARCHICAL: [
                LadderPoint(162, 41.9, 74.78),
                LadderPoint(288, 74.4, 77.20),
                LadderPoint(500, 129.2, 78.21),
            ],
        }
        nondirected = {
            Pipeline.BASELINE: [
                LadderPoint(2561, 661.8, 62.14),
                LadderPoint(2954, 763.3, 62.54),
            ],
            Pipeline.HIERARCHICAL: [
                LadderPoint(1230, 317.8, 75.87),
                LadderPoint(1560, 403.1, 76.99),
            ],
        }
        references = {Pipeline.BASELINE: 65.86, Pipeline.HIERARCHICAL: 80.70}
        report = doc_reduction_report(directed, nondirected, references)
        rows = {row.pipeline: row for row in report.rows}
        assert rows[Pipeline.BASELINE].directed.docs_added == 1230
        assert rows[Pipeline.BASELINE].nondirected.docs_added == 2954
        assert rows[Pipeline.BASELINE].pct_decrease == pytest.approx(58.4, abs=0.2)
        assert rows[Pipeline.HIERARCHICAL].directed.docs_added == 288
        assert rows[Pipeline.HIERARCHICAL].nondirected.docs_added == 1560
        assert rows[Pipeline.HIERARCHICAL].pct_decrease == pytest.approx(81.5, abs=0.2)

    def test_identical_arms_give_zero_decrease(self):
        ladder = [LadderPoint(100, 10.0, 95.0)]
        report = doc_reduction_report(
            {Pipeline.BASELINE: ladder}, {Pipeline.BASELINE: ladder}, {Pipeline.BASELINE: 95.0}
        )
        assert report.rows[0].pct_decrease == 0.0


def grid_results(tmp_path):
    corpora = [
        Corpus(name="base", documents=(doc("d1", "alpha"), doc("d2", "beta"))),
        Corpus(name="aug", documents=(doc("d1", "alpha"), doc("d2", "beta"), doc("d3", "alpha beta"))),
    ]
    results = run_grid(
        corpora,
        list(Pipeline),
        [tquery("q1", "alpha beta")],
        HashedBagEmbedder(dim=64),
        mock_gateway_judge(0),
        rewriter=list,
    )
    info = {
        "base": CorpusInfo(arm="baseline", docs_added=0, total_docs=2),
        "aug": CorpusInfo(arm="directed", docs_added=1, total_docs=3),
    }
    return results, info


class TestEmitReport:
    def test_byte_identical_reruns(self, tmp_path):
        results, info = grid_results(tmp_path)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        paths_a = emit_report(results, info, dir_a)
        paths_b = emit_report(results, info, dir_b)
        assert [p.relative_to(dir_a) for p in paths_a] == [
            p.relative_to(dir_b) for p in paths_b
        ]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_empty_results_emit_headers_and_warning(self, tmp_path):
        out = tmp_path / "r"
        emit_report([], {}, out)
        csv_text = (out / "scores.csv").read_text()
        assert csv_text.splitlines()[0].startswith("corpus,")
        assert len(csv_text.splitlines()) == 1
        assert "no experiment results" in (out / "warnings.txt").read_text()

    def test_missing_cells_flagged(self, tmp_path):
        results, info = grid_results(tmp_path)
        partial = [r for r in results if r.spec.pipeline is Pipeline.BASELINE]
        out = tmp_path / "r"
        emit_report(partial, info, out)
        warnings = (out / "warnings.txt").read_text()
        assert "missing cell: aug/reranking" in warnings

    def test_plot_series_sorted_by_size(self, tmp_path):
        results, info = grid_results(tmp_path)
        out = tmp_path / "r"
        emit_report(results, info, out)
        series = (out / "plot" / "baseline_directed.csv").read_text().splitlines()
        assert series[0] == "total_docs,avg_score"


class TestEmitThresholdReport:
    def test_rule_recorded_and_deterministic(self, tmp_path):
        ladder = [LadderPoint(100, 10.0, 95.0)]
        report = doc_reduction_report(
            {Pipeline.BASELINE: ladder}, {Pipeline.BASELINE: ladder}, {Pipeline.BASELINE: 95.0}
        )
        first = emit_threshold_report(report, tmp_path / "a")
        second = emit_threshold_report(report, tmp_path / "b")
        text = (tmp_path / "a" / "thresholds.txt").read_text()
        assert "rounded half-up to 3 decimals" in text
        assert "0.950" in text
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()


def made_result(name: str, pipeline: Pipeline, score: float | None, complete: bool = True):
    spec = ExperimentSpec(corpus_name=name, pipeline=pipeline)
    return evaluation.ExperimentResult(spec, score, (), complete, None if complete else "ProviderError: down")


class TestReportBytes:
    """Every report byte from hand-made results: no retrieval runs, so no
    BLAS kernel or judge can move a score."""

    INFO = {
        "reference": CorpusInfo(arm="reference", docs_added=9, total_docs=19),
        "nd_b": CorpusInfo(arm="nondirected", docs_added=3, total_docs=13),
        "baseline": CorpusInfo(arm="baseline", docs_added=0, total_docs=10),
        "d_2": CorpusInfo(arm="directed", docs_added=5, total_docs=15),
        "nd_ü": CorpusInfo(arm="nondirected", docs_added=3, total_docs=13),
        "d_z": CorpusInfo(arm="directed", docs_added=2, total_docs=12),
    }
    # Within an arm corpora go by total docs, then by name: d_z before d_2, nd_b before nd_ü.

    @staticmethod
    def results():
        """Each pipeline scores a third above the last, except one missing
        cell (d_2/reranking), one incomplete cell (nd_ü/hierarchical), one
        complete cell with no score (nd_b/query_transformation), and one
        cell of a corpus with no info."""
        firsts = {"baseline": 60.0, "d_z": 70.25, "d_2": 76.5, "nd_ü": 64.0, "nd_b": 66.125, "reference": 80.0}
        results = [made_result("stray", Pipeline.BASELINE, 99.0)]
        for name, first in firsts.items():
            for step, pipeline in enumerate(Pipeline):
                cell = (name, pipeline)
                if cell == ("d_2", Pipeline.RERANKING):
                    continue
                if cell == ("nd_ü", Pipeline.HIERARCHICAL):
                    results.append(made_result(name, pipeline, None, complete=False))
                elif cell == ("nd_b", Pipeline.QUERY_TRANSFORMATION):
                    results.append(made_result(name, pipeline, None))
                else:
                    results.append(made_result(name, pipeline, first + step / 3))
        return results

    SCORES_CSV = (
        "corpus,arm,docs_added,total_docs,pct_increase,pipeline,avg_score,complete\n"
        "baseline,baseline,0,10,0.0,baseline,60.0000,true\n"
        "baseline,baseline,0,10,0.0,hierarchical,60.3333,true\n"
        "baseline,baseline,0,10,0.0,reranking,60.6667,true\n"
        "baseline,baseline,0,10,0.0,query_transformation,61.0000,true\n"
        "d_z,directed,2,12,20.0,baseline,70.2500,true\n"
        "d_z,directed,2,12,20.0,hierarchical,70.5833,true\n"
        "d_z,directed,2,12,20.0,reranking,70.9167,true\n"
        "d_z,directed,2,12,20.0,query_transformation,71.2500,true\n"
        "d_2,directed,5,15,50.0,baseline,76.5000,true\n"
        "d_2,directed,5,15,50.0,hierarchical,76.8333,true\n"
        "d_2,directed,5,15,50.0,query_transformation,77.5000,true\n"
        "nd_b,nondirected,3,13,30.0,baseline,66.1250,true\n"
        "nd_b,nondirected,3,13,30.0,hierarchical,66.4583,true\n"
        "nd_b,nondirected,3,13,30.0,reranking,66.7917,true\n"
        "nd_b,nondirected,3,13,30.0,query_transformation,,true\n"
        "nd_ü,nondirected,3,13,30.0,baseline,64.0000,true\n"
        "nd_ü,nondirected,3,13,30.0,hierarchical,,false\n"
        "nd_ü,nondirected,3,13,30.0,reranking,64.6667,true\n"
        "nd_ü,nondirected,3,13,30.0,query_transformation,65.0000,true\n"
        "reference,reference,9,19,90.0,baseline,80.0000,true\n"
        "reference,reference,9,19,90.0,hierarchical,80.3333,true\n"
        "reference,reference,9,19,90.0,reranking,80.6667,true\n"
        "reference,reference,9,19,90.0,query_transformation,81.0000,true\n"
    )
    TABLE_HEADER = (
        "corpus                         total        +%"
        "              baseline          hierarchical             reranking  query_transformation\n"
    )
    SCORES_TXT = (
        "== baseline ==\n" + TABLE_HEADER
        + "baseline                          10      0.0%"
        "               60.0000               60.3333               60.6667               61.0000\n"
        "\n"
        "== directed ==\n" + TABLE_HEADER
        + "d_z                               12     20.0%"
        "               70.2500               70.5833               70.9167               71.2500\n"
        "d_2                               15     50.0%"
        "               76.5000               76.8333                     -               77.5000\n"
        "\n"
        "== nondirected ==\n" + TABLE_HEADER
        + "nd_b                              13     30.0%"
        "               66.1250               66.4583               66.7917                      \n"
        "nd_ü                              13     30.0%"
        "               64.0000                                     64.6667               65.0000\n"
        "\n"
        "== reference ==\n" + TABLE_HEADER
        + "reference                         19     90.0%"
        "               80.0000               80.3333               80.6667               81.0000\n"
    )
    # Rows of each plot series after its "total_docs,avg_score" header.
    PLOT_ROWS = {
        "baseline_baseline": "10,60.0000\n",
        "baseline_directed": "12,70.2500\n15,76.5000\n",
        "baseline_nondirected": "13,64.0000\n13,66.1250\n",
        "baseline_reference": "19,80.0000\n",
        "hierarchical_baseline": "10,60.3333\n",
        "hierarchical_directed": "12,70.5833\n15,76.8333\n",
        "hierarchical_nondirected": "13,66.4583\n",
        "hierarchical_reference": "19,80.3333\n",
        "reranking_baseline": "10,60.6667\n",
        "reranking_directed": "12,70.9167\n",
        "reranking_nondirected": "13,64.6667\n13,66.7917\n",
        "reranking_reference": "19,80.6667\n",
        "query_transformation_baseline": "10,61.0000\n",
        "query_transformation_directed": "12,71.2500\n15,77.5000\n",
        "query_transformation_nondirected": "13,65.0000\n",
        "query_transformation_reference": "19,81.0000\n",
    }
    WARNINGS_TXT = "missing cell: d_2/reranking\nincomplete cell: nd_ü/hierarchical\n"
    THRESHOLDS_CSV = (
        "pipeline,directed_pct_increase,nondirected_pct_increase,"
        "directed_docs_added,nondirected_docs_added,pct_decrease_in_docs_added\n"
        "baseline,50.0,60.0,5,6,16.7\n"
        "hierarchical,20.0,30.0,2,3,33.3\n"
    )
    THRESHOLDS_TXT = (
        "threshold target: 0.950 of reference score\n"
        "rule: score ratio to reference, rounded half-up to 3 decimals, must reach the target\n"
        "\n"
        "pipeline                   directed +%  nondirected +%   directed docs  nondirected docs  % decrease\n"
        "baseline                         50.0%           60.0%               5                 6       16.7%\n"
        "hierarchical                     20.0%           30.0%               2                 3       33.3%\n"
    )

    @staticmethod
    def read_written(written, out):
        assert sorted(p for p in out.rglob("*") if p.is_file()) == sorted(written)
        return {p.relative_to(out).as_posix(): p.read_bytes().decode("utf-8") for p in written}

    def test_scores_reports(self, tmp_path):
        written = emit_report(self.results(), self.INFO, tmp_path)
        expected = {"scores.csv": self.SCORES_CSV, "scores.txt": self.SCORES_TXT}
        for series, rows in self.PLOT_ROWS.items():
            expected[f"plot/{series}.csv"] = "total_docs,avg_score\n" + rows
        expected["warnings.txt"] = self.WARNINGS_TXT
        got = self.read_written(written, tmp_path)
        assert list(got) == list(expected)
        assert got == expected

    def test_empty_results(self, tmp_path):
        written = emit_report([], {}, tmp_path)
        assert self.read_written(written, tmp_path) == {
            "scores.csv": "corpus,arm,docs_added,total_docs,pct_increase,pipeline,avg_score,complete\n",
            "scores.txt": "",
            "warnings.txt": "no experiment results were provided\n",
        }
        assert list((tmp_path / "plot").iterdir()) == []

    def test_threshold_reports(self, tmp_path):
        B, H = Pipeline.BASELINE, Pipeline.HIERARCHICAL
        directed = {
            B: [LadderPoint(0, 0.0, 60.0), LadderPoint(2, 20.0, 70.25), LadderPoint(5, 50.0, 76.5)],
            H: [LadderPoint(0, 0.0, 60.333), LadderPoint(2, 20.0, 76.0)],
        }
        nondirected = {
            B: [LadderPoint(0, 0.0, 60.0), LadderPoint(3, 30.0, 66.125), LadderPoint(6, 60.0, 76.0)],
            H: [LadderPoint(0, 0.0, 60.333), LadderPoint(3, 30.0, 76.0)],
        }
        report = doc_reduction_report(directed, nondirected, {B: 80.0, H: 80.0})
        written = emit_threshold_report(report, tmp_path)
        got = self.read_written(written, tmp_path)
        assert list(got) == ["thresholds.csv", "thresholds.txt"]
        assert got == {"thresholds.csv": self.THRESHOLDS_CSV, "thresholds.txt": self.THRESHOLDS_TXT}
