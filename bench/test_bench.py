"""Tests of the benchmark's own parts. Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import threading
from collections import Counter

import pytest

from corpusgap.annotate import label_batch
from corpusgap.corpus import Source, Split, ingest_documents, ingest_queries, load_taxonomy
from corpusgap.gateway import CompletionRequest, Gateway
from corpusgap.providers import MockProvider
from slowprovider import TAIL_SHARE, LatencyProvider, request_latency_s
from workloadgen import UNASKED_SUBTOPICS, WorkloadParams, generate

SMALL = WorkloadParams(
    subtopics=6, baseline_docs=24, pool_docs=30, sections=2, words_per_section=12,
    train_queries=20, test_queries=6,
)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_same_bytes(tmp_path):
    generate(3, SMALL, tmp_path / "a")
    generate(3, SMALL, tmp_path / "b")
    generate(4, SMALL, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["pool.jsonl"] != _files(tmp_path / "c")["pool.jsonl"]


def test_sizes_and_unlabeled_inputs(tmp_path):
    paths = generate(5, SMALL, tmp_path)
    taxonomy = load_taxonomy(paths["taxonomy"])
    baseline = ingest_documents(paths["baseline"], Source.BASELINE, taxonomy)
    pool = ingest_documents(paths["pool"], Source.REFERENCE, taxonomy)
    train = ingest_queries(paths["train"], Split.TRAIN, taxonomy)
    test = ingest_queries(paths["test"], Split.TEST, taxonomy)
    assert len(taxonomy.subtopic_ids) == SMALL.subtopics
    assert (len(baseline), len(pool), len(train), len(test)) == (24, 30, 20, 6)
    assert all(d.subtopic in taxonomy for d in baseline.documents)
    assert all(d.subtopic is None for d in pool.documents)
    assert all(q.subtopic is None for q in train + test)
    truth = json.loads(paths["truth"].read_text())["labels"]
    asked = {truth[q.id] for q in train}
    assert len(asked) == SMALL.subtopics - UNASKED_SUBTOPICS


def test_pool_follows_demand(tmp_path):
    truth = json.loads(generate(5, SMALL, tmp_path)["truth"].read_text())["labels"]
    queries = Counter(sub for item_id, sub in truth.items() if item_id.startswith("train-"))
    pool = Counter(sub for item_id, sub in truth.items() if item_id.startswith("pool-"))
    unasked = set(pool) - set(queries)
    assert len(unasked) == UNASKED_SUBTOPICS
    assert all(0 < pool[u] <= min(pool[s] for s in queries) for u in unasked)
    assert all(pool[a] >= pool[b] for a in queries for b in queries if queries[a] > queries[b])


def test_mock_classifier_recovers_truth(tmp_path):
    paths = generate(7, SMALL, tmp_path)
    taxonomy = load_taxonomy(paths["taxonomy"])
    pool = ingest_documents(paths["pool"], Source.REFERENCE)
    train = ingest_queries(paths["train"], Split.TRAIN)
    items = [(q.id, q.text) for q in train]
    items += [(d.id, " ".join([d.title] + [s.body for s in d.sections])) for d in pool.documents]
    labels, failures = label_batch(items, taxonomy, Gateway(MockProvider(seed=7)))
    truth = json.loads(paths["truth"].read_text())["labels"]
    assert not failures
    assert {item_id: lab.primary for item_id, lab in labels.items()} == {i: truth[i] for i, _ in items}


def test_ladder_scales_the_paper_budgets():
    budgets = WorkloadParams(pool_docs=300).budgets()
    assert len(budgets) == 10
    assert list(budgets) == sorted(set(budgets))
    assert budgets[0] == 5 and budgets[-1] == 295
    with pytest.raises(ValueError):
        WorkloadParams(pool_docs=5).budgets()


def _requests(n):
    return [
        CompletionRequest(template="rewrite_query", bindings={"query": f"question number {i}"})
        for i in range(n)
    ]


class _RecordingSleep:
    """Records the sleep each request asked for, by request index."""

    def __init__(self):
        self.current = threading.local()
        self.lock = threading.Lock()
        self.by_request = {}

    def __call__(self, seconds):
        with self.lock:
            self.by_request[self.current.index] = seconds


def _latencies(requests, order, threads):
    sleep = _RecordingSleep()
    provider = LatencyProvider(MockProvider(seed=1), seed=9, sleep=sleep)

    def work(indices):
        for i in indices:
            sleep.current.index = i
            provider.generate(requests[i], requests[i].bindings["query"])

    workers = [threading.Thread(target=work, args=(order[k::threads],)) for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    return sleep.by_request, provider


def test_latency_does_not_depend_on_call_order():
    requests = _requests(200)
    forward, _ = _latencies(requests, list(range(200)), threads=1)
    shuffled = list(range(200))
    random.Random(0).shuffle(shuffled)
    mixed, provider = _latencies(requests, shuffled, threads=4)
    assert len(forward) == 200
    assert forward == mixed
    assert forward == {i: request_latency_s(9, r.cache_key()) for i, r in enumerate(requests)}
    assert sorted(provider.planned_s) == sorted(mixed.values())
    assert 1 <= provider.max_inflight <= 4


def test_latency_shape():
    delays = [request_latency_s(9, r.cache_key()) for r in _requests(4000)]
    assert all(0.001 <= d < 0.012 for d in delays)
    tail = sum(d >= 0.006 for d in delays) / len(delays)
    assert abs(tail - TAIL_SHARE) < 0.02
    assert 0.002 < sum(delays) / len(delays) < 0.003
