"""Tracing for the study benchmark, done from outside the program.

`Tracer` keeps spans (name, start, end, parent, run id) and counters in
memory and writes the spans out at the end. `NullTracer` has the same
interface and does nothing, so the study code is the same in traced and
untraced runs.

The wrappers below time calls into the program's public functions and
objects: the gateway handed to labeling and to the judge and rewriter,
the provider behind it, the embedder handed to the grid, the indexes the
grid builds, and each grid cell. `instrument` installs them; only traced
runs call it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count_calls(self, fn, counter: str):
        return fn


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent))

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[counter] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def count_calls(self, fn, counter: str):
        def counted(*args, **kwargs):
            self.add(counter)
            return fn(*args, **kwargs)

        return counted

    def span_total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.spans, key=lambda s: s[2]):
                record = {"run_id": self.run_id, "id": span_id, "name": name,
                          "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# --- wrappers ----------------------------------------------------------------


class TracedProvider:
    """Counts provider requests, their latency and the peak in flight.

    Also keeps, per thread, the provider time and request count of the
    gateway call under way, so the gateway wrapper can split its time.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.id = inner.id
        self.tracer = tracer
        self.local = threading.local()
        self._lock = threading.Lock()
        self._inflight = 0

    def generate(self, request, prompt: str) -> str:
        with self._lock:
            self._inflight += 1
            self.tracer.counts["providers.max_inflight"] = max(
                self.tracer.counts["providers.max_inflight"], self._inflight
            )
        start = time.perf_counter()
        try:
            return self.inner.generate(request, prompt)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._inflight -= 1
            self.local.busy = getattr(self.local, "busy", 0.0) + elapsed
            self.local.requests = getattr(self.local, "requests", 0) + 1
            self.tracer.add("providers.requests")
            self.tracer.add("providers.busy_s", elapsed)
            self.tracer.sample("providers.latency_ms", elapsed * 1000.0)


class TracedGateway:
    """Stands in for the gateway wherever the study hands one over.

    Every judge, rewrite and label call goes through `complete_parsed`.
    A call that made no provider request is a hit; extra requests within
    one call are retries; an error raised after a reply is a parse failure.
    """

    def __init__(self, gateway, provider: TracedProvider, tracer: Tracer):
        self._gateway = gateway
        self._provider = provider
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gateway, name)

    def complete_parsed(self, request, parser):
        local = self._provider.local
        busy0 = getattr(local, "busy", 0.0)
        requests0 = getattr(local, "requests", 0)
        start = time.perf_counter()
        try:
            return self._gateway.complete_parsed(request, parser)
        except ValueError:
            self._tracer.add("gateway.parse_failures")
            raise
        finally:
            elapsed = time.perf_counter() - start
            provider_s = getattr(local, "busy", 0.0) - busy0
            requests = getattr(local, "requests", 0) - requests0
            tr = self._tracer
            tr.add("gateway.calls")
            tr.add(f"gateway.calls.{request.template}")
            if requests == 0:
                tr.add("gateway.hits")
            tr.add("gateway.retries", max(0, requests - 1))
            tr.add("gateway.self_s", elapsed - provider_s)


class TracedInnerEmbedder:
    """The embedder behind the cache: each call here is a cache miss."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.id = inner.id
        self.dim = inner.dim
        self.tracer = tracer

    def embed(self, text: str):
        start = time.perf_counter()
        try:
            return self.inner.embed(text)
        finally:
            self.tracer.add("retrieval.embed_misses")
            self.tracer.add("retrieval.embed_miss_s", time.perf_counter() - start)


class TracedEmbedder:
    """Counts every embed call the grid and the indexes make."""

    def __init__(self, embedder, tracer: Tracer):
        self.embedder = embedder
        self.id = embedder.id
        self.dim = embedder.dim
        self.tracer = tracer

    def embed(self, text: str):
        self.tracer.add("retrieval.embed_calls")
        return self.embedder.embed(text)


def _timed_search(index, tracer: Tracer):
    search = index.search
    rows = len(index)

    def timed(query_vec, k):
        start = time.perf_counter()
        try:
            return search(query_vec, k)
        finally:
            tracer.add("retrieval.search_calls")
            tracer.add("retrieval.search_rows", rows)
            tracer.add("retrieval.search_s", time.perf_counter() - start)

    return timed


def _timed_index_build(build, tracer: Tracer):
    def timed(corpus, embedder):
        with tracer.span("retrieval.index_build"):
            index = build(corpus, embedder)
        tracer.add("retrieval.index_builds")
        tracer.add("retrieval.index_rows", len(index))
        index.search = _timed_search(index, tracer)
        return index

    return timed


def _timed_cell(run_experiment, tracer: Tracer):
    def timed(spec, *args, **kwargs):
        start = time.perf_counter()
        with tracer.span(f"evaluation.cell.{spec.pipeline.value}"):
            try:
                return run_experiment(spec, *args, **kwargs)
            finally:
                tracer.sample("evaluation.cell_s", time.perf_counter() - start)

    return timed


def instrument(tracer: Tracer, gateway, embedder):
    """Install the wrappers; returns the (gateway, embedder) to hand over.

    Patches the names `corpusgap.evaluation` looks up for index builds and
    grid cells; the traced process is thrown away after one study.
    """
    from corpusgap import evaluation

    provider = TracedProvider(gateway.provider, tracer)
    gateway.provider = provider
    embedder.inner = TracedInnerEmbedder(embedder.inner, tracer)
    evaluation.build_document_index = _timed_index_build(evaluation.build_document_index, tracer)
    evaluation.build_chunk_index = _timed_index_build(evaluation.build_chunk_index, tracer)
    evaluation.run_experiment = _timed_cell(evaluation.run_experiment, tracer)
    return TracedGateway(gateway, provider, tracer), TracedEmbedder(embedder, tracer)


def quantile(values: list[float], q: float) -> float:
    """The q-th percentile (q in 0.01..0.99) of values; 0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


PIPELINES = ("baseline", "hierarchical", "reranking", "query_transformation")
TEMPLATES = ("usefulness_rubric", "rewrite_query", "classify_subtopics")
SPAN_TOTALS = {
    "corpus.ingest_s": "corpus.ingest",
    "config.make_gateway_s": "config.make_gateway",
    "config.make_embedder_s": "config.make_embedder",
    "annotate.label_batch_s": "annotate.label_batch",
    "gaps.analyze_s": "gaps.analyze",
    "planner.score_pool_s": "planner.score_pool",
    "planner.ladder_build_s": "planner.ladder_build",
    "retrieval.index_build_s": "retrieval.index_build",
    "evaluation.report_s": "evaluation.report",
    **{f"evaluation.pipeline_s.{p}": f"evaluation.cell.{p}" for p in PIPELINES},
}
COUNTERS = (
    "corpus.records", "annotate.items", "annotate.failed", "gaps.judge_calls",
    "planner.score_pool_judge_calls", "gateway.calls",
    *(f"gateway.calls.{t}" for t in TEMPLATES),
    "gateway.hits", "gateway.self_s", "gateway.retries", "gateway.parse_failures",
    "providers.requests", "providers.busy_s", "providers.max_inflight",
    "retrieval.embed_calls", "retrieval.embed_misses", "retrieval.embed_miss_s",
    "retrieval.index_builds", "retrieval.index_rows", "retrieval.search_calls",
    "retrieval.search_rows", "retrieval.search_s", "evaluation.cells",
    "evaluation.cells_incomplete",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced study, named `<module>.<metric>`."""
    out = {name: tracer.span_total(span) for name, span in SPAN_TOTALS.items()}
    out.update({name: tracer.counts.get(name, 0.0) for name in COUNTERS})
    calls = out["gateway.calls"]
    out["gateway.hit_ratio"] = out["gateway.hits"] / calls if calls else 0.0
    latency = tracer.samples.get("providers.latency_ms", [])
    out["providers.latency_ms_p50"] = quantile(latency, 0.50)
    out["providers.latency_ms_p99"] = quantile(latency, 0.99)
    cells = tracer.samples.get("evaluation.cell_s", [])
    out["evaluation.cell_s_p50"] = quantile(cells, 0.50)
    out["evaluation.cell_s_max"] = max(cells, default=0.0)
    return out
