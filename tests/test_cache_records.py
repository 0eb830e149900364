"""Cache files keep their bytes.

Every line `AppendLog` writes, for completions and embeddings alike, is
`json.dumps(record, ensure_ascii=False, sort_keys=True)` plus a newline,
though the gateway and `CachedEmbedder` now write their lines from parts.
A cache whose lines `json.dumps` wrote, as earlier versions wrote them,
loads with no provider or embedder call, and the cache a run writes now is
those lines byte for byte.
"""

from __future__ import annotations

import base64
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from corpusgap.annotate import label_batch
from corpusgap.corpus import AppendLog
from corpusgap.gateway import (
    CompletionRequest,
    Gateway,
    PromptTemplate,
    make_gateway_judge,
    make_gateway_rewriter,
)
from corpusgap.providers import MockProvider
from corpusgap.retrieval import CachedEmbedder, build_chunk_index, build_document_index

from .world import build_world, world_embedder

# Characters JSON must escape or that tempt an encoder to: quotes,
# backslashes, newlines, line and paragraph separators, control
# characters, non-ASCII and astral characters, braces and a slash.
SPECIAL = [
    '"', "\\", "\n", "\r", "\t", "\u2028", "\u2029", "\x00", "\x1f", "\x7f", "\u00e9",
    "\u4e2d", "\U0001f600", "{", "}", "/", " ",
]
texts = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_categories=("Cs",))), max_size=20)


def dumps_line(record: dict) -> str:
    """A record's line as earlier versions wrote it."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


class ReplyProvider:
    def __init__(self, id: str, reply: str):
        self.id = id
        self.reply = reply
        self.calls = 0

    def generate(self, request, prompt):
        self.calls += 1
        return self.reply


class VectorEmbedder:
    def __init__(self, id: str, vector: np.ndarray):
        self.id = id
        self.dim = len(vector)
        self.vector = vector
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.vector.copy()


class TestRecordBytes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        records=st.lists(
            st.dictionaries(
                texts,
                st.one_of(texts, st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(), st.lists(texts, max_size=3)),
                max_size=4,
            ),
            min_size=1, max_size=3,
        )
    )
    def test_dict_record_line(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.jsonl"
            log = AppendLog(path, lambda *_: None)
            for i, record in enumerate(records):
                log.put(i, record, record)
            log.close()
            assert path.read_text(encoding="utf-8") == "".join(map(dumps_line, records))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(provider_id=texts, template=texts, word=texts, reply=texts)
    def test_completion_line(self, provider_id, template, word, reply):
        templates = {template: PromptTemplate(name=template, body="say {word}")}
        request = CompletionRequest(template, {"word": word})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "completions.jsonl"
            gateway = Gateway(ReplyProvider(provider_id, reply), templates, cache_path=path)
            assert gateway.complete_parsed(request, str) == reply
            gateway.close()
            key = request.cache_key(provider_id, templates[template].body_sha)
            assert path.read_text(encoding="utf-8") == dumps_line(
                {"key": key, "template": template, "response": reply}
            )
            provider = ReplyProvider(provider_id, "never sent")
            reloaded = Gateway(provider, templates, cache_path=path)
            assert reloaded.complete_parsed(request, str) == reply and provider.calls == 0
            reloaded.close()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        provider_id=texts,
        text=texts,
        values=st.lists(st.floats(width=64), min_size=3, max_size=3),
    )
    def test_embedding_line(self, provider_id, text, values):
        vector = np.array(values, dtype=np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "embeddings.jsonl"
            embedder = CachedEmbedder(VectorEmbedder(provider_id, vector), path)
            embedder.embed(text)
            embedder.close()
            assert path.read_text(encoding="utf-8") == dumps_line({
                "provider": provider_id,
                "text_sha": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "vector_b64": base64.b64encode(vector.astype("<f8").tobytes()).decode("ascii"),
            })
            inner = VectorEmbedder(provider_id, np.zeros_like(vector))
            reloaded = CachedEmbedder(inner, path)
            assert reloaded.embed(text).tobytes() == vector.tobytes() and inner.calls == 0
            reloaded.close()


class RecordingProvider(MockProvider):
    """The mock provider, keeping each (request, reply) it sends."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.sent = []

    def generate_many(self, requests, render):
        replies = super().generate_many(requests, render)
        self.sent.extend(zip(requests, replies))
        return replies


class RecordingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.id = inner.id
        self.dim = inner.dim
        self.sent = []

    def embed(self, text):
        vec = self.inner.embed(text)
        self.sent.append((text, vec))
        return vec


def small_study(gateway: Gateway, embedder: CachedEmbedder) -> tuple:
    """Classify, judge and rewrite requests and document and chunk
    embeddings over the tests' world; returns what each gave."""
    world = build_world(seed=0)
    labelings, failures = label_batch([(q.id, q.text) for q in world.train_queries[:12]], world.taxonomy, gateway)
    assert not failures
    queries = [q.text for q in world.test_queries[:4]]
    scores = make_gateway_judge(gateway)([(q, doc) for q in queries for doc in world.baseline.documents[:6]])
    rewrites = make_gateway_rewriter(gateway)(queries)
    documents = build_document_index(world.baseline, embedder)
    chunks = build_chunk_index(world.baseline, embedder)
    return labelings, scores, rewrites, documents.matrix.tobytes(), chunks.matrix.tobytes()


def earlier_format_files(provider: RecordingProvider, templates: dict, embedder: RecordingEmbedder) -> tuple[str, str]:
    """The completion and embedding caches an earlier version wrote for
    these requests and embeddings: each record built as it built them and
    written with `json.dumps`, in the order they were made."""
    completions = "".join(
        dumps_line({
            "key": request.cache_key(provider.id, templates[request.template].body_sha),
            "template": request.template,
            "response": reply,
        })
        for request, reply in provider.sent
    )
    embeddings = "".join(
        dumps_line({
            "provider": embedder.id,
            "text_sha": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "vector_b64": base64.b64encode(vec.astype("<f8").tobytes()).decode("ascii"),
        })
        for text, vec in embedder.sent
    )
    return completions, embeddings


class FailingProvider:
    id = "mock-0"

    def generate(self, request, prompt):
        raise AssertionError(f"provider called for {request.template}")


class FailingEmbedder:
    def __init__(self):
        inner = world_embedder()
        self.id, self.dim = inner.id, inner.dim

    def embed(self, text):
        raise AssertionError("embedder called")


class TestEarlierFormat:
    def run_recorded(self, cache: Path):
        cache.mkdir()
        provider, inner = RecordingProvider(seed=0), RecordingEmbedder(world_embedder())
        gateway = Gateway(provider, cache_path=cache / "completions.jsonl")
        embedder = CachedEmbedder(inner, cache / "embeddings.jsonl")
        outputs = small_study(gateway, embedder)
        gateway.close()
        embedder.close()
        assert provider.sent and inner.sent
        return outputs, earlier_format_files(provider, gateway.templates, inner)

    def test_written_cache_is_the_earlier_format(self, tmp_path):
        _, (completions, embeddings) = self.run_recorded(tmp_path / "cache")
        assert (tmp_path / "cache" / "completions.jsonl").read_text(encoding="utf-8") == completions
        assert (tmp_path / "cache" / "embeddings.jsonl").read_text(encoding="utf-8") == embeddings

    def test_earlier_format_cache_loads_without_misses(self, tmp_path):
        outputs, (completions, embeddings) = self.run_recorded(tmp_path / "cache")
        earlier = tmp_path / "earlier-cache"
        earlier.mkdir()
        (earlier / "completions.jsonl").write_text(completions, encoding="utf-8")
        (earlier / "embeddings.jsonl").write_text(embeddings, encoding="utf-8")
        gateway = Gateway(FailingProvider(), cache_path=earlier / "completions.jsonl")
        embedder = CachedEmbedder(FailingEmbedder(), earlier / "embeddings.jsonl")
        assert small_study(gateway, embedder) == outputs
        gateway.close()
        embedder.close()
        # Nothing was appended: every request and text was a hit.
        assert (earlier / "completions.jsonl").read_text(encoding="utf-8") == completions
        assert (earlier / "embeddings.jsonl").read_text(encoding="utf-8") == embeddings
