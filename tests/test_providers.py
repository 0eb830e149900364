from __future__ import annotations

import http.server
import json
import os
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpusgap import providers as providers_module
from corpusgap.gateway import CompletionRequest, ProviderError, ProviderParams, format_judge_score
from corpusgap.providers import HttpEmbedder, HttpProvider, MockProvider, stable_hash, token_counts


def stub(status=200, payload=None):
    """A transport that answers every POST with `status` and the JSON of
    `payload`."""
    body = json.dumps(payload or {}).encode("utf-8")
    return lambda url, data, headers, timeout: (status, body)


def completion_payload(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def req(template="rewrite_query", **bindings) -> CompletionRequest:
    return CompletionRequest(template=template, bindings=bindings, params=ProviderParams(model="m1"))


class TestHttpProvider:
    def test_posts_prompt_and_parses_content(self):
        seen = {}

        def transport(url, data, headers, timeout):
            seen.update(url=url, body=json.loads(data))
            return 200, json.dumps(completion_payload("rewritten text")).encode("utf-8")

        provider = HttpProvider("https://api.example/v1", model="m1", transport=transport)
        out = provider.generate(req(query="raw"), "PROMPT")
        assert out == "rewritten text"
        assert seen["url"] == "https://api.example/v1/chat/completions"
        assert seen["body"]["messages"] == [{"role": "user", "content": "PROMPT"}]
        assert seen["body"]["model"] == "m1"

    def test_api_key_header_from_env(self, monkeypatch):
        seen = {}

        def transport(url, data, headers, timeout):
            seen.update(headers=headers)
            return 200, json.dumps(completion_payload("x")).encode("utf-8")

        monkeypatch.setenv("CORPUSGAP_API_KEY", "sk-test")
        provider = HttpProvider("https://api.example", model="m1", transport=transport)
        provider.generate(req(query="q"), "p")
        assert seen["headers"]["Authorization"] == "Bearer sk-test"

    def test_server_error_raises_provider_error(self):
        provider = HttpProvider(
            "https://api.example", model="m1", transport=stub(503)
        )
        with pytest.raises(ProviderError, match="server error 503"):
            provider.generate(req(query="q"), "p")

    def test_transport_exception_wrapped(self):
        def transport(*args):
            raise ConnectionRefusedError("refused")

        provider = HttpProvider("https://api.example", model="m1", transport=transport)
        with pytest.raises(ProviderError, match="transport failure"):
            provider.generate(req(query="q"), "p")

    def test_malformed_body_raises(self):
        provider = HttpProvider(
            "https://api.example",
            model="m1",
            transport=stub(payload={"nope": []}),
        )
        with pytest.raises(ProviderError, match="malformed"):
            provider.generate(req(query="q"), "p")


class TestHttpEmbedder:
    def test_normalizes_returned_vector(self):
        def transport(url, data, headers, timeout):
            assert url.endswith("/embeddings")
            return 200, json.dumps({"data": [{"embedding": [3.0, 4.0]}]}).encode("utf-8")

        embedder = HttpEmbedder("https://api.example", model="e1", dim=2, transport=transport)
        vec = embedder.embed("hello")
        assert np.allclose(vec, [0.6, 0.8])

    def test_wrong_dimension_rejected(self):
        embedder = HttpEmbedder(
            "https://api.example",
            model="e1",
            dim=3,
            transport=stub(payload={"data": [{"embedding": [1.0, 0.0]}]}),
        )
        with pytest.raises(ProviderError, match="dim"):
            embedder.embed("hello")

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [float("nan"), 1.0]])
    def test_zero_or_nan_vector_rejected(self, vector):
        embedder = HttpEmbedder(
            "https://api.example",
            model="e1",
            dim=2,
            transport=stub(payload={"data": [{"embedding": vector}]}),
        )
        with pytest.raises(ProviderError, match="norm"):
            embedder.embed("hello")

    def test_bad_status_rejected(self):
        embedder = HttpEmbedder(
            "https://api.example", model="e1", dim=2, transport=stub(401)
        )
        with pytest.raises(ProviderError, match="status 401"):
            embedder.embed("hello")

    @pytest.mark.parametrize(
        "payload", [{"nope": []}, {"data": []}, {"data": [{}]}, {"data": [{"embedding": "x"}]}]
    )
    def test_malformed_body_raises(self, payload):
        embedder = HttpEmbedder(
            "https://api.example",
            model="e1",
            dim=2,
            transport=stub(payload=payload),
        )
        with pytest.raises(ProviderError, match="malformed"):
            embedder.embed("hello")


class FlakyTransport:
    """Fails its first `failures` posts with `error`, an exception to raise
    or a stub transport to answer with, then answers [3, 4]."""

    def __init__(self, failures: int, error=None):
        self.failures = failures
        self.error = error or ConnectionResetError("blip")
        self.posts = 0

    def __call__(self, *args):
        self.posts += 1
        if self.posts <= self.failures:
            if isinstance(self.error, Exception):
                raise self.error
            return self.error(*args)
        return stub(payload={"data": [{"embedding": [3.0, 4.0]}]})(*args)


class TestHttpEmbedderRetries:
    @pytest.mark.parametrize("error", [ConnectionResetError("blip"), stub(503)], ids=["transport", "5xx"])
    def test_one_failure_then_the_clean_vector(self, error):
        clean = HttpEmbedder("https://api.example", model="e1", dim=2, transport=FlakyTransport(0)).embed("hi")
        waits = []
        transport = FlakyTransport(1, error)
        embedder = HttpEmbedder("https://api.example", model="e1", dim=2, transport=transport, sleep=waits.append)
        assert np.array_equal(embedder.embed("hi"), clean)
        assert transport.posts == 2 and waits == [1.0]

    def test_three_failures_give_one_error_naming_the_attempts(self):
        waits = []
        transport = FlakyTransport(3)
        embedder = HttpEmbedder("https://api.example", model="e1", dim=2, transport=transport, sleep=waits.append)
        with pytest.raises(ProviderError, match="embedder 'http:e1' failed after 3 attempts: transport failure: blip"):
            embedder.embed("hi")
        assert transport.posts == 3 and waits == [1.0, 2.0]

    @pytest.mark.parametrize(
        "reply",
        [
            stub(payload={"data": [{"embedding": [1.0, 0.0, 0.0]}]}),
            stub(payload={"data": [{"embedding": [0.0, 0.0]}]}),
            stub(payload={"data": []}),
            stub(401),
        ],
        ids=["wrong-dim", "zero-norm", "malformed", "401"],
    )
    def test_a_malformed_or_refused_reply_is_not_retried(self, reply):
        waits = []
        transport = FlakyTransport(1, reply)
        embedder = HttpEmbedder("https://api.example", model="e1", dim=2, transport=transport, sleep=waits.append)
        with pytest.raises(ProviderError):
            embedder.embed("hi")
        assert transport.posts == 1 and waits == []


class _ReplyHandler(http.server.BaseHTTPRequestHandler):
    """Records each POST on the server and answers with the server's next
    (status, body) reply."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers, body))
        status, reply = self.server.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


class TestUrllibTransport:
    """The stdlib transport against a real HTTP server on 127.0.0.1."""

    @pytest.fixture
    def server(self):
        server = http.server.HTTPServer(("127.0.0.1", 0), _ReplyHandler)
        server.seen, server.replies = [], []
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @staticmethod
    def url(server):
        return f"http://127.0.0.1:{server.server_address[1]}/v1"

    def test_a_200_reply_parses_and_the_bearer_header_arrives(self, server, monkeypatch):
        monkeypatch.setenv("CORPUSGAP_API_KEY", "sk-test")
        server.replies.append((200, json.dumps(completion_payload("rewritten text")).encode("utf-8")))
        provider = HttpProvider(self.url(server), model="m1", timeout=10)
        assert provider.generate(req(query="raw"), "PROMPT") == "rewritten text"
        ((path, headers, body),) = server.seen
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["messages"] == [{"role": "user", "content": "PROMPT"}]

    def test_a_503_reply_is_a_server_error_the_embedder_retries(self, server):
        server.replies.append((503, b"busy"))
        with pytest.raises(ProviderError, match="server error 503"):
            HttpProvider(self.url(server), model="m1", timeout=10).generate(req(query="q"), "p")
        server.replies += [(503, b"busy"), (200, json.dumps({"data": [{"embedding": [3.0, 4.0]}]}).encode("utf-8"))]
        waits = []
        embedder = HttpEmbedder(self.url(server), model="e1", dim=2, timeout=10, sleep=waits.append)
        assert np.allclose(embedder.embed("hello"), [0.6, 0.8])
        assert len(server.seen) == 3 and waits == [1.0]

    def test_a_401_reply_is_refused_and_not_retried(self, server):
        server.replies += [(401, b"bad key"), (401, b"bad key")]
        with pytest.raises(ProviderError, match="unexpected status 401: bad key"):
            HttpProvider(self.url(server), model="m1", timeout=10).generate(req(query="q"), "p")
        waits = []
        embedder = HttpEmbedder(self.url(server), model="e1", dim=2, timeout=10, sleep=waits.append)
        with pytest.raises(ProviderError, match="unexpected status 401: bad key"):
            embedder.embed("hello")
        assert len(server.seen) == 2 and waits == []

    def test_a_body_that_is_not_json_is_malformed(self, server):
        server.replies.append((200, b"<html>oops</html>"))
        with pytest.raises(ProviderError, match="malformed provider response"):
            HttpProvider(self.url(server), model="m1", timeout=10).generate(req(query="q"), "p")

    def test_a_refused_connection_is_a_transport_failure(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        provider = HttpProvider(f"http://127.0.0.1:{port}", model="m1", timeout=10)
        with pytest.raises(ProviderError, match="transport failure"):
            provider.generate(req(query="q"), "p")


class TestMockProviderRouting:
    def test_unknown_template_is_deterministic(self):
        request = CompletionRequest(template="mystery", bindings={})
        a = MockProvider(seed=1).generate(request, "prompt")
        b = MockProvider(seed=1).generate(request, "prompt")
        assert a == b and a.startswith("mock-response-")

    def test_call_counters_by_template(self):
        provider = MockProvider(seed=0)
        provider.generate(CompletionRequest(template="rewrite_query", bindings={"query": "x"}), "")
        provider.generate(CompletionRequest(template="rewrite_query", bindings={"query": "y"}), "")
        assert provider.calls == 2
        assert provider.calls_by_template == {"rewrite_query": 2}


# The mock's replies as first written: every text tokenised afresh on
# every request, and once per subtopic when classifying.
def reference_token_overlap(query_text: str, doc_text: str) -> float:
    def counts(text):
        out = {}
        for token in re.findall(r"\w+", text.lower()):
            out[token] = out.get(token, 0) + 1
        return out

    query_counts = counts(query_text)
    total = sum(query_counts.values())
    if total == 0:
        return 0.0
    doc_counts = counts(doc_text)
    return sum(min(n, doc_counts.get(tok, 0)) for tok, n in query_counts.items()) / total


def reference_judge_reply(query_text: str, doc_text: str, seed: int) -> str:
    base = round(100 * reference_token_overlap(query_text, doc_text))
    perturbation = stable_hash(str(seed), query_text, doc_text) % 7 - 3
    return format_judge_score(max(1, min(100, base + perturbation)))


def reference_classify_reply(subtopics_text: str, text: str, seed: int) -> str:
    subtopics = [s for s in subtopics_text.splitlines() if s.strip()]
    scored = []
    for position, subtopic in enumerate(subtopics):
        overlap = reference_token_overlap(subtopic, text)
        if overlap > 0:
            scored.append((-overlap, position, subtopic))
    scored.sort()
    chosen = [s for _, _, s in scored[:3]]
    if not chosen:
        chosen = [subtopics[stable_hash(str(seed), text) % len(subtopics)]]
    weights = {1: [1.0], 2: [0.7, 0.3], 3: [0.7, 0.2, 0.1]}[len(chosen)]
    payload = {s: w for s, w in zip(chosen, weights)}
    return "\n".join([json.dumps(payload, ensure_ascii=False), f"Primary subtopic: {chosen[0]}"])


# Mixed case, Unicode whose lower-casing changes length or script (İ, ẞ,
# Σ, ǅ), digits and underscores (word characters), and punctuation.
WORDS = ["calm", "Calm", "CALM", "night", "Straße", "STRASSE", "İstanbul", "ẞ", "ΣΟΦΊΑ", "σοφία",
         "ǅemal", "naïve", "x_1", "42", "über"]
texts = st.lists(
    st.one_of(st.sampled_from(WORDS), st.sampled_from([" ", "  ", ", ", "! ", "—", "\n", "...", "'"]), st.text(max_size=6)),
    max_size=12,
).map("".join)


class TestMockGenerateMany:
    REQUESTS = [
        CompletionRequest("usefulness_rubric", {"user_query": "calm night", "retrieved_document": "a calm night routine"}),
        CompletionRequest("usefulness_rubric", {"user_query": "calm night", "retrieved_document": "panic at night"}),
        CompletionRequest("usefulness_rubric", {"user_query": "grief", "retrieved_document": "a calm night routine"}),
        CompletionRequest("classify_subtopics", {"subtopics": "Calm night\nGrief", "text": "grief after loss"}),
        CompletionRequest("rewrite_query", {"query": " cant sleep "}),
        CompletionRequest("generate_article", {"metadata": json.dumps({"title": "Sleep", "headers": ["One"], "word_count": 30})}),
        CompletionRequest("echo", {"word": "hi"}),
        CompletionRequest("usefulness_rubric", {"user_query": "calm night", "retrieved_document": "a calm night routine"}),
    ]

    def test_equals_generate_one_request_at_a_time(self):
        rendered = []

        def render(request):
            rendered.append(request)
            return f"prompt of {request.template}"

        batch, single = MockProvider(seed=3), MockProvider(seed=3)
        replies = batch.generate_many(self.REQUESTS, render)
        assert replies == [single.generate(r, f"prompt of {r.template}") for r in self.REQUESTS]
        assert replies[0] == replies[-1] != replies[1]
        # Only the template the mock does not route needs its prompt.
        assert rendered == [self.REQUESTS[6]]
        assert (batch.calls, batch.calls_by_template) == (single.calls, single.calls_by_template)
        assert batch.calls_by_template == {
            "usefulness_rubric": 4, "classify_subtopics": 1, "rewrite_query": 1, "generate_article": 1, "echo": 1,
        }

    def test_a_failing_request_fails_in_place(self):
        bad = CompletionRequest("generate_article", {"metadata": "not json"})
        replies = MockProvider(seed=0).generate_many([self.REQUESTS[4], bad, self.REQUESTS[4]], lambda r: "")
        assert replies[0] == replies[2] == "cant sleep coping strategies and support"
        assert isinstance(replies[1], ValueError)
        with pytest.raises(ValueError):
            MockProvider(seed=0).generate(bad, "")


class TestMockProviderMatchesReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(query=texts, docs=st.lists(texts, min_size=1, max_size=4), seed=st.integers(0, 5))
    def test_judge_replies_equal_per_call_tokenising(self, query, docs, seed):
        provider = MockProvider(seed=seed)
        for doc in docs + docs:  # the second pass reads the memo
            request = CompletionRequest("usefulness_rubric", {"user_query": query, "retrieved_document": doc})
            assert provider.generate(request, "") == reference_judge_reply(query, doc, seed)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        subtopics=st.lists(texts, max_size=5).map(lambda extra: ["Calm night"] + extra),
        text=texts,
        seed=st.integers(0, 5),
    )
    def test_classify_replies_equal_per_call_tokenising(self, subtopics, text, seed):
        subtopics_text = "\n".join(s.replace("\n", " ") for s in subtopics)
        request = CompletionRequest("classify_subtopics", {"subtopics": subtopics_text, "text": text})
        assert MockProvider(seed=seed).generate(request, "") == reference_classify_reply(subtopics_text, text, seed)

    def test_classify_tokenises_its_text_once(self, monkeypatch):
        seen = []

        def spy(text):
            seen.append(text)
            return token_counts(text)

        monkeypatch.setattr(providers_module, "token_counts", spy)
        text = "Calm night routines help with sleep and calm breathing"
        subtopics = ["calm breathing", "sleep hygiene", "night routines", "panic", "grief"]
        request = CompletionRequest("classify_subtopics", {"subtopics": "\n".join(subtopics), "text": text})
        reply = MockProvider(seed=0).generate(request, "")
        assert reply == reference_classify_reply("\n".join(subtopics), text, 0)
        assert seen.count(text) == 1
        assert sorted(seen) == sorted(subtopics + [text])

    def test_subtopic_lines_tokenised_once_per_list(self, monkeypatch):
        seen = []

        def spy(text):
            seen.append(text)
            return token_counts(text)

        monkeypatch.setattr(providers_module, "token_counts", spy)
        provider = MockProvider(seed=0)
        lists = [["calm breathing", "sleep hygiene"], ["calm breathing", "sleep hygiene"], ["grief", "calm night"]]
        texts = ["calm breathing at night", "sleep and calm", "calm night grief"]
        for subtopics, text in zip(lists, texts):
            request = CompletionRequest("classify_subtopics", {"subtopics": "\n".join(subtopics), "text": text})
            assert provider.generate(request, "") == reference_classify_reply("\n".join(subtopics), text, 0)
        # The second request reuses the first list's counts; the third
        # list differs, so its lines are tokenised.
        assert seen == [*lists[0], texts[0], texts[1], *lists[2], texts[2]]

    def test_query_major_batch_tokenises_each_query_once(self):
        docs = [f"document {i} about calm night number {i}" for i in range(50)]
        queries = ["calm night", "document about", "night"]
        providers_module._query_token_counts.cache_clear()
        provider = MockProvider(seed=1)
        for query in queries:
            for doc in docs:
                request = CompletionRequest("usefulness_rubric", {"user_query": query, "retrieved_document": doc})
                assert provider.generate(request, "") == reference_judge_reply(query, doc, 1)
        info = providers_module._query_token_counts.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (3, 147, 4096)

    def test_query_major_batch_tokenises_each_document_once(self):
        # A judge batch holds every document once per query; at paper scale
        # the largest holds 739 documents, which the memo must keep whole.
        docs = [f"document {i} about calm night number {i}" for i in range(800)]
        providers_module._doc_token_counts.cache_clear()
        provider = MockProvider(seed=1)
        for query in ["calm night", "document about", "night"]:
            for doc in docs:
                provider.generate(CompletionRequest("usefulness_rubric", {"user_query": query, "retrieved_document": doc}), "")
        info = providers_module._doc_token_counts.cache_info()
        assert (info.misses, info.hits) == (800, 1600)


def test_cli_import_leaves_http_libraries_unloaded():
    # Only the HTTP clients need an HTTP library, and `urllib.request` is
    # slow to import.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, corpusgap.cli; print([m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
