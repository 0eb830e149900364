"""Model backends: a deterministic mock provider and embedder, and the
HTTP clients.

The mock provider's responses are pure functions of (request, seed). It
answers a batch in one `generate_many` call, which tells the gateway that
it runs in this process, and `generate` is that call for one request. It
routes on template name so every prompt in the pipeline (classification,
judging, rewriting, article generation) gets a plausible, parseable reply;
only an unrouted template's reply is computed from the rendered prompt.
Classification tokenises the text once per request and scores every
subtopic against those counts; the subtopic lines' own counts are kept for
the last subtopic list seen (one entry), so a study tokenises its taxonomy
once.

`mock_query_score` is the deterministic stand-in judge that `MockProvider`
answers usefulness prompts with, for a query that `mock_query` prepared
once per batch: its token counts and the hash state of its perturbation
prefix. It tokenises each document text once while the text stays in a
bounded memo of token counts (4,096 texts, `_DOC_TOKENS_MEMO`), and each
query text likewise (4,096 texts, `_QUERY_TOKENS_MEMO`), so the judge's
cost follows the number of distinct texts, not of requests; scores are
those of tokenising afresh. `HashedBagEmbedder`, the mock embedder, hashes
the same lower-cased `\\w+` tokens into a bag of counts.

`HttpProvider` (chat completions) and `HttpEmbedder` (embeddings) talk to
an OpenAI-style endpoint through one POST helper over stdlib
`urllib.request`, which adds the bearer header and turns a transport
failure, a bad status or a malformed body into `ProviderError`
(`TransientProviderError` for a transport failure or a server error, which
the embedder retries with `with_retries`). `urllib.request` is imported
on the first POST, so importing the CLI loads no HTTP library.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import sys
import threading
import time
from typing import Callable, Sequence, TypeVar

import numpy as np

from .gateway import (
    BACKOFF_BASE_S,
    JUDGE_MAX,
    JUDGE_MIN,
    RETRIES,
    CompletionRequest,
    ProviderError,
    TransientProviderError,
    format_judge_score,
)

T = TypeVar("T")

# The tokens of the mock judge and the mock embedder.
_TOKEN_RE = re.compile(r"\w+")
# Documents whose token counts the mock judge keeps. A judge batch is
# query-major, so every document of a batch recurs once per query; the
# bound covers the largest batch at paper scale (739 pool documents in
# one subtopic), where a smaller memo would evict each document before
# the next query reaches it.
_DOC_TOKENS_MEMO = 4096
# Query texts whose token counts the mock judge keeps: a judge batch asks
# each query once per candidate, and a study holds far fewer queries.
_QUERY_TOKENS_MEMO = 4096


def token_counts(text: str) -> dict[str, int]:
    """Multiset of the lower-cased `\\w+` tokens of `text`."""
    counts: dict[str, int] = {}
    for token in _TOKEN_RE.findall(text.lower()):
        counts[token] = counts.get(token, 0) + 1
    return counts


def _interned_token_counts(text: str) -> dict[str, int]:
    """`token_counts` with its tokens interned, so a memo of them holds
    each distinct token's string once."""
    return {sys.intern(token): n for token, n in token_counts(text).items()}


def query_tokens(text: str) -> tuple[dict[str, int], int]:
    """The interned token counts of a query text and their total."""
    counts = _interned_token_counts(text)
    return counts, sum(counts.values())


# `token_counts` of document texts and `query_tokens` of query texts, each
# in its own bounded memo. Every caller gets the same dict, so none may
# change it.
_doc_token_counts = functools.lru_cache(maxsize=_DOC_TOKENS_MEMO)(_interned_token_counts)
_query_token_counts = functools.lru_cache(maxsize=_QUERY_TOKENS_MEMO)(query_tokens)


def counts_overlap(query: tuple[dict[str, int], int], doc_counts: dict[str, int]) -> float:
    """Multiset containment of a query's token counts, given with their
    total as `query_tokens` gives them, in the document's, in [0, 1]; 0
    for a query without tokens."""
    query_counts, total = query
    if total == 0:
        return 0.0
    matched = 0
    for token, n in query_counts.items():
        have = doc_counts.get(token, 0)
        matched += n if n < have else have
    return matched / total


def mock_query(query_text: str, seed: int) -> tuple:
    """What `mock_query_score` needs of a query, to be worked out once per query:
    its token counts with their total, and the sha256 state of its
    perturbation hash up to the document text."""
    return _query_token_counts(query_text), hashlib.sha256(f"{seed}\x1f{query_text}\x1f".encode("utf-8"))


def mock_query_score(query: tuple, doc_text: str) -> int:
    """The deterministic stand-in judge's score of a document for a query
    that `mock_query` prepared: scaled token overlap with a small
    perturbation in [-3, 3], `stable_hash(str(seed), query text, document
    text) % 7 - 3`, clamped to [1, 100]."""
    tokens, prefix = query
    digest = prefix.copy()
    digest.update(doc_text.encode("utf-8"))
    perturbation = int.from_bytes(digest.digest(), "big") % 7 - 3
    base = round(100 * counts_overlap(tokens, _doc_token_counts(doc_text)))
    return max(JUDGE_MIN, min(JUDGE_MAX, base + perturbation))


def stable_hash(*parts: str) -> int:
    """Deterministic cross-platform hash of the joined parts."""
    return int.from_bytes(hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest(), "big")


# The judge's reply for each score, `format_judge_score` of it. The
# completion cache holds every reply it stores, so judge replies that are
# one of these 100 strings cost it no memory of their own (0.6 MB of a
# bench-size cold study's peak RSS).
_JUDGE_REPLIES = {score: format_judge_score(score) for score in range(JUDGE_MIN, JUDGE_MAX + 1)}

_FILLER_WORDS = (
    "support care steady gentle practice notice breathe ground pause reflect "
    "connect routine small step kind honest rest grow trust repair listen "
    "name feeling moment choice value habit plan reach talk share"
).split()


class MockProvider:
    """Seeded offline provider for tests and dry runs. Its replies are
    computed in this process, so it answers a whole batch in one
    `generate_many` call on the calling thread; `generate` is the
    one-request case of that call."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.id = f"mock-{seed}"
        self.calls = 0
        self.calls_by_template: dict[str, int] = {}
        self._lock = threading.Lock()
        self._subtopics: tuple[str, tuple] | None = None  # see _subtopic_lines

    def generate(self, request: CompletionRequest, prompt: str) -> str:
        (reply,) = self.generate_many([request], lambda _: prompt)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def generate_many(
        self, requests: Sequence[CompletionRequest], render: Callable[[CompletionRequest], str]
    ) -> list[str | Exception]:
        """The reply to each request, or in its place the exception it
        raised. Routes on template name; only a template it does not route
        is answered from its prompt, `render(request)`. A judge request
        works out its query's tokens and hash prefix once per batch
        (`mock_query`)."""
        replies: list[str | Exception] = []
        by_template: dict[str, int] = {}
        queries: dict[str, tuple] = {}  # query text -> mock_query of it
        for request in requests:
            template = request.template
            by_template[template] = by_template.get(template, 0) + 1
            try:
                if template == "usefulness_rubric":
                    reply = self._judge(request, queries)
                elif template == "classify_subtopics":
                    reply = self._classify(request)
                elif template == "rewrite_query":
                    reply = self._rewrite(request)
                elif template == "generate_article":
                    reply = self._article(request)
                else:
                    digest = stable_hash(str(self.seed), template, render(request))
                    reply = f"mock-response-{digest % 10**8:08d}"
            except Exception as exc:
                reply = exc
            replies.append(reply)
        with self._lock:
            self.calls += len(requests)
            for template, n in by_template.items():
                self.calls_by_template[template] = self.calls_by_template.get(template, 0) + n
        return replies

    def _subtopic_lines(self, subtopics_text: str) -> tuple[tuple[str, tuple[dict[str, int], int]], ...]:
        """Each non-blank line of a classify prompt's subtopic list with
        its token counts and their total. The lines of the last list seen
        are kept, as a study classifies every text against one taxonomy."""
        memo = self._subtopics
        if memo is None or memo[0] != subtopics_text:
            lines = []
            for line in subtopics_text.splitlines():
                if line.strip():
                    lines.append((line, query_tokens(line)))
            memo = self._subtopics = (subtopics_text, tuple(lines))
        return memo[1]

    def _classify(self, request: CompletionRequest) -> str:
        subtopics = self._subtopic_lines(request.bindings["subtopics"])
        text = request.bindings["text"]
        text_counts = token_counts(text)
        scored = []
        for position, (subtopic, counts) in enumerate(subtopics):
            overlap = counts_overlap(counts, text_counts)
            if overlap > 0:
                scored.append((-overlap, position, subtopic))
        scored.sort()
        chosen = [s for _, _, s in scored[:3]]
        if not chosen:
            chosen = [subtopics[stable_hash(str(self.seed), text) % len(subtopics)][0]]
        weights = {1: [1.0], 2: [0.7, 0.3], 3: [0.7, 0.2, 0.1]}[len(chosen)]
        payload = {s: w for s, w in zip(chosen, weights)}
        lines = [json.dumps(payload, ensure_ascii=False)]
        lines.append(f"Primary subtopic: {chosen[0]}")
        return "\n".join(lines)

    def _judge(self, request: CompletionRequest, queries: dict[str, tuple]) -> str:
        bindings = request.bindings
        query_text = bindings["user_query"]
        query = queries.get(query_text)
        if query is None:
            query = queries[query_text] = mock_query(query_text, self.seed)
        return _JUDGE_REPLIES[mock_query_score(query, bindings["retrieved_document"])]

    def _rewrite(self, request: CompletionRequest) -> str:
        query = request.bindings["query"].strip()
        return f"{query} coping strategies and support"

    def _article(self, request: CompletionRequest) -> str:
        meta = json.loads(request.bindings["metadata"])
        title = meta["title"]
        headers = meta.get("headers") or ["Overview"]
        target_words = int(meta["word_count"])
        out_title = f"Finding Your Way: {title}"
        out_headers = [f"{h} in Daily Life" for h in headers]
        fixed = len(out_title.split()) + sum(len(h.split()) for h in out_headers)
        body_budget = max(len(out_headers), target_words - fixed)
        per_section = body_budget // len(out_headers)
        leftover = body_budget - per_section * len(out_headers)
        lines = [f"# {out_title}"]
        for i, header in enumerate(out_headers):
            n_words = per_section + (1 if i < leftover else 0)
            start = stable_hash(str(self.seed), title, str(i))
            words = [
                _FILLER_WORDS[(start + j) % len(_FILLER_WORDS)] for j in range(n_words)
            ]
            lines.append(f"## {header}")
            lines.append(" ".join(words))
        return "\n".join(lines)


def _token_bucket(token: str, dim: int) -> int:
    """sha256 of the token mod dim."""
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return int(digest, 16) % dim


# Tokens whose buckets one HashedBagEmbedder keeps; a full memo is emptied.
_BUCKET_MEMO = 1 << 16


class HashedBagEmbedder:
    """Deterministic test embedder: tokens hashed into a fixed-dimension
    bag of counts, then L2-normalized.

    `embed` keeps each token's bucket in a plain dict of at most
    `_BUCKET_MEMO` tokens, emptied when full; vocabularies repeat, so most
    tokens cost one dict lookup."""

    def __init__(self, dim: int = 256):
        self.dim = dim
        self.id = f"hashed-bag-{dim}"
        self._buckets: dict[str, int] = {}

    def embed(self, text: str) -> np.ndarray:
        if not text.strip():
            raise ValueError("cannot embed empty text")
        memo, dim = self._buckets, self.dim
        buckets = []
        for token in _TOKEN_RE.findall(text.lower()):
            bucket = memo.get(token)
            if bucket is None:
                if len(memo) >= _BUCKET_MEMO:
                    memo.clear()
                bucket = memo[token] = _token_bucket(token, dim)
            buckets.append(bucket)
        vec = np.bincount(buckets, minlength=dim).astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("text produced no tokens to embed")
        return vec / norm


def with_retries(call: Callable[[], T], what: str, sleep: Callable[[float], None] = time.sleep) -> T:
    """call(), tried up to `RETRIES` times while it raises
    `TransientProviderError`, sleeping BACKOFF_BASE_S * 2**n after failed
    attempt n; then one ProviderError naming `what` and the attempt count.
    The gateway applies the same policy to a batch's misses in rounds
    (`Gateway.complete_keyed`)."""
    last_error: Exception | None = None
    for attempt in range(RETRIES):
        try:
            return call()
        except TransientProviderError as exc:
            last_error = exc
            if attempt < RETRIES - 1:
                sleep(BACKOFF_BASE_S * 2**attempt)
    raise ProviderError(f"{what} failed after {RETRIES} attempts: {last_error}") from last_error


def _urllib_post(url: str, body: bytes, headers: dict, timeout: float) -> tuple[int, bytes]:
    """The HTTP clients' transport: stdlib `urllib.request`, imported here,
    as it is slow to import and no other part of the program needs it. An
    error status is returned like any other."""
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        try:
            response = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            response = exc  # an error status, whose body is the reply
        with response:
            return response.status, response.read()
    except http.client.HTTPException as exc:
        raise OSError(f"{type(exc).__name__}: {exc}") from exc


class _HttpClient:
    """Shared configuration and POST helper of the HTTP clients.

    Endpoint and credentials come from config/environment. The transport,
    injectable for tests, POSTs (url, body, headers, timeout) and returns
    (status, reply body), raising OSError when the exchange fails. Every
    failure raises ProviderError, which the gateway retries with backoff;
    `HttpEmbedder` retries only the transient ones.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "CORPUSGAP_API_KEY",
        timeout: float = 60.0,
        transport: Callable[[str, bytes, dict, float], tuple[int, bytes]] = _urllib_post,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.id = f"http:{model}"
        self._post = transport

    def _post_json(self, route: str, payload: dict, extract: Callable[[object], T]) -> T:
        """POST payload as JSON to endpoint/route and return extract(JSON body)."""
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            status, body = self._post(
                f"{self.endpoint}/{route}", json.dumps(payload).encode("utf-8"), headers, self.timeout
            )
        except OSError as exc:
            raise TransientProviderError(f"transport failure: {exc}") from exc
        if status >= 500:
            raise TransientProviderError(f"server error {status}")
        if status != 200:
            raise ProviderError(f"unexpected status {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            return extract(json.loads(body))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc


class HttpProvider(_HttpClient):
    """OpenAI-style chat-completions client."""

    def generate(self, request: CompletionRequest, prompt: str) -> str:
        payload = {
            "model": request.params.model if request.params.model != "mock" else self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": request.params.temperature,
            "max_tokens": request.params.max_output_tokens,
        }
        return self._post_json(
            "chat/completions", payload, lambda body: body["choices"][0]["message"]["content"]
        )


class HttpEmbedder(_HttpClient):
    """OpenAI-style embeddings client; vectors are re-normalized.

    A transport failure or server error is retried with the gateway's
    policy (`with_retries`); a malformed reply is not."""

    def __init__(self, endpoint: str, model: str, dim: int, sleep: Callable[[float], None] = time.sleep, **kwargs):
        super().__init__(endpoint, model, **kwargs)
        self.dim = dim
        self._sleep = sleep

    def embed(self, text: str) -> np.ndarray:
        if not text.strip():
            raise ValueError("cannot embed empty text")
        vec = with_retries(
            lambda: self._post_json(
                "embeddings",
                {"model": self.model, "input": text},
                lambda body: np.asarray(body["data"][0]["embedding"], dtype=np.float64),
            ),
            f"embedder {self.id!r}",
            sleep=self._sleep,
        )
        if vec.shape != (self.dim,):
            raise ProviderError(f"expected dim {self.dim}, got {vec.shape}")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0 or not np.isfinite(norm):
            raise ProviderError(f"embedding endpoint returned a vector of norm {norm}")
        return vec / norm
