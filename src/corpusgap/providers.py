"""Model providers: a deterministic mock and the HTTP clients.

The mock provider's responses are pure functions of (request, seed). It
answers a batch in one `generate_many` call, which tells the gateway that
it runs in this process, and `generate` is that call for one request. It
routes on template name so every prompt in the pipeline (classification,
judging, rewriting, article generation) gets a plausible, parseable reply;
only an unrouted template's reply is computed from the rendered prompt.
Classification tokenises the text once per request and scores every
subtopic against those counts; the subtopic lines' own counts are kept for
the last subtopic list seen (one entry), so a study tokenises its taxonomy
once. Judging goes through `gateway.mock_query_score`: each query's token
counts and hash prefix are worked out once per batch, and bounded memos
(4,096 texts each) tokenise each query and each document text once.

`HttpProvider` (chat completions) and `HttpEmbedder` (embeddings) talk to
an OpenAI-style endpoint through one POST helper over stdlib
`urllib.request`, which adds the bearer header and turns a transport
failure, a bad status or a malformed body into `ProviderError`
(`TransientProviderError` for a transport failure or a server error, which
the embedder retries). `urllib.request` is imported on the first POST, so
importing the CLI loads no HTTP library.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Sequence, TypeVar

import numpy as np

from .gateway import (
    JUDGE_MAX,
    JUDGE_MIN,
    CompletionRequest,
    ProviderError,
    TransientProviderError,
    counts_overlap,
    format_judge_score,
    mock_query,
    mock_query_score,
    stable_hash,
    token_counts,
    with_retries,
)

T = TypeVar("T")

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
        (`gateway.mock_query`)."""
        replies: list[str | Exception] = []
        by_template: dict[str, int] = {}
        queries: dict[str, tuple] = {}  # query text -> gateway.mock_query of it
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
                    counts = token_counts(line)
                    lines.append((line, (counts, sum(counts.values()))))
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
    policy (`gateway.with_retries`); a malformed reply is not."""

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
