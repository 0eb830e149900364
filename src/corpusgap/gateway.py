"""Single abstraction over all text-model calls.

Prompt templates are data files with {placeholder} syntax. Every request
goes through `Gateway.complete_keyed`, which takes a keyed batch and
returns each request's result or exception in place. `complete_many`
keys a batch of requests and calls it; `complete_parsed` is that call for
one request, raising its exception; the judge keys its own batches and
calls it too. Each request is keyed once, and the key both finds its
repeats in the batch and looks it up in an append-only JSONL cache
(`corpus.AppendLog`) keyed by (provider id, template name, sha256 of the
template body, bindings, provider params), as a raw 32-byte digest (hex
in the file). A hit costs that key, one dict lookup and, once per
distinct reply text in the batch, the parser. A reply is cached only once
it parses, and is never served under another provider or an edited
template; its cache line is written from its parts (`_completion_line`),
byte for byte the line `json.dumps` writes. Each distinct miss is sent
once (a repeat in the batch waits on the first). Where the replies come
from is the only difference between providers. One that computes its
replies in this process, like `MockProvider`, has `generate_many`: it
gets a batch's misses in one call on the calling thread and renders only
the prompts it needs. Any other provider gets each miss rendered and
sent once, on up to `max_inflight` worker threads that hand each reply
back as it arrives. Either way one loop on the calling thread parses the
replies, fans each outcome out to the requests waiting on it, and
appends the lines of the replies that parse, 128 a write, and before it
waits for a reply still in flight. The misses whose reply is a
`ProviderError` are asked again as one round after one backoff sleep, up
to `RETRIES` rounds.

The cache key is the sha256 of the compact, key-sorted JSON of the
request's fields, as `CompletionRequest.cache_digest` writes it with one
encoder (`cache_key` is its hex, the form a cache line holds). That is
the one general keyer: `complete_many` keys each of its requests with
it. The judge, which sends nearly all requests, keys its batch as a
(queries x documents) product (`_judge_keys`) with the same digests: one
hash state per distinct document text, one encoded tail per distinct
query text, and for each pair one copy, one update and one `digest()`;
it builds a `CompletionRequest` only for a miss. Its memos live for one
batch, so no text outlives its batch in the gateway.

Provider and embedder calls share one retry policy, which no caller
changes: `RETRIES` attempts with a backoff from `BACKOFF_BASE_S` that
doubles. The gateway applies it to a batch's misses in rounds;
`providers.with_retries` applies it to one embedder call.

The model-backed functions built on it share that shape: the judge takes
a batch of (query text, document) pairs and the rewriter a batch of query
texts, each makes one gateway call, and each result or exception comes
back in its place.
"""

from __future__ import annotations

import collections
import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Collection, Mapping, Protocol, Sequence, TypeVar

from .corpus import AppendLog, Document, encode_record, hex_digest

JUDGE_MIN = 1
JUDGE_MAX = 100

_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


class TemplateError(ValueError):
    """Placeholder/binding mismatch."""


class ProviderError(RuntimeError):
    """Transport-level provider failure; the gateway retries these."""


class TransientProviderError(ProviderError):
    """A transport failure or a server error: another attempt may succeed,
    unlike a reply that arrived malformed."""


class JudgeParseError(ValueError):
    """Judge response did not contain a single in-range integer."""


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt body with `{placeholder}` slots.

    The body is split once, at construction, into literal text and
    placeholder names (`_parts`: literals at even positions, names at odd
    ones), so `render` only joins the literals with the bound values; no
    bound value is searched for placeholders."""

    name: str
    body: str
    placeholders: tuple[str, ...] = field(init=False)
    body_sha: str = field(init=False, repr=False, compare=False)
    _parts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(_PLACEHOLDER_RE.split(self.body))
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "placeholders", tuple(sorted(set(parts[1::2]))))
        object.__setattr__(self, "body_sha", hashlib.sha256(self.body.encode("utf-8")).hexdigest())

    def check(self, names: Collection[str]) -> None:
        """Raise TemplateError unless `names` are exactly the placeholders."""
        missing = [p for p in self.placeholders if p not in names]
        if missing:
            raise TemplateError(
                f"template {self.name!r}: unbound placeholder(s) {', '.join(missing)}"
            )
        extra = [b for b in names if b not in self.placeholders]
        if extra:
            raise TemplateError(
                f"template {self.name!r}: unknown binding(s) {', '.join(sorted(extra))}"
            )

    def render(self, bindings: Mapping[str, str]) -> str:
        self.check(bindings)
        pieces = list(self._parts)
        pieces[1::2] = [str(bindings[name]) for name in pieces[1::2]]
        return "".join(pieces)


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load all *.txt templates from a directory (default: packaged prompts)."""
    templates: dict[str, PromptTemplate] = {}
    if directory is None:
        package = resources.files("corpusgap") / "prompts"
        entries = [(p.name, p.read_text(encoding="utf-8")) for p in package.iterdir() if p.name.endswith(".txt")]
    else:
        entries = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(Path(directory).glob("*.txt"))]
    for filename, body in sorted(entries):
        name = filename[: -len(".txt")]
        templates[name] = PromptTemplate(name=name, body=body)
    return templates


@dataclass(frozen=True)
class ProviderParams:
    model: str = "mock"
    temperature: float = 0.0
    max_output_tokens: int = 2048


# The encoder of every cache key; one instance, as `json.dumps` with these
# arguments builds a new encoder on every call.
_KEY_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CompletionRequest:
    template: str
    bindings: Mapping[str, str]
    params: ProviderParams = ProviderParams()

    def cache_key(self, provider_id: str = "", template_sha: str = "") -> str:
        """`cache_digest` in hex: the key a cache line holds."""
        return self.cache_digest(provider_id, template_sha).hex()

    def cache_digest(self, provider_id: str = "", template_sha: str = "") -> bytes:
        """The sha256 digest of the request. The gateway stores replies
        under the digest that also names the provider and the template
        body's sha256; with both left empty it names the request alone.

        The hashed payload is the request's fields as `_KEY_ENCODER`
        writes them. Binding names must be str. This is the gateway's one
        general keyer: `complete_many` keys each request with it, and the
        judge's product keyer (`_judge_keys`) gives the same digests."""
        for name in self.bindings:
            if not isinstance(name, str):
                raise TypeError(f"binding name {name!r} is not a str")
        fields = {
            "bindings": dict(self.bindings),
            "params": [self.params.model, self.params.temperature, self.params.max_output_tokens],
            "template": self.template,
        }
        if provider_id or template_sha:
            fields["provider"] = provider_id
            fields["template_sha"] = template_sha
        return hashlib.sha256(_KEY_ENCODER.encode(fields).encode("utf-8")).digest()


class Provider(Protocol):
    """A text model. One that computes its replies in this process, with
    no I/O to wait on, also has `generate_many(requests, render)`: its
    replies to a batch, each a str or, in place, the exception that
    request raised, calling `render(request)` for the prompt only where
    it needs one. The gateway hands such a provider each batch's misses
    in one call on the calling thread."""

    id: str

    def generate(self, request: CompletionRequest, prompt: str) -> str: ...


T = TypeVar("T")
_MISSING = object()
# Parsed replies the gateway appends with one write: enough to
# spread the write's cost, few enough that the lines held at once stay
# small (one write per batch raised a bench-size cold study's peak RSS by
# 1.3-2.0 MB).
_LINES_PER_WRITE = 128

# The retry policy of every provider call: attempts, and the first backoff,
# which doubles after each failed attempt.
RETRIES = 3
BACKOFF_BASE_S = 1.0


def _completion_line(key: bytes, template: str, response: str) -> str:
    """The cache line of a reply: `encode_record({"key": key.hex(),
    "template": template, "response": response})`, written from its parts.
    The key's hex needs no escaping; each string is encoded alone, which
    takes the encoder's fast path for a str."""
    return f'{{"key": "{key.hex()}", "response": {encode_record(response)}, "template": {encode_record(template)}}}'


def _batch_skips_generate(cls: type) -> bool:
    """Whether a provider class inherits `generate_many` from above the
    class its `generate` comes from, so that the batch call would skip
    that `generate`."""

    def owner(name: str) -> type | None:
        return next((c for c in cls.__mro__ if name in vars(c)), None)

    many, one = owner("generate_many"), owner("generate")
    return many is not None and one is not None and not issubclass(many, one)


def _reply_decoder() -> Callable[[dict, int, bytes], tuple[bytes, object] | None]:
    """The completion cache's decode for one load: a record's key, as
    `hex_digest` makes it once the reply is read (or skips the record),
    and its reply, where equal reply texts come back as one string, so a
    cache of many keys with few distinct replies holds each text once.
    The texts are held only as long as the decode."""
    replies: dict[str, str] = {}

    def decode(record: dict, offset: int, line: bytes) -> tuple[bytes, object] | None:
        response = record["response"]
        key = hex_digest(record["key"])
        if type(response) is str:
            response = replies.setdefault(response, response)
        return None if key is None else (key, response)

    return decode


class Gateway:
    """Routes completion requests through templating, caching, and retries.

    Safe for concurrent callers; at most `max_inflight` calls of a
    provider without `generate_many` run at once. Transport failures are
    retried in rounds with exponential backoff (3 attempts, base 1 s, one
    sleep a round) and then surfaced. A `max_inflight` below 1 is refused
    with a ValueError, and a provider class that overrides `generate` but
    inherits `generate_many` with a TypeError.
    """

    def __init__(
        self,
        provider: Provider,
        templates: dict[str, PromptTemplate] | None = None,
        cache_path: str | Path | None = None,
        max_inflight: int = 4,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be at least 1, got {max_inflight!r}")
        if _batch_skips_generate(type(provider)):
            raise TypeError(
                f"{type(provider).__name__} overrides generate but not generate_many, "
                "which the gateway calls in its place"
            )
        self.provider = provider
        self.templates = templates if templates is not None else load_templates()
        self.cache = AppendLog(cache_path, _reply_decoder())
        self.max_inflight = max_inflight
        self._sleep = sleep
        self._semaphore = threading.Semaphore(max_inflight)

    def template(self, name: str) -> PromptTemplate:
        try:
            return self.templates[name]
        except KeyError:
            raise TemplateError(f"unknown template {name!r}") from None

    def close(self) -> None:
        """Close the completion cache's file; a later miss reopens it."""
        self.cache.close()

    def complete_parsed(self, request: CompletionRequest, parser: Callable[[str], T]) -> T:
        """`complete_many` for one request: its result, or its exception
        raised."""
        (result,) = self.complete_many([request], parser)
        if isinstance(result, Exception):
            raise result
        return result

    def complete_many(
        self, requests: Sequence[CompletionRequest], parser: Callable[[str], T]
    ) -> list[T | Exception]:
        """Complete and parse a batch; each result or exception in place.

        Nothing is raised: a failed request's exception is its result.
        Each request is keyed once by `CompletionRequest.cache_digest` and its
        binding names are checked against its template, so a request with
        an unknown template, a binding name that is not a str or a
        placeholder mismatch fails in place, before any render; the batch
        then goes through `complete_keyed`.
        """
        keys: list[bytes | Exception] = []
        for request in requests:
            try:
                template = self.template(request.template)
                key = request.cache_digest(self.provider.id, template.body_sha)
                template.check(request.bindings)
            except Exception as exc:
                key = exc
            keys.append(key)
        return self.complete_keyed(keys, requests.__getitem__, parser)

    def complete_keyed(
        self,
        keys: Sequence[bytes | Exception],
        request_at: Callable[[int], CompletionRequest],
        parser: Callable[[str], T],
    ) -> list[T | Exception]:
        """Complete and parse a batch that is already keyed: request i has
        the 32-byte `cache_digest` `keys[i]`, or failed to key with that
        exception, which is its result (any other key, such as a hex str,
        gets a TypeError). `request_at(i)` builds request i, and is called
        only for the first of each distinct miss. Each result or exception
        comes back in place, and nothing is raised.

        Each key both finds its repeats in the batch and looks the request
        up in the cache. Hits are answered in the calling thread, skipping
        the render, as the key already pins the template body and the
        bindings; each distinct reply is parsed once per batch, so results
        that share a reply share one parsed object, and callers must not
        mutate it. A request repeated in the batch reaches the provider
        once. A malformed reply is returned as its parse error and not
        cached, so a rerun asks the provider again.

        Each distinct miss is asked once (`_ask`, the one place where the
        two kinds of provider differ), and every reply goes through one
        loop on the calling thread. It parses each distinct reply once,
        gives the outcome to every request waiting on it, and appends the
        lines of the replies that parse `_LINES_PER_WRITE` at a time, and
        also before it waits for a reply still in flight. The misses whose
        reply is a `ProviderError` form the next round, asked after one
        backoff sleep, for up to `RETRIES` rounds.
        """
        lookup = self.cache.get
        results: list = [None] * len(keys)
        parsed: dict[str, object] = {}  # reply -> its parse
        waiting: dict[bytes, list[int]] = {}
        misses: list[tuple[CompletionRequest, bytes]] = []
        for i, key in enumerate(keys):
            if type(key) is not bytes:
                results[i] = key if isinstance(key, Exception) else TypeError(f"cache key {key!r} is not a digest")
                continue
            try:
                cached = lookup(key)
                if cached is None:
                    if len(key) != 32:  # the map holds none, so only a miss is checked
                        raise TypeError(f"cache key {key!r} is not a 32-byte digest")
                    if key in waiting:
                        waiting[key].append(i)
                    else:
                        waiting[key] = [i]
                        misses.append((request_at(i), key))
                    continue
                result = parsed.get(cached, _MISSING)
                if result is _MISSING:
                    result = parsed[cached] = parser(cached)
            except Exception as exc:
                result = exc
            results[i] = result
        lines: list[tuple[bytes, str, str]] = []  # (key, reply, line), not yet appended

        def put_lines() -> None:
            # One write; should it fail, one a line, so a line that cannot
            # be written fails only its own requests.
            try:
                self.cache.put_many(lines)
            except Exception:
                for entry in lines:
                    try:
                        self.cache.put_many([entry])
                    except Exception as exc:
                        for i in waiting[entry[0]]:
                            results[i] = exc
            lines.clear()

        for attempt in range(RETRIES):
            if not misses:
                break
            if attempt:
                put_lines()
                self._sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            failed = []
            for miss, reply in self._ask(misses, put_lines):
                request, key = miss
                if isinstance(reply, ProviderError):
                    if attempt < RETRIES - 1:
                        failed.append(miss)
                        continue
                    outcome = ProviderError(f"provider {self.provider.id!r} failed after {RETRIES} attempts: {reply}")
                    outcome.__cause__ = reply
                elif isinstance(reply, Exception):
                    outcome = reply
                else:
                    try:
                        outcome = parsed.get(reply, _MISSING)
                        if outcome is _MISSING:
                            outcome = parsed[reply] = parser(reply)
                        lines.append((key, reply, _completion_line(key, request.template, reply)))
                    except Exception as exc:
                        outcome = exc
                for i in waiting[key]:
                    results[i] = outcome
                if len(lines) == _LINES_PER_WRITE:
                    put_lines()
            misses = failed
        put_lines()
        return results

    def _render(self, request: CompletionRequest) -> str:
        return self.template(request.template).render(request.bindings)

    def _ask(self, misses: list[tuple[CompletionRequest, bytes]], before_wait: Callable[[], None]):
        """(miss, its reply or the exception it raised) for each miss.

        A provider with `generate_many` answers all of them in one call on
        the calling thread, with no semaphore; an exception the call
        raises, or a count of replies that does not match, is each miss's
        reply. Any other provider gets each miss rendered and sent once by
        up to `max_inflight` worker threads under the semaphore, and its
        replies are yielded as they arrive, calling `before_wait()` before
        waiting for one; the workers are joined before this returns."""
        generate_many = getattr(self.provider, "generate_many", None)
        if generate_many is not None:
            try:
                replies = generate_many([request for request, _ in misses], self._render)
                if len(replies) != len(misses):
                    raise RuntimeError(f"provider {self.provider.id!r} gave {len(replies)} replies to {len(misses)} requests")
            except Exception as exc:
                replies = [exc] * len(misses)
            yield from zip(misses, replies)
            return
        # Replies in the order they arrive, and a count of them. Not a
        # `queue` module queue: importing it raised the slow-provider
        # bench's peak RSS by about 0.1 MB.
        arrived: collections.deque = collections.deque()
        ready = threading.Semaphore(0)
        pending = iter(misses)
        lock = threading.Lock()

        def drain() -> None:
            while True:
                with lock:
                    miss = next(pending, None)
                if miss is None:
                    return
                request, _ = miss
                try:
                    prompt = self._render(request)
                    with self._semaphore:
                        reply = self.provider.generate(request, prompt)
                except Exception as exc:
                    reply = exc
                arrived.append((miss, reply))
                ready.release()

        workers = min(self.max_inflight, len(misses))
        threads = [threading.Thread(target=drain, name=f"gateway-{n}") for n in range(workers)]
        for thread in threads:
            thread.start()
        try:
            for _ in misses:
                if not ready.acquire(blocking=False):
                    before_wait()
                    ready.acquire()
                yield arrived.popleft()
        finally:
            for thread in threads:
                thread.join()


# --- judge scores ----------------------------------------------------------

_LABELED_SCORE_RE = re.compile(
    r"relevance\s+score\s*\(\s*1\s*[-\u2013\u2014]\s*100\s*\)\s*:\s*(\d+)", re.IGNORECASE
)
_INT_RE = re.compile(r"\d+")


def parse_judge_score(raw: str) -> int:
    """Extract the single 1..100 integer from a usefulness-rubric response.

    Accepts a bare integer or the labeled output line. Anything ambiguous
    is an error rather than a guess; a misparse here would corrupt gap
    scores downstream.
    """
    text = raw.strip()
    labeled = _LABELED_SCORE_RE.findall(text)
    if len(labeled) == 1:
        value = int(labeled[0])
    elif len(labeled) > 1 and len(set(labeled)) == 1:
        value = int(labeled[0])
    elif len(labeled) > 1:
        raise JudgeParseError(f"conflicting labeled scores in response: {text[:200]!r}")
    else:
        found = _INT_RE.findall(text)
        if not found:
            raise JudgeParseError(f"no integer found in response: {text[:200]!r}")
        if len(set(found)) != 1:
            raise JudgeParseError(f"multiple conflicting integers in response: {text[:200]!r}")
        value = int(found[0])
    if not JUDGE_MIN <= value <= JUDGE_MAX:
        raise JudgeParseError(f"score {value} outside [{JUDGE_MIN}, {JUDGE_MAX}]")
    return value


def format_judge_score(value: int) -> str:
    return f"Relevance Score (1-100): {value}"


# A judge scores a batch of (query text, document) pairs; a rewriter
# rewrites a batch of query texts. Each returns one result or exception
# per input, in order.
JudgeFn = Callable[[Sequence[tuple[str, Document]]], list[int | Exception]]
RewriteFn = Callable[[Sequence[str]], list[str | Exception]]


_JUDGE_TEMPLATE = "usefulness_rubric"
# A judge key's payload around its two binding values, which sort as the
# document, then the query.
_JUDGE_HEAD = '{"bindings":{"retrieved_document":'
_JUDGE_MID = ',"user_query":'


def _judge_keys(
    pairs: Sequence[tuple[str, Document]], params: ProviderParams, provider_id: str, template_sha: str
) -> list[bytes | Exception]:
    """The cache digest of each pair's rubric request, byte for byte
    `CompletionRequest.cache_digest`, keyed as a (queries x documents)
    product: one sha256 state per distinct document text, hashed up to
    the query's value, and one encoded tail per distinct query text (its
    JSON, then `tail`: the bindings' closing brace and every other field).
    A pair costs one copy, one update and one `digest()`. A document's text
    is always a str; a query text is kept only when it is one, so 1, 1.0
    and True never share an entry. Both memos go when this returns."""
    encode = _KEY_ENCODER.encode
    tail = (
        f'}},"params":{encode([params.model, params.temperature, params.max_output_tokens])},'
        f'"provider":{encode(provider_id)},"template":{encode(_JUDGE_TEMPLATE)},'
        f'"template_sha":{encode(template_sha)}}}'
    )
    states: dict[str, object] = {}
    tails: dict[str, bytes] = {}
    keys: list[bytes | Exception] = []
    for query, doc in pairs:
        try:
            text = doc.text
            state = states.get(text)
            if state is None:
                state = states[text] = hashlib.sha256(f"{_JUDGE_HEAD}{encode(text)}{_JUDGE_MID}".encode("utf-8"))
            query_tail = tails.get(query)
            if query_tail is None:
                query_tail = (encode(query) + tail).encode("utf-8")
                if type(query) is str:
                    tails[query] = query_tail
            pair = state.copy()
            pair.update(query_tail)
            keys.append(pair.digest())
        except Exception as exc:
            keys.append(exc)
    return keys


def make_gateway_judge(gateway: Gateway, params: ProviderParams | None = None) -> JudgeFn:
    """Judge that applies the usefulness rubric through the gateway, one
    `Gateway.complete_keyed` call per batch, keyed by `_judge_keys`; a
    `CompletionRequest` is built only for a miss.

    Cached by (query text, document text) via the gateway cache, so
    re-judging a pair is free.
    """
    params = params or ProviderParams()

    def judge(pairs: Sequence[tuple[str, Document]]) -> list[int | Exception]:
        try:
            template = gateway.template(_JUDGE_TEMPLATE)
            template.check(("retrieved_document", "user_query"))
        except TemplateError as exc:
            return [exc] * len(pairs)

        def request(i: int) -> CompletionRequest:
            query_text, doc = pairs[i]
            return CompletionRequest(_JUDGE_TEMPLATE, {"user_query": query_text, "retrieved_document": doc.text}, params)

        keys = _judge_keys(pairs, params, gateway.provider.id, template.body_sha)
        return gateway.complete_keyed(keys, request, parse_judge_score)

    return judge


def _parse_rewrite(raw: str) -> str:
    for line in raw.splitlines():
        if line.strip():
            return line.strip()
    raise ValueError("rewriter returned empty output")


def make_gateway_rewriter(gateway: Gateway, params: ProviderParams | None = None) -> RewriteFn:
    """Rewriter that applies the rewrite prompt through the gateway, one
    `Gateway.complete_many` call per batch."""
    params = params or ProviderParams()

    def rewrite(query_texts: Sequence[str]) -> list[str | Exception]:
        if isinstance(query_texts, str):
            raise TypeError("a rewriter takes a batch of query texts, not one str")
        requests = [CompletionRequest("rewrite_query", {"query": text}, params) for text in query_texts]
        return gateway.complete_many(requests, _parse_rewrite)

    return rewrite
