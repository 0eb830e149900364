from __future__ import annotations

import collections
import hashlib
import json
import logging
import re
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpusgap.annotate import label_batch, write_labelings
from corpusgap.corpus import Document, IngestError, Section, Source
from corpusgap import gateway as gateway_module
from corpusgap.evaluation import CorpusInfo, emit_report, run_grid
from corpusgap.gateway import (
    CompletionRequest,
    Gateway,
    JudgeParseError,
    PromptTemplate,
    ProviderError,
    ProviderParams,
    TemplateError,
    format_judge_score,
    load_templates,
    make_gateway_judge,
    make_gateway_rewriter,
    parse_judge_score,
)
from corpusgap.providers import MockProvider, query_tokens, stable_hash
from corpusgap.retrieval import CachedEmbedder, Pipeline

from .world import (
    build_ladders,
    build_world,
    mock_gateway_judge,
    mock_score,
    reference_corpus,
    token_overlap,
    world_embedder,
)


def make_doc(doc_id: str, text: str) -> Document:
    return Document(
        id=doc_id, source=Source.BASELINE, title="", sections=(Section(heading="", body=text),)
    )


# Pieces of template bodies and binding values: placeholders adjacent,
# repeated, first and last, braces that are no placeholder, and values
# that hold a placeholder, which must stay as they are.
TEMPLATE_PIECES = [
    "{a}", "{b}", "{user_query}", "{x1}", "{Upper}", "{1x}", "{}", "{{a}}", "{", "}", "{a",
    "b}", "text ", "\u00e9\u4e2d", "\n", "\\", '"',
]
_OLD_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


def reference_render(name: str, body: str, bindings: dict) -> str:
    """`PromptTemplate.render` as it was before bodies were split at
    construction: checks, then one regex substitution over the body."""
    placeholders = tuple(sorted(set(_OLD_PLACEHOLDER_RE.findall(body))))
    missing = [p for p in placeholders if p not in bindings]
    if missing:
        raise TemplateError(f"template {name!r}: unbound placeholder(s) {', '.join(missing)}")
    extra = [b for b in bindings if b not in placeholders]
    if extra:
        raise TemplateError(f"template {name!r}: unknown binding(s) {', '.join(sorted(extra))}")
    return _OLD_PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), body)


class TestPromptTemplate:
    def test_placeholders_extracted(self):
        template = PromptTemplate(name="t", body="Hello {name}, rate {thing}.")
        assert template.placeholders == ("name", "thing")

    def test_literal_braces_ignored(self):
        template = PromptTemplate(name="t", body='{"key": 0.7}\nuse {text} here')
        assert template.placeholders == ("text",)
        rendered = template.render({"text": "X"})
        assert '{"key": 0.7}' in rendered and "use X here" in rendered

    def test_unbound_placeholder_named(self):
        template = PromptTemplate(name="t", body="classify {text}")
        with pytest.raises(TemplateError, match="text"):
            template.render({})

    def test_unknown_binding_rejected(self):
        template = PromptTemplate(name="t", body="classify {text}")
        with pytest.raises(TemplateError, match="bogus"):
            template.render({"text": "x", "bogus": "y"})

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        body=st.lists(st.sampled_from(TEMPLATE_PIECES), max_size=12).map("".join),
        values=st.lists(st.lists(st.sampled_from(TEMPLATE_PIECES), max_size=4).map("".join), min_size=4, max_size=4),
        drop=st.integers(0, 4),
        extra=st.sampled_from([None, "zz", "Upper", "a"]),
    )
    def test_render_equals_regex_substitution(self, body, values, drop, extra):
        # Bindings cover the body's placeholders, less one when `drop`
        # names one, plus `extra` when it is not a placeholder.
        names = sorted(set(_OLD_PLACEHOLDER_RE.findall(body)))
        bindings = {name: value for name, value in zip(names, values * 2)}
        if drop < len(names):
            del bindings[names[drop]]
        if extra is not None:
            bindings.setdefault(extra, "{a}")
        template = PromptTemplate(name="t\u00e9", body=body)
        try:
            want = reference_render("t\u00e9", body, bindings)
        except TemplateError as exc:
            with pytest.raises(TemplateError) as got:
                template.render(bindings)
            assert str(got.value) == str(exc)
        else:
            assert template.render(bindings) == want
        assert template.placeholders == tuple(names)


class CountingProvider:
    def __init__(self, response: str = "ok", id: str = "counting"):
        self.id = id
        self.calls = 0
        self.response = response

    def generate(self, request, prompt):
        self.calls += 1
        return self.response


class FlakyProvider:
    def __init__(self, failures: int, response: str = "ok"):
        self.id = "flaky"
        self.failures = failures
        self.calls = 0
        self.response = response

    def generate(self, request, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProviderError("boom")
        return self.response


TEMPLATES = {"echo": PromptTemplate(name="echo", body="say {word}")}


def gw(provider, **kwargs) -> Gateway:
    kwargs.setdefault("templates", TEMPLATES)
    kwargs.setdefault("sleep", lambda s: None)
    return Gateway(provider, **kwargs)


def req(word: str = "hi") -> CompletionRequest:
    return CompletionRequest(template="echo", bindings={"word": word})


class TestGateway:
    def test_cache_hit_skips_provider(self):
        provider = CountingProvider()
        gateway = gw(provider)
        assert gateway.complete_parsed(req(), str) == "ok"
        assert gateway.complete_parsed(req(), str) == "ok"
        assert provider.calls == 1

    def test_distinct_params_miss_cache(self):
        provider = CountingProvider()
        gateway = gw(provider)
        gateway.complete_parsed(req(), str)
        gateway.complete_parsed(
            CompletionRequest(
                template="echo",
                bindings={"word": "hi"},
                params=ProviderParams(temperature=0.9),
            ),
            str,
        )
        assert provider.calls == 2

    def test_cache_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = CountingProvider()
        gw(first, cache_path=path).complete_parsed(req(), str)
        second = CountingProvider()
        assert gw(second, cache_path=path).complete_parsed(req(), str) == "ok"
        assert second.calls == 0

    def test_retry_then_success(self):
        provider = FlakyProvider(failures=2)
        waits = []
        gateway = gw(provider, sleep=waits.append)
        assert gateway.complete_parsed(req(), str) == "ok"
        assert provider.calls == 3
        assert waits == [1.0, 2.0]

    def test_retries_exhausted_surface(self):
        provider = FlakyProvider(failures=5)
        gateway = gw(provider)
        with pytest.raises(ProviderError, match="after 3 attempts"):
            gateway.complete_parsed(req(), str)

    def test_parse_failure_not_cached(self):
        provider = CountingProvider("no score here")
        gateway = gw(provider)
        with pytest.raises(JudgeParseError):
            gateway.complete_parsed(req(), parse_judge_score)
        with pytest.raises(JudgeParseError):
            gateway.complete_parsed(req(), parse_judge_score)
        assert provider.calls == 2
        assert len(gateway.cache) == 0

    def test_unbound_placeholder_surfaces(self):
        gateway = gw(CountingProvider())
        with pytest.raises(TemplateError, match="word"):
            gateway.complete_parsed(CompletionRequest(template="echo", bindings={}), str)

    def test_provider_switch_misses_persisted_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        gw(CountingProvider("first", id="mock-1"), cache_path=path).complete_parsed(req(), str)
        second = CountingProvider("second", id="mock-2")
        assert gw(second, cache_path=path).complete_parsed(req(), str) == "second"
        assert second.calls == 1

    def test_edited_template_misses_persisted_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        gw(CountingProvider("old"), cache_path=path).complete_parsed(req(), str)
        edited = {"echo": PromptTemplate(name="echo", body="please say {word}")}
        provider = CountingProvider("new")
        assert gw(provider, cache_path=path, templates=edited).complete_parsed(req(), str) == "new"
        assert provider.calls == 1

    def test_provider_switch_misses_parsed_memo(self):
        gateway = gw(CountingProvider("11", id="mock-1"))
        assert gateway.complete_parsed(req(), parse_judge_score) == 11
        gateway.provider = CountingProvider("22", id="mock-2")
        assert gateway.complete_parsed(req(), parse_judge_score) == 22

    @pytest.mark.parametrize("setting", ["max_inflight"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_setting_below_one_refused(self, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be at least 1, got {value}"):
            gw(CountingProvider(), **{setting: value})

    def test_bare_cache_key_names_the_request_alone(self):
        assert req().cache_key() == req().cache_key("", "")
        assert req().cache_key() != req().cache_key("mock-1", "")
        assert req().cache_key("mock-1", "a") != req().cache_key("mock-1", "b")


def json_dumps_key(request: CompletionRequest, provider_id: str = "", template_sha: str = "") -> str:
    """The cache key as the gateway first defined it: sha256 of json.dumps."""
    fields = {
        "template": request.template,
        "bindings": dict(sorted(request.bindings.items())),
        "params": [request.params.model, request.params.temperature, request.params.max_output_tokens],
    }
    if provider_id or template_sha:
        fields["provider"] = provider_id
        fields["template_sha"] = template_sha
    payload = json.dumps(fields, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


key_text = st.text(alphabet=st.sampled_from(list('aé"\\\n\t\x00\x1f\u2028\U0001f600 {}:,') + ["b"]), max_size=12)
key_params = st.builds(
    ProviderParams,
    model=key_text,
    temperature=st.one_of(st.integers(-3, 3), st.floats(), st.booleans()),
    max_output_tokens=st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.booleans()),
)
key_requests = st.builds(
    CompletionRequest,
    template=key_text,
    bindings=st.dictionaries(key_text, key_text, max_size=4),
    params=key_params,
)


class TestCacheKey:
    @settings(max_examples=400, derandomize=True)
    @given(request=key_requests, provider_id=st.sampled_from(["", "mock-5", "prov\u00e9\"1"]),
           template_sha=st.sampled_from(["", "ab" * 32]))
    def test_equals_the_json_dumps_key(self, request, provider_id, template_sha):
        assert request.cache_key(provider_id, template_sha) == json_dumps_key(request, provider_id, template_sha)

    def test_int_float_and_bool_params_keep_their_own_keys(self):
        keys = set()
        for value in (1, 1.0, True, 0, 0.0, False):
            request = CompletionRequest("echo", {"word": "hi"}, ProviderParams(temperature=value))
            for _ in range(2):  # keyed twice, with the same key
                assert request.cache_key("p", "s") == json_dumps_key(request, "p", "s")
            keys.add(request.cache_key("p", "s"))
        assert len(keys) == 6

    def test_non_str_values_keyed_as_json_dumps_and_non_str_names_refused(self):
        for value in (2.5, 2, None, True):
            request = CompletionRequest("echo", {"word": value})
            assert request.cache_key("p", "s") == json_dumps_key(request, "p", "s")
        with pytest.raises(TypeError, match="binding name 1"):
            CompletionRequest("echo", {1: "x"}).cache_key()

    # Keys computed by the json.dumps implementation of cache_key.
    GOLDEN = [
        (
            CompletionRequest(
                "usefulness_rubric",
                {"user_query": "cant sleep, mind racing", "retrieved_document": 'Insomnia "tips"\n\\ café — \x01 end'},
            ),
            "1871c9ab3fecaa525f5539b3d7b38d7e44ab0a3b9a30e8fd154e15b1a559ee62",
            "5ea807ece24dc6d65bb5b840c3f6ce983f03492579ba9b882a8b771ae123fed2",
        ),
        (
            CompletionRequest("rewrite_query", {"query": "über worry"}, ProviderParams("m1", 1, 64)),
            "302d4a95dee6e7e2e7dda44976793b263db0d14ce6a873ee693bf9694cb808f0",
            "fa0bba296b2fe8b8a8e69db0c861f500aec7c17069e3c340b1acc185569b583b",
        ),
        (
            CompletionRequest("mystery", {}, ProviderParams(temperature=1.0)),
            "4e2c10a112ab57ac1b5683694435bd6c61ed8968d5453e37df8946b44eb5f2a8",
            "a77811009a16dcf49390232a3ef2b3ee29bc294c6f445019bc7bf972489e48ef",
        ),
    ]

    @pytest.mark.parametrize("request_, bare, named", GOLDEN, ids=["judge", "rewrite-int-temperature", "empty"])
    def test_golden_keys(self, request_, bare, named):
        assert request_.cache_key() == bare
        assert request_.cache_key("mock-5", "ab" * 32) == named

    def test_cache_written_under_the_json_dumps_key_is_read_without_a_call(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = "e2dd3417da5096c4a6a60b951be58564da0f8e14d7343f64ec4a7e2f94510058"
        path.write_text(json.dumps({"key": key, "template": "echo", "response": "42"}) + "\n", encoding="utf-8")
        provider = CountingProvider("0")
        gateway = gw(provider, cache_path=path)
        assert gateway.complete_parsed(req('héllo "q" \\ \t'), parse_judge_score) == 42
        assert provider.calls == 0


def rubric_request(query: str, doc: Document, params: ProviderParams = ProviderParams()) -> CompletionRequest:
    return CompletionRequest("usefulness_rubric", {"user_query": query, "retrieved_document": doc.text}, params)


class TestJudgeKeys:
    """The judge keys its batch as a (queries x documents) product and
    sends it through `Gateway.complete_keyed`, as `complete_many` does."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        queries=st.lists(key_text, min_size=1, max_size=4),
        docs=st.lists(key_text, min_size=1, max_size=4),
        picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
        provider_ids=st.lists(st.sampled_from(["", "mock-5", 'prové"1\\']), min_size=1, max_size=2, unique=True),
        params=key_params,
    )
    def test_equals_cache_key(self, queries, docs, picks, provider_ids, params):
        documents = [make_doc(f"d{i}", text) for i, text in enumerate(docs)]
        # Pairs repeat, and a query text may equal a document's.
        pairs = [(queries[q % len(queries)], documents[d % len(documents)]) for q, d in picks]
        want = [rubric_request(query, doc, params) for query, doc in pairs]
        for provider_id in provider_ids:
            provider = CountingProvider(format_judge_score(42), id=provider_id)
            gateway = Gateway(provider, sleep=lambda s: None)
            batches = []
            complete_keyed = gateway.complete_keyed

            def spy(keys, request_at, parser):
                batches.append((list(keys), [request_at(i) for i in range(len(keys))]))
                return complete_keyed(keys, request_at, parser)

            gateway.complete_keyed = spy
            assert make_gateway_judge(gateway, params)(pairs) == [42] * len(pairs)
            [(keys, requests)] = batches
            assert requests == want
            template_sha = gateway.template("usefulness_rubric").body_sha
            assert keys == [request.cache_key(provider_id, template_sha) for request in want]
            assert provider.calls == len(set(keys))

    def test_query_values_equal_as_dict_keys_keep_their_own_keys(self):
        gateway = Gateway(CountingProvider(format_judge_score(42)), sleep=lambda s: None)
        keys = []
        gateway.complete_keyed = lambda batch, request_at, parser: keys.extend(batch) or [None] * len(batch)
        doc = make_doc("d1", "doc")
        values = [1, 1.0, True, "1", 0, False, None, 1, True]
        make_gateway_judge(gateway)([(value, doc) for value in values])
        template_sha = gateway.template("usefulness_rubric").body_sha
        assert keys == [rubric_request(value, doc).cache_key("counting", template_sha) for value in values]
        assert len(set(keys)) == 7

    def test_cache_written_by_complete_many_reruns_through_the_judge(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        docs = [make_doc("d1", 'a "quoted" \\ doc'), make_doc("d2", "café 中 \U0001f600")]
        pairs = [(query, doc) for query in ["q one", 'qé "two"\n'] for doc in docs]
        writer = Gateway(CountingProvider(format_judge_score(42)), cache_path=path)
        assert writer.complete_many([rubric_request(q, d) for q, d in pairs], parse_judge_score) == [42] * 4
        writer.close()
        reader = CountingProvider(format_judge_score(7))
        gateway = Gateway(reader, cache_path=path)
        assert make_gateway_judge(gateway)(pairs + pairs[::-1]) == [42] * 8
        # And the other way round: lines the judge wrote serve `complete_many`.
        more = [("q three", doc) for doc in docs]
        assert make_gateway_judge(gateway)(more) == [7, 7]
        gateway.close()
        again = Gateway(CountingProvider(format_judge_score(99)), cache_path=path)
        assert again.complete_many([rubric_request(q, d) for q, d in pairs + more], parse_judge_score) == [42] * 4 + [7, 7]
        assert reader.calls == 2 and again.provider.calls == 0

    def test_judge_hashes_each_document_once(self, monkeypatch):
        gateway = Gateway(CountingProvider(format_judge_score(42)), sleep=lambda s: None)
        judge = make_gateway_judge(gateway)
        docs = [make_doc("d1", "doc one"), make_doc("d2", "doc two")]
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data=b"": hashed.append(data) or sha256(data))
        assert judge([(query, doc) for query in ["q1", "q2", "q3"] for doc in docs]) == [42] * 6
        assert len(hashed) == len(docs)

    def test_each_text_encoded_once_per_batch_and_kept_by_none(self, monkeypatch):
        """The judge encodes each distinct text once in a batch, and again
        in the next one: no memo outlives its batch. Neither the judge nor
        `complete_many` leaves a reference to a text once the batch
        returns."""
        encoder = gateway_module._KEY_ENCODER
        encoded = []

        class SpyEncoder:
            def encode(self, value):
                encoded.append(value)
                return encoder.encode(value)

        monkeypatch.setattr(gateway_module, "_KEY_ENCODER", SpyEncoder())
        # Texts built at run time, so no other object shares them.
        queries = ["".join(["query ", str(i), " é"]) for i in range(3)]
        docs = [make_doc(f"d{i}", "".join(["doc ", str(i), ' "body"'])) for i in range(2)]
        texts = queries + [doc.text for doc in docs]
        pairs = [(query, doc) for query in queries for doc in docs] * 2
        gateway = Gateway(CountingProvider(format_judge_score(42)), sleep=lambda s: None)
        judge = make_gateway_judge(gateway)

        def encodes() -> tuple[list[int], int]:
            """How often each text, and the most often any str, was
            encoded since the last call; forgets what it counted."""
            counts = collections.Counter(value for value in encoded if type(value) is str)
            encoded.clear()
            return [counts[text] for text in texts], max(counts.values())

        refs = [sys.getrefcount(text) for text in texts]
        for batch in range(2):  # all misses, then all hits
            assert judge(pairs) == [42] * len(pairs)
            assert encodes() == ([1] * len(texts), 1)
            assert [sys.getrefcount(text) for text in texts] == refs
        requests = [rubric_request(query, doc) for query, doc in pairs]
        refs = [sys.getrefcount(text) for text in texts]
        for batch in range(2):
            assert gateway.complete_many(requests, parse_judge_score) == [42] * len(pairs)
            encoded.clear()  # the spy's own references to the keyed payloads
            assert [sys.getrefcount(text) for text in texts] == refs
        assert gateway.provider.calls == len(pairs) // 2


class TestParsedMemo:
    def test_repeat_is_a_cache_hit_without_render_or_provider(self, monkeypatch):
        provider = CountingProvider("42")
        gateway = gw(provider)
        assert gateway.complete_parsed(req(), parse_judge_score) == 42
        looked_up = []
        lookup = gateway.cache.get
        gateway.cache.get = lambda key: looked_up.append(key) or lookup(key)
        monkeypatch.setattr(PromptTemplate, "render", lambda *a: pytest.fail("a hit was rendered"))
        assert gateway.complete_parsed(req(), parse_judge_score) == 42
        assert looked_up == [req().cache_key("counting", TEMPLATES["echo"].body_sha)]
        assert provider.calls == 1

    def test_each_distinct_cached_reply_parsed_once_per_batch(self):
        words = [f"w{i}" for i in range(12)]
        provider = ScriptedProvider({w: "7" if i % 3 == 0 else "42" for i, w in enumerate(words)})
        gateway = gw(provider)
        gateway.complete_many([req(w) for w in words], parse_judge_score)
        parsed = []

        def spy(raw):
            parsed.append(raw)
            return [parse_judge_score(raw)]

        for _ in range(2):
            parsed.clear()
            results = gateway.complete_many([req(w) for w in words + words], spy)
            assert sorted(parsed) == ["42", "7"]
            assert results == [[7] if i % 3 == 0 else [42] for i in range(12)] * 2
            assert results[0] is results[3] is results[12] and results[1] is results[2] is results[13]
        assert provider.calls == 12

    def test_failed_parse_of_a_hit_or_a_miss_is_never_kept(self):
        provider = ScriptedProvider({"a": "not a score", "b": "63"})
        gateway = gw(provider)
        gateway.complete_parsed(req("b"), str)
        parsed = []

        def spy(raw):
            parsed.append(raw)
            return parse_judge_score(raw)

        results = gateway.complete_many([req("a"), req("b"), req("a"), req("b")], spy)
        assert isinstance(results[0], JudgeParseError) and results[2] is results[0]
        assert results[1] == results[3] == 63
        assert sorted(parsed) == ["63", "not a score"] and len(gateway.cache) == 1
        # A cached reply that fails a stricter parser fails at each request.
        results = gateway.complete_many([req("b"), req("b")], lambda raw: int(raw) + int("x"))
        assert all(isinstance(r, ValueError) for r in results) and results[0] is not results[1]
        provider.replies["a"] = "12"
        assert gateway.complete_many([req("a"), req("a")], spy) == [12, 12]
        assert provider.calls == 3 and len(gateway.cache) == 2

    def test_distinct_bindings_and_parsers_miss(self):
        provider = CountingProvider("42")
        gateway = gw(provider)
        gateway.complete_parsed(req("a"), parse_judge_score)
        gateway.complete_parsed(req("b"), parse_judge_score)
        assert gateway.complete_parsed(req("a"), str.strip) == "42"
        assert provider.calls == 2

    def test_parse_failure_never_memoised(self):
        provider = CountingProvider("no score here")
        gateway = gw(provider)
        with pytest.raises(JudgeParseError):
            gateway.complete_parsed(req(), parse_judge_score)
        provider.response = "77"
        assert gateway.complete_parsed(req(), parse_judge_score) == 77
        assert gateway.complete_parsed(req(), parse_judge_score) == 77
        assert provider.calls == 2

    def test_memo_serves_what_the_cache_served(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        gw(CountingProvider("63"), cache_path=path).complete_parsed(req(), parse_judge_score)
        provider = CountingProvider("0")
        gateway = gw(provider, cache_path=path)
        assert [gateway.complete_parsed(req(), parse_judge_score) for _ in range(2)] == [63, 63]
        assert provider.calls == 0


class TestTornCacheFile:
    def test_torn_last_line_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "completions.jsonl"
        gw(CountingProvider(), cache_path=path).complete_parsed(req("a"), str)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "abc", "respo')
        provider = CountingProvider()
        with caplog.at_level(logging.WARNING, logger="corpusgap.corpus"):
            gateway = gw(provider, cache_path=path)
        assert "torn" in caplog.text
        assert gateway.complete_parsed(req("a"), str) == "ok" and provider.calls == 0
        # The torn bytes were cut, so records appended later stay loadable.
        gateway.complete_parsed(req("b"), str)
        assert len(gw(CountingProvider(), cache_path=path).cache) == 2
        assert all(json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())

    def test_bad_line_in_the_middle_raises(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        gateway = gw(CountingProvider(), cache_path=path)
        gateway.complete_parsed(req("a"), str)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        gateway.complete_parsed(req("b"), str)
        with pytest.raises(ValueError, match="malformed"):
            gw(CountingProvider(), cache_path=path)

    def test_cut_inside_the_last_write_drops_only_the_torn_line(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "completions.jsonl"
        templates = load_templates()
        pairs = [(q, d) for q in ("calm night", "grief") for d in ("a calm night routine", "loss and grief", "panic")]
        requests = [
            CompletionRequest("usefulness_rubric", {"user_query": q, "retrieved_document": d}) for q, d in pairs
        ]
        gateway = Gateway(MockProvider(seed=0), templates, cache_path=path)
        gateway.complete_many(requests[:2], parse_judge_score)
        start = path.stat().st_size
        writes = []
        put_many = gateway.cache.put_many
        monkeypatch.setattr(gateway.cache, "put_many", lambda entries: writes.append(len(entries)) or put_many(entries))
        want = gateway.complete_many(requests, parse_judge_score)
        gateway.close()
        assert writes == [4]  # the last write holds four lines
        data = path.read_bytes()
        line_ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        assert len(line_ends) == 6
        for cut in range(start, len(data)):
            path.write_bytes(data[:cut])
            whole = [end for end in line_ends if end <= cut]
            provider = MockProvider(seed=0)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="corpusgap.corpus"):
                reloaded = Gateway(provider, templates, cache_path=path)
            assert len(reloaded.cache) == len(whole)
            assert ("torn" in caplog.text) == (cut != whole[-1])
            assert reloaded.complete_many(requests, parse_judge_score) == want
            assert provider.calls == len(line_ends) - len(whole)
            reloaded.close()
            assert path.read_bytes() == data

    def test_equal_replies_load_as_one_string(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        replies = ["score: 3, as the document helps", "score: 1, as it does not"]

        class AlternatingProvider(CountingProvider):
            def generate(self, request, prompt):
                self.calls += 1
                # A new string per call, as a provider's reply would be.
                return "".join(replies[int(request.bindings["word"]) % 2])

        requests = [req(str(i)) for i in range(40)]
        want = gw(AlternatingProvider(), cache_path=path).complete_many(requests, str)
        keys = [json.loads(line)["key"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(keys) == 40
        provider = AlternatingProvider()
        gateway = gw(provider, cache_path=path)
        loaded = [gateway.cache.get(key) for key in keys]
        assert sorted(loaded) == sorted(replies * 20)
        assert len({id(reply) for reply in loaded}) == 2
        assert gateway.complete_many(requests, str) == want and provider.calls == 0

    def test_record_without_response_names_file_and_line(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        gw(CountingProvider(), cache_path=path).complete_parsed(req("a"), str)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": "abc", "template": "t"}) + "\n")
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}:2: record lacks field 'response'$"):
            gw(CountingProvider(), cache_path=path)


class TestMockProviderDeterminism:
    def test_same_seed_byte_identical(self):
        request = CompletionRequest(
            template="usefulness_rubric",
            bindings={"user_query": "a b", "retrieved_document": "a b c"},
        )
        first = MockProvider(seed=7).generate(request, "")
        second = MockProvider(seed=7).generate(request, "")
        assert first == second

    def test_seed_changes_response(self):
        request = CompletionRequest(
            template="usefulness_rubric",
            bindings={"user_query": "a b", "retrieved_document": "x y"},
        )
        outs = {MockProvider(seed=s).generate(request, "") for s in range(10)}
        assert len(outs) > 1


class TestParseJudgeScore:
    def test_bare_integer(self):
        assert parse_judge_score("87") == 87

    def test_labeled_line(self):
        assert parse_judge_score("Relevance Score (1-100): 92") == 92

    def test_labeled_line_en_dash(self):
        assert parse_judge_score("Relevance Score (1\u2013100): 92") == 92

    def test_out_of_range(self):
        with pytest.raises(JudgeParseError, match="outside"):
            parse_judge_score("150")

    def test_no_integer(self):
        with pytest.raises(JudgeParseError, match="no integer"):
            parse_judge_score("pretty helpful overall")

    def test_conflicting_integers(self):
        with pytest.raises(JudgeParseError, match="conflicting"):
            parse_judge_score("Score: 92 out of 100")

    @pytest.mark.parametrize("value", list(range(1, 101)))
    def test_format_parse_identity(self, value):
        assert parse_judge_score(format_judge_score(value)) == value
        assert parse_judge_score(str(value)) == value


class TestMockJudge:
    def test_identical_text_scores_high(self):
        text = "calm evening routine helps sleep"
        assert mock_score(text, text, seed=0) >= 97

    def test_disjoint_text_scores_low(self):
        assert mock_score("alpha beta", "gamma delta epsilon", seed=0) <= 4

    def test_deterministic(self):
        assert mock_score("a b", "a b c d", seed=3) == mock_score("a b", "a b c d", seed=3)

    def test_always_in_range(self):
        for seed in range(20):
            assert 1 <= mock_score("y z", "x", seed) <= 100

    def test_provider_and_judge_share_one_formula(self):
        # The perturbation is keyed on the document text, so the provider's
        # reply and the gateway judge over it both follow one formula.
        def reference(query_text, doc_text, seed):
            base = round(100 * token_overlap(query_text, doc_text))
            return max(1, min(100, base + stable_hash(str(seed), query_text, doc_text) % 7 - 3))

        doc = make_doc("d7", "calm night routine for sleep")
        for seed in range(5):
            queries = ["calm night", "sleep routine calm", "unrelated words"]
            want = [reference(query_text, doc.text, seed) for query_text in queries]
            assert [mock_score(query_text, doc.text, seed) for query_text in queries] == want
            assert mock_gateway_judge(seed)([(query_text, doc) for query_text in queries]) == want
            for query_text, score in zip(queries, want):
                request = CompletionRequest(
                    template="usefulness_rubric",
                    bindings={"user_query": query_text, "retrieved_document": doc.text},
                )
                reply = MockProvider(seed=seed).generate(request, "")
                assert reply == format_judge_score(score)

    def test_overlap_counts_multiplicity(self):
        assert token_overlap("a a b", "a b c") == pytest.approx(2 / 3)
        assert token_overlap("a a b", "a a a b") == 1.0

    def test_query_total_is_kept_beside_its_counts(self):
        assert query_tokens("A a b, c") == ({"a": 2, "b": 1, "c": 1}, 4)
        assert query_tokens("...") == ({}, 0) and token_overlap("...", "a b") == 0.0


class TestGatewayJudgeAndRewriter:
    def test_judge_parses_mock_response(self):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        judge = make_gateway_judge(gateway)
        doc = make_doc("d1", "breathing exercise for panic")
        [score] = judge([("breathing exercise for panic", doc)])
        assert score >= 97

    def test_mock_judge_scores_a_batch_by_text(self):
        # A repeated pair, and two documents with different ids but the
        # same text, which must score the same.
        provider = MockProvider(seed=4)
        judge = make_gateway_judge(Gateway(provider, sleep=lambda s: None))
        calm, twin, other = (
            make_doc("d1", "calm night routine for sleep"),
            make_doc("d2", "calm night routine for sleep"),
            make_doc("d3", "panic breathing exercise"),
        )
        pairs = [("calm night", calm), ("calm night", twin), ("calm night", other),
                 ("calm night", calm), ("panic at night", twin)]
        scores = judge(pairs)
        assert scores == [mock_score(q, d.text, 4) for q, d in pairs]
        assert scores[0] == scores[1] == scores[3]
        assert provider.calls == 3

    def test_rewriter_returns_single_line(self):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        rewriter = make_gateway_rewriter(gateway)
        [out] = rewriter(["cant sleep, mind racing"])
        assert "\n" not in out and out


class SleepingProvider:
    """Wraps a provider, without `generate_many`: sleeps a seeded
    `ms`/2..`ms` milliseconds per request, keyed on the request, and
    records the call count and the peak number of requests in flight."""

    def __init__(self, inner, ms: float = 0.2):
        self.inner = inner
        self.id = inner.id
        self.ms = ms
        self.calls = 0
        self.peak = 0
        self._inflight = 0
        self._lock = threading.Lock()

    def generate(self, request, prompt):
        with self._lock:
            self.calls += 1
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
        try:
            share = 0.5 + stable_hash(request.cache_key()) % 1000 / 2000
            time.sleep(self.ms * share / 1000)
            return self.inner.generate(request, prompt)
        finally:
            with self._lock:
                self._inflight -= 1


class ScriptedProvider:
    """Replies by the request's word; a word without a reply fails."""

    def __init__(self, replies: dict[str, str]):
        self.id = "scripted"
        self.replies = dict(replies)
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request, prompt):
        with self._lock:
            self.calls += 1
        reply = self.replies.get(request.bindings["word"])
        if reply is None:
            raise ProviderError("no reply")
        return reply


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    started = []

    class SpyThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", SpyThread)
    return started


class TestCompleteMany:
    def test_duplicates_reach_the_provider_once(self, started):
        provider = SleepingProvider(CountingProvider("42"))
        gateway = gw(provider, max_inflight=4)
        batch = [req("a"), req("b"), req("a"), req("a"), req("b")]
        assert gateway.complete_many(batch, parse_judge_score) == [42] * 5
        assert provider.calls == 2
        assert len(started) == 2  # one worker per distinct miss, at most max_inflight

    def test_hits_start_no_thread(self, started, tmp_path):
        path = tmp_path / "cache.jsonl"
        words = [str(i) for i in range(12)]
        provider = SleepingProvider(CountingProvider("42"))
        gateway = gw(provider, cache_path=path, max_inflight=4)
        assert gateway.complete_many([req(w) for w in words], parse_judge_score) == [42] * 12
        assert len(started) == 4
        # Memo hits, then completion-cache hits in a fresh gateway.
        assert gateway.complete_many([req(w) for w in words], parse_judge_score) == [42] * 12
        fresh = gw(SleepingProvider(CountingProvider("0")), cache_path=path, max_inflight=4)
        assert fresh.complete_many([req(w) for w in words], parse_judge_score) == [42] * 12
        assert len(started) == 4 and provider.calls == 12 and fresh.provider.calls == 0

    def test_in_process_provider_starts_no_thread(self, started):
        provider = MockProvider(seed=0)
        gateway = Gateway(provider, max_inflight=8, sleep=lambda s: None)
        judge = make_gateway_judge(gateway)
        docs = [make_doc(f"d{i}", f"calm night {i}") for i in range(10)]
        scores = judge([("calm night", d) for d in docs])
        assert scores == [mock_score("calm night", d.text, 0) for d in docs]
        assert provider.calls == 10 and started == []

    @pytest.mark.parametrize("max_inflight", [1, 3])
    def test_peak_in_flight_within_max_inflight(self, max_inflight):
        provider = SleepingProvider(CountingProvider("42"), ms=4.0)
        gateway = gw(provider, max_inflight=max_inflight)
        results = gateway.complete_many([req(str(i)) for i in range(24)], parse_judge_score)
        assert results == [42] * 24 and provider.calls == 24
        assert provider.peak <= max_inflight
        if max_inflight > 1:
            assert provider.peak > 1

    def test_failures_in_place_never_cached_or_memoised(self, tmp_path):
        provider = ScriptedProvider({"a": "42", "b": "no score here", "c": "7"})
        gateway = gw(provider, cache_path=tmp_path / "cache.jsonl", max_inflight=4)
        results = gateway.complete_many(
            [req("a"), req("b"), req("c"), req("down"), req("b")], parse_judge_score
        )
        assert results[0] == 42 and results[2] == 7
        assert isinstance(results[1], JudgeParseError) and results[4] is results[1]
        assert isinstance(results[3], ProviderError) and "after 3 attempts" in str(results[3])
        assert len(gateway.cache) == 2
        calls = provider.calls
        provider.replies["b"] = "55"
        assert gateway.complete_many([req("b")], parse_judge_score) == [55]
        assert provider.calls == calls + 1
        assert gw(ScriptedProvider({}), cache_path=tmp_path / "cache.jsonl").cache.get(
            req("b").cache_key("scripted", TEMPLATES["echo"].body_sha)
        ) == "55"

    def test_stress_each_distinct_miss_sent_once(self):
        words = [f"w{i % 97}" for i in range(600)]
        sent: dict[str, int] = {}
        lock = threading.Lock()

        class Tally:
            id = "tally"

            def generate(self, request, prompt):
                word = request.bindings["word"]
                with lock:
                    sent[word] = sent.get(word, 0) + 1
                return str(int(word[1:]) + 1)

        gateway = gw(Tally(), max_inflight=16)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: out.append(gateway.complete_many([req(w) for w in words], parse_judge_score))
            )
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert out[0] == [int(w[1:]) + 1 for w in words]
        assert sent == {f"w{i}": 1 for i in range(97)}

    def test_failed_misses_share_each_round_s_backoff(self):
        failures = {"a": 2, "b": 2}
        lock = threading.Lock()

        class Flaky:
            id = "flaky"
            calls = 0

            def generate(self, request, prompt):
                word = request.bindings["word"]
                with lock:
                    Flaky.calls += 1
                    failing = failures[word] > 0
                    failures[word] -= failing
                if failing:
                    raise ProviderError(f"{word} is down")
                return word

        waits = []
        gateway = gw(Flaky(), sleep=waits.append, max_inflight=4)
        assert gateway.complete_many([req("a"), req("b"), req("a")], str) == ["a", "b", "a"]
        assert waits == [1.0, 2.0] and Flaky.calls == 6

    def test_lines_that_arrived_are_appended_before_waiting(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        seen = []

        class WaitsForA:
            id = "waits"

            def generate(self, request, prompt):
                word = request.bindings["word"]
                if word == "b":
                    deadline = time.monotonic() + 10
                    while not (path.exists() and path.read_bytes().count(b"\n") == 1) and time.monotonic() < deadline:
                        time.sleep(0.001)
                    seen.append(path.read_bytes())
                return word

        gateway = gw(WaitsForA(), cache_path=path, max_inflight=1)
        assert gateway.complete_many([req("a"), req("b")], str) == ["a", "b"]
        key = req("a").cache_key("waits", TEMPLATES["echo"].body_sha)
        assert seen == [(json.dumps({"key": key, "template": "echo", "response": "a"}, sort_keys=True) + "\n").encode()]
        assert path.read_bytes().count(b"\n") == 2

    def test_every_worker_is_joined_before_return(self, monkeypatch):
        class SlowToExit(threading.Thread):
            def run(self):
                super().run()
                time.sleep(0.05)  # still winding down after its last reply

        monkeypatch.setattr(threading, "Thread", SlowToExit)
        before = threading.active_count()
        provider = SleepingProvider(ScriptedProvider({str(i): "42" for i in range(12)}), ms=2.0)
        gateway = gw(provider, max_inflight=4)
        results = gateway.complete_many([req(str(i)) for i in range(13)], parse_judge_score)
        assert results[:12] == [42] * 12 and isinstance(results[12], ProviderError)
        assert threading.active_count() == before

    def test_repeats_of_one_miss_object_reach_the_provider_once(self):
        provider = CountingProvider("42")
        gateway = gw(provider)
        assert gateway.complete_many([req("a")] * 50, parse_judge_score) == [42] * 50
        assert provider.calls == 1

    @pytest.mark.parametrize(
        "bad, error, match",
        [(CompletionRequest("echo", {}), TemplateError, "unbound placeholder"),
         (CompletionRequest("echo", {"word": "x", "other": "y"}), TemplateError, "unknown binding"),
         (CompletionRequest("echo", {1: "x"}), TypeError, "binding name 1"),
         (CompletionRequest("echo", {None: "x"}), TypeError, "binding name None"),
         (CompletionRequest("nope", {"word": "x"}), TemplateError, "unknown template")],
        ids=["unbound", "unknown-binding", "name-1", "name-None", "unknown-template"],
    )
    def test_names_checked_against_the_template(self, monkeypatch, bad, error, match):
        # A non-str name fails as such, before the placeholder check that
        # it would fail too; a bad request is never rendered or sent.
        rendered, sent = [], []
        render = PromptTemplate.render
        monkeypatch.setattr(PromptTemplate, "render", lambda self, b: rendered.append(dict(b)) or render(self, b))

        class Recording(CountingProvider):
            def generate(self, request, prompt):
                sent.append(request)
                return super().generate(request, prompt)

        gateway = gw(Recording("42"))
        for _ in range(2):  # a failed request is not remembered
            results = gateway.complete_many([bad, req("a"), bad], parse_judge_score)
            assert results[1] == 42
            for failed in (results[0], results[2]):
                assert type(failed) is error and re.search(match, str(failed))
        assert sent == [req("a")] and rendered == [{"word": "a"}]

    def test_values_equal_as_dict_keys_keep_their_own_keys(self, tmp_path):
        values = [1, 1.0, True, 0, 0.0, False, "1", None]
        path = tmp_path / "cache.jsonl"

        class Echo(CountingProvider):
            def generate(self, request, prompt):
                super().generate(request, prompt)
                return repr(request.bindings["word"])

        requests = [CompletionRequest("echo", {"word": value}) for value in values]
        want = [repr(value) for value in values]
        gateway = gw(Echo(), cache_path=path)
        assert gateway.complete_many(requests, str) == want
        assert gateway.complete_many(requests[::-1], str) == want[::-1]
        assert gateway.provider.calls == len(values) and len(gateway.cache) == len(values)
        gateway.close()
        fresh = gw(Echo(), cache_path=path)
        assert fresh.complete_many(requests, str) == want and fresh.provider.calls == 0
        keys = [request.cache_key("counting", TEMPLATES["echo"].body_sha) for request in requests]
        assert [fresh.cache.get(key) for key in keys] == want

    def test_unknown_template_in_place(self):
        gateway = gw(CountingProvider("42"))
        results = gateway.complete_many([req("a"), CompletionRequest("nope", {})], parse_judge_score)
        assert results[0] == 42 and isinstance(results[1], TemplateError)

    def test_batch_fills_the_memo_of_single_calls(self):
        provider = CountingProvider("42")
        gateway = gw(provider)
        gateway.complete_many([req("a")], parse_judge_score)
        assert gateway.complete_parsed(req("a"), parse_judge_score) == 42
        assert provider.calls == 1


class BatchCountingMock(MockProvider):
    """The mock, keeping the size of each `generate_many` call; a request
    whose word has failures left gets a ProviderError in place."""

    def __init__(self, failures: dict[str, int] | None = None):
        super().__init__(seed=0)
        self.batches = []
        self.failures = dict(failures or {})

    def generate_many(self, requests, render):
        self.batches.append(len(requests))
        replies = super().generate_many(requests, render)
        for n, request in enumerate(requests):
            word = request.bindings.get("word")
            if self.failures.get(word, 0) > 0:
                self.failures[word] -= 1
                replies[n] = ProviderError(f"{word} is down")
        return replies


class NoSemaphore:
    def __enter__(self):
        pytest.fail("an in-process miss took the semaphore")

    def __exit__(self, *exc):
        return False


class TestInProcessBatch:
    def test_misses_are_one_call_on_the_calling_thread(self, started):
        provider = BatchCountingMock()
        gateway = gw(provider, max_inflight=8)
        gateway._semaphore = NoSemaphore()
        words = [f"w{i}" for i in range(10)]
        replies = gateway.complete_many([req(w) for w in words + words[:4]], str)
        assert replies == [MockProvider(seed=0).generate(req(w), f"say {w}") for w in words + words[:4]]
        assert provider.batches == [10] and provider.calls == 10 and started == []
        assert gateway.complete_many([req(w) for w in words], str) == replies[:10]
        assert provider.batches == [10]

    def test_provider_error_retried_alone_with_the_policy(self, tmp_path):
        provider = BatchCountingMock({"flaky": 2, "down": 5})
        waits = []
        gateway = gw(provider, sleep=waits.append, cache_path=tmp_path / "cache.jsonl")
        results = gateway.complete_many([req("a"), req("flaky"), req("b")], str)
        assert results[0].startswith("mock-response-") and results[1].startswith("mock-response-")
        assert provider.batches == [3, 1, 1] and waits == [1.0, 2.0]
        [down] = gateway.complete_many([req("down")], str)
        assert isinstance(down, ProviderError) and str(down) == "provider 'mock-0' failed after 3 attempts: down is down"
        assert len(gateway.cache) == 3

    def test_failures_in_place_never_cached(self, tmp_path):
        gateway = gw(MockProvider(seed=0), cache_path=tmp_path / "cache.jsonl")
        bad = CompletionRequest("generate_article", {"metadata": "not json"})
        gateway.templates = {**TEMPLATES, "generate_article": PromptTemplate("generate_article", "{metadata}")}
        results = gateway.complete_many([req("a"), bad, req("a")], parse_judge_score)
        # The mock's echo reply holds an out-of-range number; the article's
        # metadata is not JSON.
        assert isinstance(results[0], JudgeParseError) and results[2] is results[0]
        assert isinstance(results[1], ValueError) and not isinstance(results[1], JudgeParseError)
        assert len(gateway.cache) == 0
        assert gateway.complete_many([req("a")], str)[0].startswith("mock-response-")
        assert len(gateway.cache) == 1

    def test_a_line_that_cannot_be_written_fails_only_its_request(self, tmp_path):
        class Surrogate(MockProvider):
            def generate_many(self, requests, render):
                replies = super().generate_many(requests, render)
                return ["\ud800" if r.bindings["word"] == "b" else reply for r, reply in zip(requests, replies)]

        gateway = gw(Surrogate(seed=0), cache_path=tmp_path / "cache.jsonl")
        results = gateway.complete_many([req("a"), req("b"), req("c")], str)
        assert isinstance(results[1], UnicodeEncodeError)
        assert results[0].startswith("mock-response-") and results[2].startswith("mock-response-")
        gateway.close()
        assert len(gw(MockProvider(seed=0), cache_path=tmp_path / "cache.jsonl").cache) == 2

    def test_provider_error_raised_by_the_batch_call_is_each_miss_first_attempt(self, tmp_path):
        class DownOnce(BatchCountingMock):
            def generate_many(self, requests, render):
                if not self.batches:
                    self.batches.append(len(requests))
                    raise ProviderError("batch lost")
                return super().generate_many(requests, render)

        provider = DownOnce()
        waits = []
        gateway = gw(provider, sleep=waits.append, cache_path=tmp_path / "cache.jsonl")
        results = gateway.complete_many([req("a"), req("b"), req("a")], str)
        assert results == [MockProvider(seed=0).generate(req(w), f"say {w}") for w in ("a", "b", "a")]
        # Both misses failed their first attempt, so both are the second round.
        assert provider.batches == [2, 2] and waits == [1.0]
        assert len(gateway.cache) == 2

    def test_failed_misses_are_retried_as_one_round(self, tmp_path):
        provider = BatchCountingMock({"a": 2, "b": 2})
        waits = []
        gateway = gw(provider, sleep=waits.append, cache_path=tmp_path / "cache.jsonl")
        results = gateway.complete_many([req("a"), req("b")], str)
        assert results == [MockProvider(seed=0).generate(req(w), f"say {w}") for w in ("a", "b")]
        assert provider.batches == [2, 2, 2] and waits == [1.0, 2.0]
        assert len(gateway.cache) == 2

    def test_other_exception_raised_by_the_batch_call_is_each_miss_result(self, tmp_path):
        class Broken(BatchCountingMock):
            def generate_many(self, requests, render):
                self.batches.append(len(requests))
                raise KeyError("routing table")

        provider = Broken()
        waits = []
        gateway = gw(provider, sleep=waits.append, cache_path=tmp_path / "cache.jsonl")
        results = gateway.complete_many([req("a"), req("b"), req("a")], str)
        assert all(isinstance(r, KeyError) for r in results)
        assert provider.batches == [2] and waits == [] and len(gateway.cache) == 0

    @pytest.mark.parametrize("keep", [1, 3])
    def test_a_wrong_number_of_replies_fails_every_miss(self, tmp_path, keep):
        class Miscounting(BatchCountingMock):
            def generate_many(self, requests, render):
                replies = super().generate_many(requests, render)
                return (replies * 2)[:keep]

        gateway = gw(Miscounting(), cache_path=tmp_path / "cache.jsonl")
        results = gateway.complete_many([req("a"), req("b")], str)
        for result in results:
            assert isinstance(result, RuntimeError) and str(result) == f"provider 'mock-0' gave {keep} replies to 2 requests"
        assert len(gateway.cache) == 0

    def test_a_subclass_overriding_generate_alone_is_refused(self):
        class OneAtATime(MockProvider):
            def generate(self, request, prompt):
                return "7"

        with pytest.raises(TypeError, match="OneAtATime overrides generate but not generate_many"):
            gw(OneAtATime())

        class Both(OneAtATime):
            def generate_many(self, requests, render):
                return ["7"] * len(requests)

        assert gw(Both()).complete_parsed(req(), parse_judge_score) == 7
        gw(BatchCountingMock())

    def test_unbound_placeholder_surfaces(self):
        gateway = gw(MockProvider(seed=0))
        with pytest.raises(TemplateError, match="word"):
            gateway.complete_parsed(CompletionRequest(template="echo", bindings={}), str)
        assert gateway.provider.calls == 0

    def test_replies_appended_128_lines_a_write(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        gateway = gw(MockProvider(seed=0), cache_path=path)
        writes = []
        put_many = gateway.cache.put_many
        monkeypatch.setattr(gateway.cache, "put_many", lambda entries: writes.append(len(entries)) or put_many(entries))
        words = [str(i) for i in range(300)]
        replies = gateway.complete_many([req(w) for w in words], str)
        gateway.close()
        assert writes == [128, 128, 44]
        key = lambda w: req(w).cache_key("mock-0", TEMPLATES["echo"].body_sha)  # noqa: E731
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps({"key": key(w), "template": "echo", "response": r}, ensure_ascii=False, sort_keys=True) + "\n"
            for w, r in zip(words, replies)
        )


def run_mini_study(out, cache_dir, max_inflight: int) -> int:
    """Label, gaps, pool scoring, both ladders, and the grid over the
    smallest and largest rung of each arm plus baseline and reference, on
    the tests' world through a sleeping provider; returns its call count."""
    world = build_world(seed=0)
    out.mkdir()
    cache_dir.mkdir()
    provider = SleepingProvider(MockProvider(seed=0))
    gateway = Gateway(
        provider, cache_path=cache_dir / "completions.jsonl", max_inflight=max_inflight,
        sleep=lambda s: None,
    )
    labelings, failures = label_batch(
        [(q.id, q.text) for q in world.train_queries], world.taxonomy, gateway
    )
    assert not failures
    write_labelings(labelings, out / "labels.jsonl")
    judge = make_gateway_judge(gateway)
    directed, nondirected = build_ladders(world, judge, sample_seed=7)
    rungs = [directed[0], directed[-1], nondirected[0], nondirected[-1]]
    corpora = [world.baseline] + rungs + [reference_corpus(world)]
    results = run_grid(
        corpora, list(Pipeline), list(world.test_queries), CachedEmbedder(world_embedder()),
        judge, make_gateway_rewriter(gateway), out_dir=out / "cells",
    )
    assert len(results) == 24 and all(r.complete for r in results)
    base = len(world.baseline)
    info = {
        c.name: CorpusInfo(c.name.split("-")[0], len(c) - base, len(c)) for c in corpora
    }
    emit_report(results, info, out / "report")
    gateway.close()
    assert provider.peak <= max_inflight
    return provider.calls


def test_mini_study_identical_at_any_max_inflight(tmp_path):
    outputs = {}
    for max_inflight in (1, 4, 16):
        out = tmp_path / f"out-{max_inflight}"
        calls = run_mini_study(out, tmp_path / f"cache-{max_inflight}", max_inflight)
        files = {
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        outputs[max_inflight] = (calls, files)
    assert outputs[1][0] > 0 and len(outputs[1][1]) > 24
    assert outputs[4] == outputs[1]
    assert outputs[16] == outputs[1]
