from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import math
import random
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpusgap import corpus as corpus_module, providers as providers_module
from corpusgap.corpus import AppendLog, Corpus, Document, IngestError, Query, Section, Source, Split
from corpusgap.gateway import Gateway, make_gateway_judge, make_gateway_rewriter
from corpusgap.providers import HashedBagEmbedder, MockProvider
from corpusgap.retrieval import (
    CachedEmbedder,
    Cell,
    CellRun,
    Pipeline,
    RetrievalResult,
    RetrievedDoc,
    Retriever,
    SearchIndex,
    _ask,
    build_chunk_index,
    build_document_index,
    merge_chunk_candidates,
    retrieve,
)

from .test_acceptance import brute_force
from .world import mock_gateway_judge, mock_score


@functools.lru_cache(maxsize=1 << 16)
def reference_bucket(token: str, dim: int) -> int:
    return int(hashlib.sha256(token.encode("utf-8")).hexdigest(), 16) % dim


def reference_embed(text: str, dim: int) -> np.ndarray:
    """`HashedBagEmbedder.embed` as it was before its plain-dict token
    memo: one `lru_cache` call per token."""
    if not text.strip():
        raise ValueError("cannot embed empty text")
    buckets = [reference_bucket(token, dim) for token in re.findall(r"\w+", text.lower())]
    vec = np.bincount(buckets, minlength=dim).astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("text produced no tokens to embed")
    return vec / norm


def brute_force_search(keys, matrix, query_vec, k):
    """Independent exhaustive scan with fsum dot products."""
    sims = [
        math.fsum(float(a) * float(b) for a, b in zip(row, query_vec)) for row in matrix
    ]
    ranked = sorted(zip(keys, sims), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


class TestHashedBagEmbedder:
    def test_deterministic(self):
        embedder = HashedBagEmbedder(dim=64)
        assert np.array_equal(embedder.embed("calm night"), embedder.embed("calm night"))

    def test_unit_norm(self):
        embedder = HashedBagEmbedder(dim=64)
        for text in ["one", "two words", "a a a b c d e f g"]:
            assert abs(float(np.linalg.norm(embedder.embed(text))) - 1.0) < 1e-9

    def test_disjoint_tokens_have_zero_cosine(self):
        # Hand-check the bucket assignments first: with no shared buckets the
        # bags cannot overlap, so the dot product must be exactly zero.
        dim = 256
        tokens = ["alpha", "beta", "gamma", "delta"]
        buckets = [
            int(hashlib.sha256(t.encode()).hexdigest(), 16) % dim for t in tokens
        ]
        assert len(set(buckets)) == 4
        embedder = HashedBagEmbedder(dim=dim)
        a = embedder.embed("alpha beta")
        b = embedder.embed("gamma delta")
        assert float(a @ b) == 0.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HashedBagEmbedder().embed("   ")

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_memoised_bucket_equals_sha256_formula(self, dim):
        embedder = HashedBagEmbedder(dim)
        tokens = ["calm", "night", "calm", "über", "x", "42"]
        embedder.embed(" ".join(tokens))
        for token in tokens:
            want = int(hashlib.sha256(token.encode("utf-8")).hexdigest(), 16) % dim
            assert embedder._buckets[token] == want
            assert providers_module._token_bucket(token, dim) == want

    @pytest.mark.parametrize("dim", [7, 256, 4096])
    def test_vectors_equal_per_token_lru_cache_embedder(self, dim):
        rng = random.Random(dim)
        alphabet = "abcxyzABC\u00dfI\u0130\u00e9\u0301\u4e2d\u0394\u03c3\u03a3_0179 \t\n.,;-'\u2028\U0001f600"
        embedder = HashedBagEmbedder(dim)
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            try:
                want = reference_embed(text, dim)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    embedder.embed(text)
                continue
            got = embedder.embed(text)
            assert got.tobytes() == want.tobytes()

    def test_token_memo_stays_within_its_bound(self, monkeypatch):
        embedder = HashedBagEmbedder(dim=64)
        tokens = [f"tok{i}" for i in range(providers_module._BUCKET_MEMO + 5000)]
        for start in range(0, len(tokens), 3000):
            text = " ".join(tokens[start : start + 3000])
            assert embedder.embed(text).tobytes() == reference_embed(text, 64).tobytes()
            assert len(embedder._buckets) <= providers_module._BUCKET_MEMO
        # A smaller bound, met one token at a time and passed within one text.
        monkeypatch.setattr(providers_module, "_BUCKET_MEMO", 50)
        for token in tokens[:120]:
            embedder.embed(token)
            assert len(embedder._buckets) <= 50
        text = " ".join(tokens[:120] * 2)
        assert embedder.embed(text).tobytes() == reference_embed(text, 64).tobytes()
        assert len(embedder._buckets) <= 50

    def test_vector_equals_per_token_counts(self):
        dim = 32
        text = "Calm calm night, night night: über x"
        want = np.zeros(dim)
        for token in ["calm", "calm", "night", "night", "night", "über", "x"]:
            want[int(hashlib.sha256(token.encode("utf-8")).hexdigest(), 16) % dim] += 1.0
        want /= np.linalg.norm(want)
        assert np.array_equal(HashedBagEmbedder(dim=dim).embed(text), want)


class TestCachedEmbedderFile:
    def test_torn_last_line_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "embeddings.jsonl"
        CachedEmbedder(HashedBagEmbedder(dim=16), path).embed("calm night")
        complete = path.read_text(encoding="utf-8")
        # A whole record that lost its newline is torn too: the next append
        # would otherwise run into it.
        path.write_text(complete + complete.rstrip("\n"), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="corpusgap.corpus"):
            embedder = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        assert "torn" in caplog.text
        assert path.read_text(encoding="utf-8") == complete
        embedder.inner = None  # a miss would fail: the vector must come from the file
        assert np.array_equal(embedder.embed("calm night"), HashedBagEmbedder(dim=16).embed("calm night"))

    def test_bad_line_in_the_middle_raises(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        embedder = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        embedder.embed("one")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"provider": \n')
        embedder.embed("two")
        with pytest.raises(ValueError, match="malformed"):
            CachedEmbedder(HashedBagEmbedder(dim=16), path)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]),
                st.floats(-1.0, 1.0).map(lambda x: float(np.nextafter(x, np.inf))),
                st.floats(-1.0, 1.0).map(lambda x: float(np.nextafter(x, -np.inf))),
            ),
            min_size=8,
            max_size=8,
        )
    )
    def test_vector_b64_round_trip_is_bit_exact(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("cache") / "embeddings.jsonl"
        vec = np.array(values, dtype=np.float64)
        CachedEmbedder(FixedEmbedder({"t": vec}), path).embed("t")
        [record] = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert set(record) == {"provider", "text_sha", "vector_b64"}
        loaded = CachedEmbedder(FixedEmbedder({}), path).embed("t")
        assert loaded.tobytes() == vec.tobytes()
        assert not loaded.flags.writeable

    def test_old_vector_lines_and_vector_b64_lines_load_together(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        inner = HashedBagEmbedder(dim=16)
        CachedEmbedder(inner, path).embed("new line")
        old = inner.embed("old line")
        text_sha = hashlib.sha256(b"old line").hexdigest()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"provider": inner.id, "text_sha": text_sha, "vector": old.tolist()}) + "\n")
        embedder = CachedEmbedder(inner, path)
        embedder.inner = None  # a miss would fail: both vectors must come from the file
        assert np.array_equal(embedder.embed("old line"), old)
        assert np.array_equal(embedder.embed("new line"), inner.embed("new line"))
        assert not embedder.embed("old line").flags.writeable

    def test_torn_vector_b64_last_line_is_re_embedded_alone(self, tmp_path, caplog):
        path = tmp_path / "embeddings.jsonl"
        CachedEmbedder(HashedBagEmbedder(dim=16), path).embed("first")
        CachedEmbedder(HashedBagEmbedder(dim=16), path).embed("second")
        whole = path.read_text(encoding="utf-8")
        first, second = whole.splitlines(keepends=True)
        assert '"vector_b64"' in second[: len(second) // 2]  # the cut falls inside the base64
        path.write_text(first + second[: len(second) // 2], encoding="utf-8")
        inner = CountingEmbedder(HashedBagEmbedder(dim=16))
        with caplog.at_level(logging.WARNING, logger="corpusgap.corpus"):
            embedder = CachedEmbedder(inner, path)
        assert "torn" in caplog.text
        assert np.array_equal(embedder.embed("first"), HashedBagEmbedder(dim=16).embed("first"))
        assert np.array_equal(embedder.embed("second"), HashedBagEmbedder(dim=16).embed("second"))
        assert inner.texts == ["second"]
        assert path.read_text(encoding="utf-8") == whole

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"vector": [0.6, 0.8]}, r"shape \(2,\), expected \(16,\)"),
            ({"vector_b64": "AAAAAAAA8D8="}, r"shape \(1,\), expected \(16,\)"),
            ({"vector_b64": "AAAA"}, "multiple of element size"),
            ({"vector_b64": "not base64!"}, "bad record"),
            ({}, "lacks field 'vector'"),
        ],
    )
    def test_bad_vector_record_names_file_and_line(self, tmp_path, field, message):
        path = tmp_path / "embeddings.jsonl"
        CachedEmbedder(HashedBagEmbedder(dim=16), path).embed("fine")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"provider": "hashed-bag-16", "text_sha": "ab", **field}) + "\n")
        with pytest.raises(IngestError, match=message) as caught:
            CachedEmbedder(HashedBagEmbedder(dim=16), path)
        assert str(caught.value).startswith(f"{path}:2: ")

    def test_record_without_provider_names_file_and_line(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.write_text('{"text_sha": "ab", "vector": [1.0]}\n', encoding="utf-8")
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}:1: record lacks field 'provider'$"):
            CachedEmbedder(HashedBagEmbedder(dim=16), path)


def vector_b64(vec: np.ndarray) -> str:
    return base64.b64encode(vec.astype("<f8").tobytes()).decode("ascii")


class TestLoadedLinesReadOnDemand:
    """Lines in the layout `embed` writes load as their spans and are
    decoded when asked; every other line of the embedder is decoded at
    load."""

    def test_cut_anywhere_in_the_last_line_loses_only_its_vector(self, tmp_path, caplog):
        path = tmp_path / "embeddings.jsonl"
        texts = ["first", "second", "third"]
        writer = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        want = {text: writer.embed(text).tobytes() for text in texts}
        writer.close()
        data = path.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last + 1, len(data)):
            path.write_bytes(data[:cut])
            inner = CountingEmbedder(HashedBagEmbedder(dim=16))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="corpusgap.corpus"):
                embedder = CachedEmbedder(inner, path)
            assert "torn" in caplog.text
            assert path.read_bytes() == data[:last]
            assert [embedder.embed(text).tobytes() for text in texts] == [want[text] for text in texts]
            assert inner.texts == ["third"]
            embedder.close()
            assert path.read_bytes() == data

    def test_bad_base64_character_is_refused_at_first_use(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        writer = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        first = writer.embed("first")
        writer.embed("calm night")
        writer.close()
        data = path.read_bytes()
        offset = data.index(b"\n") + 1
        bad = data.index(b'"vector_b64": "', offset) + len('"vector_b64": "') + 40
        path.write_bytes(data[:bad] + b"!" + data[bad + 1 :])
        inner = CountingEmbedder(HashedBagEmbedder(dim=16))
        embedder = CachedEmbedder(inner, path)  # the payload's length is right, so it loads
        for _ in range(2):
            with pytest.raises(IngestError, match=f"^{re.escape(str(path))}@{offset}: bad vector_b64: "):
                embedder.embed("calm night")
        assert embedder.embed("first").tobytes() == first.tobytes()
        assert inner.texts == []

    def test_a_file_may_mix_every_line_kind(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        base = HashedBagEmbedder(dim=16)
        writer = CachedEmbedder(base, path)
        texts = [f"text {i}" for i in range(6)]
        want = {text: base.embed(text) for text in texts}
        for text in texts[:2]:
            writer.embed(text)
        writer.close()
        sha = {text: hashlib.sha256(text.encode()).hexdigest() for text in texts}
        other = {
            texts[2]: json.dumps({"provider": base.id, "text_sha": sha[texts[2]], "vector": want[texts[2]].tolist()}),
            texts[3]: json.dumps(
                {"provider": base.id, "text_sha": sha[texts[3]], "vector_b64": vector_b64(want[texts[3]])},
                separators=(",", ":"),
            ),
            texts[4]: json.dumps(
                {"vector_b64": vector_b64(want[texts[4]]), "provider": base.id, "text_sha": sha[texts[4]]}
            ),
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in other.values()))
            fh.write(json.dumps({"provider": "another", "text_sha": sha[texts[5]], "vector": [1.0]}) + "\n")
        writer = CachedEmbedder(base, path)
        writer.embed(texts[5])  # appended after the others
        writer.close()
        inner = CountingEmbedder(base)
        embedder = CachedEmbedder(inner, path)
        spans = [text for text in texts if type(embedder._store.get(sha[text])) is tuple]
        assert spans == [texts[0], texts[1], texts[5]]
        for _ in range(2):
            for text in texts:
                vec = embedder.embed(text)
                assert vec.tobytes() == want[text].tobytes() and not vec.flags.writeable
        assert inner.texts == []

    def test_load_decodes_no_layout_line(self, tmp_path, monkeypatch):
        path = tmp_path / "embeddings.jsonl"
        writer = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        want = [writer.embed(f"text {i}").tobytes() for i in range(20)]
        writer.close()
        decodes = []
        b64decode = base64.b64decode
        monkeypatch.setattr(base64, "b64decode", lambda *a, **k: decodes.append(1) or b64decode(*a, **k))
        embedder = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        assert decodes == []
        assert [embedder.embed(f"text {i}").tobytes() for i in range(20)] == want
        assert len(decodes) == 20


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestLinesTakenByTheirBytes:
    """A line whose bytes are `embed`'s layout is taken without a JSON
    scan; a block of lines holding any other line is read as JSON. The
    cache loads what reading every line as JSON loads (`AppendLog` with
    the embedder's `_load` alone), wherever the blocks fall."""

    base = HashedBagEmbedder(dim=16)

    def record(self, text: str) -> dict:
        return {"provider": self.base.id, "text_sha": sha(text), "vector_b64": vector_b64(self.base.embed(text))}

    def layout(self, text: str) -> bytes:
        return (json.dumps(self.record(text)) + "\n").encode()

    def odd_lines(self) -> list[bytes]:
        """One line of each kind that is not taken by its bytes."""
        escaped = self.record("a a b")
        assert "+" in escaped["vector_b64"]
        reordered = self.record("reordered")
        lines = [
            # Another embedder's line in `embed`'s layout, its id as long as ours.
            json.dumps({**self.record("other"), "provider": self.base.id.replace("bag", "bug")}),
            # A 64-byte text sha holding a JSON escape.
            json.dumps(self.record("escaped sha")).replace(sha("escaped sha"), sha("escaped sha")[:58] + "\\u0061"),
            json.dumps({"provider": self.base.id, "text_sha": sha("old"), "vector": self.base.embed("old").tolist()}),
            json.dumps(self.record("spaced"), separators=(",", ":")),
            json.dumps({"vector_b64": reordered["vector_b64"], **reordered}),
            json.dumps(escaped).replace("+", "\\u002b", 1),
            # A key that a layout line holds earlier, now with a vector.
            json.dumps({"provider": self.base.id, "text_sha": sha("lead 0"), "vector": self.base.embed("x").tolist()}),
        ]
        return [(line + "\n").encode() for line in lines]

    def load_both(self, path, content: bytes) -> list:
        """The entries the cache loads from `content`, and those reading
        every line as JSON loads, with vectors as bytes; or the
        IngestError text of each."""
        outcomes = []
        as_json = CachedEmbedder(self.base)._load
        for load in (lambda: CachedEmbedder(self.base, path)._store, lambda: AppendLog(path, as_json)):
            path.write_bytes(content)
            try:
                entries = load()._entries
            except IngestError as exc:
                outcomes.append(str(exc))
                continue
            outcomes.append({key: value if type(value) is tuple else value.tobytes() for key, value in entries.items()})
            assert path.read_bytes() == content[: content.rindex(b"\n") + 1]  # the torn line is cut
        return outcomes

    @pytest.mark.parametrize("block_bytes", [1, 700, 16 << 10])
    @pytest.mark.parametrize("lead", range(4))
    def test_load_equals_reading_every_line_as_json(self, tmp_path, monkeypatch, lead, block_bytes):
        # 700 bytes are three lines: `lead` moves the block boundaries
        # onto and beside the odd lines.
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
        scanned = []
        scan_lines = corpus_module._scan_lines
        monkeypatch.setattr(corpus_module, "_scan_lines", lambda lines: scanned.extend(lines) or scan_lines(lines))
        path = tmp_path / "embeddings.jsonl"
        odd = self.odd_lines()
        head = [self.layout(f"lead {i}") for i in range(lead)]
        # "old" is a vector line in `odd`, then a layout line: the span wins.
        tail = [self.layout(text) for text in ("old", "tail 0", "tail 1")]
        torn = self.layout("torn")[:-40]
        lines = head + odd[:3] + [self.layout("between")] + odd[3:] + tail
        taken, read = self.load_both(path, b"".join(lines) + torn)
        assert taken == read
        assert taken[sha("escaped sha")[:58] + "a"] == self.base.embed("escaped sha").tobytes()
        spans = ["between", "old", "tail 0", "tail 1"] + [f"lead {i}" for i in range(1, lead)]
        assert sorted(key for key, value in taken.items() if type(value) is tuple) == sorted(map(sha, spans))
        for text, vector_text in [("lead 0", "x"), ("spaced", "spaced"), ("reordered", "reordered"), ("a a b", "a a b")]:
            assert taken[sha(text)] == self.base.embed(vector_text).tobytes()
        assert sha("other") not in taken and sha("torn") not in taken
        if block_bytes == 1:  # one line a block: the cache scans only the odd lines and the torn one
            assert scanned == odd + [torn] + lines + [torn]
        # A middle line that is the layout but for one part is refused at
        # load with its line number, as reading it as JSON refuses it: a
        # raw control character in the payload, a vector of another
        # length, another key in place of "vector_b64", another bracket.
        line = self.layout("bad")
        at = line.index(b'"vector_b64": "') + len('"vector_b64": "') + 5
        short = {**self.record("bad"), "vector_b64": vector_b64(np.ones(8))}
        for bad, error in [
            (line[:at] + b"\x01" + line[at + 1 :], "malformed record: Invalid control character"),
            ((json.dumps(short) + "\n").encode(), "bad record: vector has shape (8,), expected (16,)"),
            (line.replace(b"vector_b64", b"vector_b65"), "record lacks field 'vector'"),
            (line[:-2] + b"]\n", "malformed record: "),
        ]:
            taken, read = self.load_both(path, b"".join(head + odd[:3] + [bad] + odd[3:] + tail) + torn)
            assert taken == read
            assert taken.startswith(f"{path}:{lead + 4}: {error}")


class FixedEmbedder:
    """Returns the vectors it was given; any other text is an error."""

    id = "fixed"
    dim = 8

    def __init__(self, vectors: dict):
        self.vectors = vectors

    def embed(self, text: str) -> np.ndarray:
        return self.vectors[text].copy()


class CountingEmbedder:
    """Records the texts it embeds."""

    def __init__(self, inner):
        self.inner = inner
        self.id = inner.id
        self.dim = inner.dim
        self.texts: list[str] = []

    def embed(self, text: str) -> np.ndarray:
        self.texts.append(text)
        return self.inner.embed(text)


class TestComputedVectorsReadBack:
    """A text embedded again by the process that computed its vector gets
    that vector read back from its cache line: bit for bit, read-only,
    with no second inner call and no second line."""

    @staticmethod
    def embed_again(embedder: CachedEmbedder, text: str, first: np.ndarray) -> None:
        again = embedder.embed(text)
        assert again is not first  # read back, not kept
        assert again.tobytes() == first.tobytes() and again.dtype == first.dtype
        assert not again.flags.writeable

    def test_repeat_reads_its_line_back(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        inner = CountingEmbedder(HashedBagEmbedder(dim=16))
        embedder = CachedEmbedder(inner, path)
        first = embedder.embed("calm night")
        assert first.tobytes() == HashedBagEmbedder(dim=16).embed("calm night").tobytes()
        self.embed_again(embedder, "calm night", first)
        self.embed_again(embedder, "calm night", first)
        assert inner.texts == ["calm night"]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_repeat_after_close_reopens_the_file(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        inner = CountingEmbedder(HashedBagEmbedder(dim=16))
        embedder = CachedEmbedder(inner, path)
        first = embedder.embed("calm night")
        embedder.close()
        self.embed_again(embedder, "calm night", first)
        embedder.close()
        assert inner.texts == ["calm night"]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_non_ascii_provider_id_and_texts(self, tmp_path):
        # Spans are byte offsets into UTF-8 lines: a multi-byte provider id
        # shifts every later line's offset away from its character count.
        path = tmp_path / "embeddings.jsonl"
        base = HashedBagEmbedder(dim=16)
        base.id = 'bag-ü€𝄞-"quoted"\\'
        inner = CountingEmbedder(base)
        embedder = CachedEmbedder(inner, path)
        texts = ["nuit calme ü", "𝄞 music", "plain"]
        firsts = [embedder.embed(text) for text in texts]
        for text, first in zip(reversed(texts), reversed(firsts)):
            self.embed_again(embedder, text, first)
        assert inner.texts == texts
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        loaded = CachedEmbedder(base, path)
        loaded.inner = None  # a miss would fail: the vectors must come from the file
        assert [loaded.embed(text).tobytes() for text in texts] == [first.tobytes() for first in firsts]

    def test_repeat_after_a_torn_last_line_was_cut(self, tmp_path, caplog):
        path = tmp_path / "embeddings.jsonl"
        CachedEmbedder(HashedBagEmbedder(dim=16), path).embed("first")
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole + whole[: len(whole) // 2], encoding="utf-8")
        inner = CountingEmbedder(HashedBagEmbedder(dim=16))
        with caplog.at_level(logging.WARNING, logger="corpusgap.corpus"):
            embedder = CachedEmbedder(inner, path)
        assert "torn" in caplog.text
        loaded = embedder.embed("first")
        again = embedder.embed("first")  # read back from its line, as loaded
        assert again.tobytes() == loaded.tobytes() and not again.flags.writeable
        second = embedder.embed("second")
        self.embed_again(embedder, "second", second)
        assert inner.texts == ["second"]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_repeats_interleaved_with_other_appends(self, tmp_path):
        rng = np.random.default_rng(11)
        vectors = {f"text {i}": rng.normal(size=8) for i in range(5)}
        vectors["text 4"][3] = 5e-324  # a subnormal survives bit for bit
        path = tmp_path / "embeddings.jsonl"
        inner = CountingEmbedder(FixedEmbedder(vectors))
        embedder = CachedEmbedder(inner, path)
        order = [0, 1, 0, 2, 1, 3, 0, 4, 2, 4, 3]
        firsts: dict[str, np.ndarray] = {}
        for i in order:
            text = f"text {i}"
            if text in firsts:
                self.embed_again(embedder, text, firsts[text])
            else:
                firsts[text] = embedder.embed(text)
                assert firsts[text].tobytes() == vectors[text].tobytes()
        assert inner.texts == [f"text {i}" for i in range(5)]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 5

    def test_read_refuses_a_line_that_changed(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        embedder = CachedEmbedder(HashedBagEmbedder(dim=16), path)
        embedder.embed("calm night")
        whole = path.read_text(encoding="utf-8")
        other = tmp_path / "other.jsonl"
        CachedEmbedder(HashedBagEmbedder(dim=16), other).embed("grief")
        key = hashlib.sha256(b"calm night").hexdigest()
        gone = f"^{re.escape(str(path))}@0: the line of '{key}' is no longer there$"
        for changed in (other.read_text(encoding="utf-8"), whole.rstrip("\n"), ""):
            path.write_text(changed, encoding="utf-8")  # another key's line, a cut line, no line
            with pytest.raises(IngestError, match=gone):
                embedder.embed("calm night")

    def test_store_without_a_file_keeps_its_vectors(self):
        inner = CountingEmbedder(HashedBagEmbedder(dim=16))
        embedder = CachedEmbedder(inner)
        first = embedder.embed("calm night")
        assert embedder.embed("calm night") is first and not first.flags.writeable
        assert inner.texts == ["calm night"]


def random_unit_vectors(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def vector_index(matrix: np.ndarray, prefix: str = "v") -> SearchIndex:
    keys = [f"{prefix}{i:04d}" for i in range(len(matrix))]
    return SearchIndex(keys, matrix, HashedBagEmbedder(dim=matrix.shape[1]), "nohash", "document")


def brute_ranking(index: SearchIndex, query_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of `index` in (-similarity, key) order, by one lexsort
    over all of them, and every row's similarity."""
    rank = {key: r for r, key in enumerate(sorted(index.keys))}
    key_rank = np.array([rank[key] for key in index.keys])
    sims = index.matrix @ query_vec
    return np.lexsort((key_rank, -sims)), sims


class TestSearchIndex:
    def test_k_at_least_size_returns_all_sorted(self):
        matrix = random_unit_vectors(5, 16, seed=1)
        index = vector_index(matrix)
        hits = index.search(matrix[2], k=50)
        assert len(hits) == 5
        sims = [sim for _, sim in hits]
        assert sims == sorted(sims, reverse=True)

    def test_self_match_first_with_similarity_one(self):
        matrix = random_unit_vectors(10, 16, seed=2)
        index = vector_index(matrix)
        key, sim = index.search(matrix[4], k=1)[0]
        assert key == "v0004"
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_with_duplicates(self):
        base = random_unit_vectors(40, 32, seed=3)
        # inject exact duplicates so the key tie-break is exercised
        matrix = np.vstack([base, base[:8]])
        index = vector_index(matrix)
        query = random_unit_vectors(1, 32, seed=4)[0]
        got = index.search(query, k=20)
        want = brute_force_search(index.keys, matrix, query, 20)
        assert [(k, pytest.approx(s, abs=1e-12)) for k, s in want] == got

    def test_k_below_one_rejected(self):
        index = vector_index(random_unit_vectors(3, 8, seed=5))
        with pytest.raises(ValueError, match="k"):
            index.search(np.zeros(8), k=0)

    def test_duplicate_keys_rejected(self):
        matrix = random_unit_vectors(2, 8, seed=6)
        with pytest.raises(ValueError, match="unique"):
            SearchIndex(["a", "a"], matrix, HashedBagEmbedder(dim=8), "h", "document")

    @pytest.mark.parametrize(
        "rows, dim, message",
        [
            (3, 8, "index 'h' has 5 keys but 3 rows"),
            (7, 8, "index 'h' has 5 keys but more rows"),
            (5, 6, r"index 'h' has vectors of dimension 8, but row 0 has shape \(6,\)"),
        ],
    )
    def test_matrix_must_hold_one_row_per_key_of_the_embedder_dim(self, rows, dim, message):
        # Unchecked, 5 keys over 3 rows ranked the zero padding as keys d
        # and e, and 7 rows dropped the last 2 silently.
        matrix = random_unit_vectors(rows, dim, seed=6)
        keys = ["a", "b", "c", "d", "e"]
        for given_rows in (matrix, iter(matrix)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                SearchIndex(keys, given_rows, HashedBagEmbedder(dim=8), "h", "document")

    def test_rows_may_come_one_by_one(self):
        matrix = random_unit_vectors(21, 8, seed=7)
        keys = [f"k{i:02d}" for i in range(21)]
        streamed = SearchIndex(keys, iter(matrix), HashedBagEmbedder(dim=8), "h", "document")
        copied = SearchIndex(keys, matrix, HashedBagEmbedder(dim=8), "h", "document")
        assert streamed.matrix.tobytes() == copied.matrix.tobytes() == matrix.tobytes()
        assert streamed.search(matrix[3], 21) == copied.search(matrix[3], 21)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(0, 10**6),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_partial_cut_equals_full_sort(self, n, seed, distinct, chunk_keys):
        # Few distinct rows (some repeated many times) and small integer
        # vectors force exact ties at and around the k-th similarity.
        rng = np.random.default_rng(seed)
        distinct_rows = rng.integers(-2, 3, size=(distinct, 4)).astype(np.float64)
        matrix = distinct_rows[rng.integers(0, distinct, size=n)]
        query = rng.integers(-2, 3, size=4).astype(np.float64)
        if chunk_keys:
            keys = [(f"d{i // 3:03d}", i % 3) for i in rng.permutation(n)]
        else:
            keys = [f"k{i:03d}" for i in rng.permutation(n)]
        index = SearchIndex(keys, matrix, HashedBagEmbedder(dim=4), "h", "chunk")
        sims = matrix @ query
        full = sorted(
            ((float(sims[i]), keys[i]) for i in range(n)), key=lambda pair: (-pair[0], pair[1])
        )
        for k in sorted({1, 3, 20, n - 1, n, n + 1} - {0}):
            assert index.search(query, k) == [(key, sim) for sim, key in full[:k]]


def id_only_corpus(name: str, doc_ids) -> Corpus:
    """A corpus of stand-in documents whose only use is their ids."""
    return Corpus(
        name=name,
        documents=tuple(Document(id=d, source=Source.BASELINE, title="", sections=(Section("", "x"),)) for d in doc_ids),
    )


def sectioned_corpus(n_docs: int, seed: int) -> Corpus:
    """Documents of 1 to 4 sections; a one-section document's text is its
    chunk's text, so a chunk index built after the document index
    embeds that text again."""
    rng = random.Random(seed)
    words = ["calm", "night", "sleep", "breath", "grief", "walk", "tea", "light"]
    docs = []
    for i in range(n_docs):
        sections = tuple(
            Section(f"part {j}", " ".join(rng.choices(words, k=6)) + f" doc{i} s{j}")
            for j in range(rng.randint(1, 4))
        )
        docs.append(Document(f"d{i:04d}", Source.BASELINE, f"title {i}", sections))
    return Corpus("sectioned", tuple(docs))


class TestIndexMatrixFilledInPlace:
    def test_builders_matrix_equals_the_embedded_vectors(self, tmp_path):
        corpus = sectioned_corpus(37, seed=3)
        inner = CountingEmbedder(HashedBagEmbedder(dim=32))
        embedder = CachedEmbedder(inner, tmp_path / "embeddings.jsonl")
        doc_index = build_document_index(corpus, embedder)
        chunk_index = build_chunk_index(corpus, embedder)
        doc_vectors = np.stack([embedder.embed(doc.text) for doc in corpus.documents])
        chunk_texts = [doc.section_text(i) for doc in corpus.documents for i in range(len(doc.sections))]
        chunk_vectors = np.stack([embedder.embed(text) for text in chunk_texts])
        assert len(inner.texts) == len(set(inner.texts)) == len({doc.text for doc in corpus.documents} | set(chunk_texts))
        for index, vectors in [(doc_index, doc_vectors), (chunk_index, chunk_vectors)]:
            n = len(vectors)
            assert index.matrix.tobytes() == vectors.tobytes()
            assert index._padded.shape == (n + -n % 16, 32) and n % 16
            assert np.shares_memory(index.matrix, index._padded)
            assert not index._padded[n:].any()

    def test_chunk_index_build_holds_about_one_matrix(self, tmp_path):
        # One padded matrix of 2,000 rows of 256 float64s is 4 MB. The
        # builder writes each vector into its row and the cache keeps only
        # its line's place in the file, so the traced peak stays near one
        # matrix; a list of vectors, their stack and a padded copy, next to
        # the cache's own copies, reached about three.
        corpus = Corpus(
            "memory",
            tuple(
                Document(f"d{i:03d}", Source.BASELINE, f"title {i}", tuple(Section(f"h{j}", f"calm night {i} {j}") for j in range(8)))
                for i in range(250)
            ),
        )
        embedder = CachedEmbedder(HashedBagEmbedder(dim=256), tmp_path / "embeddings.jsonl")
        embedder.embed("warm up the encoders")
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            index = build_chunk_index(corpus, embedder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == 2000 and index._padded.nbytes == 2000 * 256 * 8
        assert peak - start < 1.5 * index._padded.nbytes


class TestSubsetIndex:
    """A corpus's rows of a shared index search exactly like an index
    built from that corpus alone."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_subset_equals_standalone_index_and_brute_force(self, seed, integer_rows):
        rng = np.random.default_rng(seed)
        n_docs, dim = int(rng.integers(1, 40)), 48
        # Few distinct rows, each used many times: duplicate vectors and,
        # for small integer rows, exactly tied similarities.
        if integer_rows:
            distinct = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), dim)).astype(np.float64)
        else:
            distinct = random_unit_vectors(int(rng.integers(1, 8)), dim, seed)
        doc_ids = [f"d{i:03d}" for i in rng.permutation(n_docs)]
        sections = {d: int(rng.integers(1, 5)) for d in doc_ids}
        doc_vecs = {d: distinct[rng.integers(len(distinct))] for d in doc_ids}
        chunk_vecs = {(d, j): distinct[rng.integers(len(distinct))] for d in doc_ids for j in range(sections[d])}
        embedder = HashedBagEmbedder(dim=dim)

        def indexes(ids, name):
            chunk_keys = [key for key in chunk_vecs if key[0] in ids]
            return (
                SearchIndex(ids, np.stack([doc_vecs[d] for d in ids]), embedder, name, "document"),
                SearchIndex(chunk_keys, np.stack([chunk_vecs[k] for k in chunk_keys]), embedder, name, "chunk"),
            )

        union_docs, union_chunks = indexes(doc_ids, "union")
        for trial in range(3):
            size = int(rng.integers(1, n_docs + 1))
            # The corpus lists its documents in an order of its own.
            ids = [doc_ids[i] for i in rng.choice(n_docs, size=size, replace=False)]
            corpus = id_only_corpus(f"c{trial}", ids)
            alone_docs, alone_chunks = indexes(ids, corpus.name)
            sub_docs, sub_chunks = union_docs.subset(corpus), union_chunks.subset(corpus)
            assert (len(sub_docs), len(sub_chunks)) == (len(alone_docs), len(alone_chunks))
            query = (
                distinct[rng.integers(len(distinct))] if rng.random() < 0.5
                else rng.integers(-2, 3, size=dim).astype(np.float64)
            )
            for sub, alone in ((sub_docs, alone_docs), (sub_chunks, alone_chunks)):
                for k in sorted({1, 3, 20, len(alone), len(alone) + 1}):
                    got = sub.search(query, k)
                    assert got == alone.search(query, k)
                    assert [key for key, _ in got] == brute_force(alone.keys, alone.matrix, query, k)
            for k_candidates in (1, 2, 20):
                min_docs = min(3, size)
                assert merge_chunk_candidates(sub_chunks, query, k_candidates, min_docs) == (
                    merge_chunk_candidates(alone_chunks, query, k_candidates, min_docs)
                )

    def test_chunk_merge_doubles_its_depth_inside_the_subset(self):
        # d0 holds the eight chunks nearest the query; the subset needs the
        # doubling loop to reach d1 and d2, and must not return d9.
        embedder = HashedBagEmbedder(dim=2)
        keys = [("d0", j) for j in range(8)] + [("d9", 0), ("d1", 0), ("d2", 0)]
        matrix = np.array([[1.0, 0.0]] * 8 + [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        union = SearchIndex(keys, matrix, embedder, "union", "chunk")
        corpus = id_only_corpus("c", ["d0", "d1", "d2"])
        merged = merge_chunk_candidates(union.subset(corpus), np.array([1.0, 0.0]), 2, 3)
        assert [doc_id for doc_id, _ in merged] == ["d0", "d1", "d2"]

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_subset_needs_a_deep_walk(self, seed):
        # A few rows from the bottom of a 1,500-row ranking, and one from
        # anywhere: the prefix walk must double far past 2k to reach them.
        # Integer rows on odd seeds give many exactly tied similarities.
        rng = np.random.default_rng(seed)
        if seed % 2:
            matrix = rng.integers(-1, 2, size=(1500, 16)).astype(np.float64)
        else:
            matrix = random_unit_vectors(1500, 16, seed)
        index = vector_index(matrix)
        query = matrix[int(rng.integers(1500))]
        order, _ = brute_ranking(index, query)
        rows = sorted(set(order[-3:].tolist()) | {int(rng.integers(1500))})
        ids = [index.keys[i] for i in rows]
        subset = index.subset(id_only_corpus("sparse", ids))
        alone = SearchIndex(ids, matrix[rows], index.embedder, "sparse", "document")
        for k in (1, 2, 3, len(ids)):
            assert subset.search(query, k) == alone.search(query, k)
            assert len(subset.search(query, k)) == k

    @pytest.mark.parametrize("k", [4, 5, 9, 40, 10_000])
    def test_k_beyond_the_subset_returns_the_whole_subset(self, k):
        matrix = random_unit_vectors(30, 8, seed=11)
        index = vector_index(matrix)
        ids = index.keys[5:30:7]
        subset = index.subset(id_only_corpus("c", ids))
        alone = SearchIndex(ids, matrix[5:30:7], index.embedder, "c", "document")
        got = subset.search(matrix[0], k)
        assert got == alone.search(matrix[0], k) and sorted(key for key, _ in got) == ids

    def test_views_share_one_prefix_shorter_than_the_index(self):
        matrix = random_unit_vectors(1200, 8, seed=7)
        index = vector_index(matrix)
        sparse = index.subset(id_only_corpus("sparse", index.keys[::40]))
        dense = index.subset(id_only_corpus("dense", index.keys[::3]))
        sparse.search(matrix[3], 4)
        index.search(matrix[3], 4)
        dense.search(matrix[3], 4)
        index.search(matrix[5], 4)
        prefixes = index._shared.prefixes
        assert len(prefixes) == 2 and sparse._shared is dense._shared is index._shared
        # The sparse view holds 30 of the 1,200 rows: 4 of them lie about
        # 160 rows deep, and the prefix stops there, far short of every row.
        order, sims = prefixes[matrix[3].tobytes()][:2]
        assert 4 <= len(order) < len(index) // 2 and len(sims) == len(order)
        assert np.count_nonzero(sparse.rows[order]) >= 4 and np.count_nonzero(dense.rows[order]) >= 4

    def test_empty_or_foreign_corpus_refused(self):
        index = vector_index(random_unit_vectors(3, 8, seed=8))
        with pytest.raises(ValueError, match="corpus 'none' is empty"):
            index.subset(Corpus(name="none", documents=()))
        with pytest.raises(ValueError, match="lacks documents of corpus 'c'"):
            index.subset(id_only_corpus("c", ["v0000", "zz"]))


class TestPrefixSearch:
    """Every search reads its top k off the prefix an index shares with
    its views, and equals the brute-force (-similarity, key) order, in
    whatever order views are made and searched."""

    @staticmethod
    def same(got: list, want: list) -> bool:
        """Equal keys and bit-equal similarities; NaN equals NaN."""
        as_bytes = lambda hits: ([key for key, _ in hits], np.array([sim for _, sim in hits]).tobytes())
        return as_bytes(got) == as_bytes(want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 3))
    def test_searches_equal_the_brute_force_order(self, seed, nan_rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 70))
        # Rows and queries of -1, 0 and 1 tie exactly, at every cut; a NaN
        # row has a NaN similarity, which the full order ranks last.
        matrix = rng.integers(-1, 2, size=(n, 4)).astype(np.float64)
        matrix[rng.integers(n, size=nan_rows)] = np.nan
        queries = rng.integers(-1, 2, size=(3, 4)).astype(np.float64)
        # Keys in an order of their own, so a tie is broken by key, not row.
        keys = [f"v{i:04d}" for i in rng.permutation(n)]
        index = SearchIndex(keys, matrix, HashedBagEmbedder(dim=4), "nohash", "document")
        searched = [index]
        for _ in range(16):
            if rng.random() < 0.3:  # a view, made after searches of these vectors
                size = int(rng.integers(1, n + 1))
                ids = [index.keys[i] for i in rng.choice(n, size=size, replace=False)]
                searched.append(index.subset(id_only_corpus(f"c{len(searched)}", ids)))
            target = searched[int(rng.integers(len(searched)))]
            k = int(rng.choice([1, 2, 5, max(1, len(target) - 1), len(target), len(target) + 1, 3 * n]))
            query = queries[rng.integers(len(queries))]
            got = target.search(query, k)
            assert self.same(got, reference_search(target, query, k))
            assert len(got) == min(k, len(target))


def doc(doc_id: str, body: str, subtopic: str | None = None, sections=None) -> Document:
    if sections is None:
        sections = (Section(heading="", body=body),)
    return Document(
        id=doc_id, source=Source.BASELINE, title=body.split()[0], sections=sections, subtopic=subtopic
    )


def query(text: str, qid: str = "q1") -> Query:
    return Query(id=qid, text=text, split=Split.TEST)


@pytest.fixture
def embedder():
    return HashedBagEmbedder(dim=128)


class TestBaselinePipeline:
    def test_tiny_corpus_returns_all_in_order(self, embedder):
        corpus = Corpus(
            name="c",
            documents=(doc("d1", "alpha beta"), doc("d2", "alpha"), doc("d3", "zeta")),
        )
        index = build_document_index(corpus, embedder)
        [result] = retrieve(Pipeline.BASELINE, [query("alpha beta")], index)
        assert len(result.top_docs) == 3
        sims = [d.similarity for d in result.top_docs]
        assert sims == sorted(sims, reverse=True)
        assert result.top_docs[0].judge_score is None

    def test_textually_identical_doc_ranks_first(self, embedder):
        exact = Document(
            id="d1", source=Source.BASELINE, title="",
            sections=(Section(heading="", body="alpha beta gamma"),),
        )
        corpus = Corpus(name="c", documents=(exact, doc("d2", "alpha delta epsilon")))
        index = build_document_index(corpus, embedder)
        [result] = retrieve(Pipeline.BASELINE, [query("alpha beta gamma")], index)
        assert result.top_docs[0].doc_id == "d1"
        assert result.top_docs[0].similarity == pytest.approx(1.0, abs=1e-9)

    def test_equals_brute_force_top3(self, embedder):
        rng = random.Random(8)
        vocab = [f"tok{i}" for i in range(40)]
        docs = tuple(
            doc(f"d{i:02d}", " ".join(rng.sample(vocab, 6))) for i in range(30)
        )
        corpus = Corpus(name="c", documents=docs)
        index = build_document_index(corpus, embedder)
        q = query(" ".join(rng.sample(vocab, 5)))
        [result] = retrieve(Pipeline.BASELINE, [q], index)
        qvec = embedder.embed(q.text)
        want = brute_force_search(index.keys, index.matrix, qvec, 3)
        assert [d.doc_id for d in result.top_docs] == [k for k, _ in want]


class TestHierarchicalPipeline:
    def test_chunks_from_same_doc_deduplicate(self, embedder):
        corpus = Corpus(
            name="c",
            documents=(
                doc(
                    "d1",
                    "alpha",
                    sections=(Section("", "alpha beta"), Section("", "alpha beta gamma")),
                ),
                doc("d2", "delta"),
            ),
        )
        index = build_chunk_index(corpus, embedder)
        candidates = merge_chunk_candidates(index, embedder.embed("alpha beta"), 20, 1)
        assert [doc_id for doc_id, _ in candidates].count("d1") == 1

    def test_single_section_candidates_match_baseline(self, embedder):
        rng = random.Random(9)
        vocab = [f"tok{i}" for i in range(50)]
        docs = tuple(
            doc(f"d{i:02d}", " ".join(rng.sample(vocab, 6))) for i in range(40)
        )
        corpus = Corpus(name="c", documents=docs)
        doc_index = build_document_index(corpus, embedder)
        chunk_index = build_chunk_index(corpus, embedder)
        q = " ".join(rng.sample(vocab, 5))
        qvec = embedder.embed(q)
        baseline_hits = {key for key, _ in doc_index.search(qvec, 20)}
        merged = {doc_id for doc_id, _ in merge_chunk_candidates(chunk_index, qvec, 20, 3)}
        assert merged == baseline_hits

    def test_final_order_follows_judge(self, embedder):
        corpus = Corpus(
            name="c",
            documents=(doc("d1", "alpha beta"), doc("d2", "alpha gamma"), doc("d3", "alpha")),
        )
        chunk_index = build_chunk_index(corpus, embedder)
        [result] = retrieve(Pipeline.HIERARCHICAL, [query("alpha beta")], chunk_index, corpus, mock_gateway_judge(0))
        expected = sorted(
            (
                (mock_score("alpha beta", corpus.document(d).text, 0), d)
                for d in ("d1", "d2", "d3")
            ),
            key=lambda pair: -pair[0],
        )
        assert [d.doc_id for d in result.top_docs][0] == expected[0][1]
        scores = [d.judge_score for d in result.top_docs]
        assert scores == sorted(scores, reverse=True)

    def test_chunk_hog_still_returns_three_docs(self, embedder):
        hog_sections = tuple(Section(f"h{i}", "alpha beta") for i in range(30))
        corpus = Corpus(
            name="c",
            documents=(
                doc("d1", "alpha", sections=hog_sections),
                doc("d2", "alpha gamma"),
                doc("d3", "alpha delta"),
                doc("d4", "zeta"),
            ),
        )
        chunk_index = build_chunk_index(corpus, embedder)
        [result] = retrieve(Pipeline.HIERARCHICAL, [query("alpha beta")], chunk_index, corpus, mock_gateway_judge(0))
        assert len({d.doc_id for d in result.top_docs}) == 3


class TestRerankingPipeline:
    def test_small_corpus_judges_everything(self, embedder):
        corpus = Corpus(
            name="c",
            documents=(doc("d1", "alpha"), doc("d2", "beta"), doc("d3", "gamma")),
        )
        index = build_document_index(corpus, embedder)
        scripted = {"d1": 10, "d2": 90, "d3": 50}
        [result] = retrieve(
            Pipeline.RERANKING, [query("alpha")], index, corpus, lambda pairs: [scripted[d.id] for _, d in pairs]
        )
        assert [d.doc_id for d in result.top_docs] == ["d2", "d3", "d1"]

    def test_low_cosine_high_judge_reaches_top(self, embedder):
        # 19 near-duplicates of the query plus one barely-similar doc that
        # the judge loves: rerank semantics must surface it.
        docs = [doc(f"d{i:02d}", f"alpha beta tok{i}") for i in range(19)]
        docs.append(doc("d99", "alpha junk1 junk2 junk3 junk4 junk5"))
        corpus = Corpus(name="c", documents=tuple(docs))
        index = build_document_index(corpus, embedder)
        hits = index.search(embedder.embed("alpha beta"), 20)
        assert ("d99", hits[-1][1]) == hits[-1]  # weakest of the candidate set
        judge = lambda pairs: [99 if d.id == "d99" else 40 for _, d in pairs]
        [result] = retrieve(Pipeline.RERANKING, [query("alpha beta")], index, corpus, judge)
        assert result.top_docs[0].doc_id == "d99"

    def test_matches_two_stage_brute_force(self, embedder):
        rng = random.Random(10)
        vocab = [f"tok{i}" for i in range(60)]
        docs = tuple(doc(f"d{i:02d}", " ".join(rng.sample(vocab, 6))) for i in range(35))
        corpus = Corpus(name="c", documents=docs)
        index = build_document_index(corpus, embedder)
        q = query(" ".join(rng.sample(vocab, 5)))
        [result] = retrieve(Pipeline.RERANKING, [q], index, corpus, mock_gateway_judge(3))

        qvec = embedder.embed(q.text)
        stage_one = brute_force_search(index.keys, index.matrix, qvec, 20)
        stage_two = sorted(
            (
                (-mock_score(q.text, corpus.document(k).text, 3), -sim, k)
                for k, sim in stage_one
            )
        )[:3]
        assert [d.doc_id for d in result.top_docs] == [k for _, _, k in stage_two]


class TestQueryTransformationPipeline:
    def test_identity_rewriter_matches_reranking(self, embedder):
        rng = random.Random(11)
        vocab = [f"tok{i}" for i in range(40)]
        docs = tuple(doc(f"d{i:02d}", " ".join(rng.sample(vocab, 6))) for i in range(25))
        corpus = Corpus(name="c", documents=docs)
        index = build_document_index(corpus, embedder)
        judge = mock_gateway_judge(1)
        q = query(" ".join(rng.sample(vocab, 5)))
        [rerank] = retrieve(Pipeline.RERANKING, [q], index, corpus, judge)
        [transformed] = retrieve(
            Pipeline.QUERY_TRANSFORMATION, [q], index, corpus, judge, rewriter=list
        )
        assert transformed.top_docs == rerank.top_docs
        assert transformed.query_id == rerank.query_id
        assert transformed.rewritten_query == q.text
        assert rerank.rewritten_query is None

    def test_retrieval_keys_off_rewritten_text(self, embedder):
        corpus = Corpus(
            name="c",
            documents=(
                doc("d1", "insomnia strategies nighttime anxiety"),
                doc("d2", "cant sleep mind racing"),
            ),
        )
        index = build_document_index(corpus, embedder)
        mapping = {"cant sleep, mind racing": "strategies for insomnia and nighttime anxiety"}
        [result] = retrieve(
            Pipeline.QUERY_TRANSFORMATION, [query("cant sleep, mind racing")],
            index,
            corpus,
            judge=lambda pairs: [50] * len(pairs),
            rewriter=lambda texts: [mapping[t] for t in texts],
        )
        assert result.rewritten_query == "strategies for insomnia and nighttime anxiety"
        assert result.top_docs[0].doc_id == "d1"

    def test_rewriter_failure_surfaces(self, embedder):
        corpus = Corpus(name="c", documents=(doc("d1", "alpha"),))
        index = build_document_index(corpus, embedder)

        def broken(texts):
            return [RuntimeError("rewriter down") for _ in texts]

        with pytest.raises(RuntimeError, match="rewriter down"):
            list(retrieve(
                Pipeline.QUERY_TRANSFORMATION, [query("alpha")], index, corpus,
                judge=lambda pairs: [50] * len(pairs), rewriter=broken,
            ))

    def test_end_to_end_determinism_with_gateway(self, embedder):
        corpus = Corpus(
            name="c",
            documents=(doc("d1", "alpha beta"), doc("d2", "beta gamma"), doc("d3", "gamma")),
        )
        index = build_document_index(corpus, embedder)

        def run():
            gateway = Gateway(MockProvider(seed=6), sleep=lambda s: None)
            return list(retrieve(
                Pipeline.QUERY_TRANSFORMATION, [query("alpha gamma")],
                index,
                corpus,
                judge=make_gateway_judge(gateway),
                rewriter=make_gateway_rewriter(gateway),
            ))

        assert run() == run()


class TestPipelineInvariants:
    @pytest.mark.parametrize("n_docs", [1, 2, 3, 5])
    def test_all_pipelines_return_min3_distinct(self, embedder, n_docs):
        docs = tuple(doc(f"d{i}", f"alpha tok{i}") for i in range(n_docs))
        corpus = Corpus(name="c", documents=docs)
        doc_index = build_document_index(corpus, embedder)
        chunk_index = build_chunk_index(corpus, embedder)
        judge = mock_gateway_judge(0)
        q = query("alpha")
        results = [
            *retrieve(Pipeline.BASELINE, [q], doc_index),
            *retrieve(Pipeline.HIERARCHICAL, [q], chunk_index, corpus, judge),
            *retrieve(Pipeline.RERANKING, [q], doc_index, corpus, judge),
            *retrieve(Pipeline.QUERY_TRANSFORMATION, [q], doc_index, corpus, judge, rewriter=list),
        ]
        for result in results:
            ids = [d.doc_id for d in result.top_docs]
            assert len(ids) == min(3, n_docs)
            assert len(set(ids)) == len(ids)

    def test_judged_pipelines_nonincreasing_in_judge_score(self, embedder):
        docs = tuple(doc(f"d{i}", f"alpha tok{i}") for i in range(8))
        corpus = Corpus(name="c", documents=docs)
        doc_index = build_document_index(corpus, embedder)
        chunk_index = build_chunk_index(corpus, embedder)
        judge = mock_gateway_judge(2)
        q = query("alpha tok1 tok2")
        for result in (
            *retrieve(Pipeline.HIERARCHICAL, [q], chunk_index, corpus, judge),
            *retrieve(Pipeline.RERANKING, [q], doc_index, corpus, judge),
        ):
            scores = [d.judge_score for d in result.top_docs]
            assert scores == sorted(scores, reverse=True)

    def test_rewritten_query_only_on_transformation(self, embedder):
        corpus = Corpus(name="c", documents=(doc("d1", "alpha"),))
        index = build_document_index(corpus, embedder)
        [result] = retrieve(Pipeline.BASELINE, [query("alpha")], index)
        assert result.pipeline is Pipeline.BASELINE
        assert result.rewritten_query is None


class TestRetrieveGuards:
    @pytest.mark.parametrize(
        "pipeline, kind, rewriter, message",
        [
            (Pipeline.HIERARCHICAL, "document", None, "chunk-level index .* document index of 'c'"),
            (Pipeline.BASELINE, "chunk", None, "document-level index .* chunk index of 'c'"),
            (Pipeline.RERANKING, "chunk", None, "document-level index .* chunk index of 'c'"),
            (Pipeline.QUERY_TRANSFORMATION, "chunk", list, "document-level index .* chunk index of 'c'"),
            (Pipeline.QUERY_TRANSFORMATION, "document", None, "needs a rewriter"),
        ],
        ids=[
            "hierarchical-doc-index",
            "baseline-chunk-index",
            "reranking-chunk-index",
            "query_transformation-chunk-index",
            "query_transformation-no-rewriter",
        ],
    )
    def test_misconfigured_pipeline_refused(self, embedder, pipeline, kind, rewriter, message):
        corpus = Corpus(name="c", documents=(doc("d1", "alpha"), doc("d2", "alpha beta")))
        build = build_chunk_index if kind == "chunk" else build_document_index
        index = build(corpus, embedder)
        with pytest.raises(ValueError, match=message):
            list(retrieve(pipeline, [query("alpha")], index, corpus, mock_gateway_judge(0), rewriter))


class CountingJudge:
    """A gateway judge that records each batch it is handed."""

    def __init__(self, gateway):
        self.inner = make_gateway_judge(gateway)
        self.batches = []

    def __call__(self, pairs):
        self.batches.append([(query_text, doc.id) for query_text, doc in pairs])
        return self.inner(pairs)


class TestBatchRetrieve:
    @pytest.fixture
    def setting(self, embedder):
        rng = random.Random(12)
        vocab = [f"tok{i}" for i in range(40)]
        docs = tuple(
            doc(
                f"d{i:02d}",
                "x",
                sections=tuple(Section(f"h{j}", " ".join(rng.sample(vocab, 5))) for j in range(1 + i % 3)),
            )
            for i in range(30)
        )
        corpus = Corpus(name="c", documents=docs)
        texts = [" ".join(rng.sample(vocab, 4)) for _ in range(6)]
        # q6 repeats q1's text, so the batch holds repeated pairs
        queries = [query(text, f"q{i}") for i, text in enumerate(texts)] + [query(texts[1], "q6")]
        indexes = {
            pipeline: build_chunk_index(corpus, embedder)
            if pipeline is Pipeline.HIERARCHICAL
            else build_document_index(corpus, embedder)
            for pipeline in Pipeline
        }
        return corpus, queries, indexes

    @pytest.mark.parametrize("pipeline", list(Pipeline))
    def test_batch_equals_single_query_runs(self, setting, pipeline):
        corpus, queries, indexes = setting
        judge = mock_gateway_judge(4)
        rewriter = lambda texts: [text + " tok7" for text in texts]
        args = (indexes[pipeline], corpus, judge, rewriter)
        batch = list(retrieve(pipeline, queries, *args))
        singles = [result for q in queries for result in retrieve(pipeline, [q], *args)]
        assert [r.query_id for r in batch] == [q.id for q in queries]
        assert batch == singles
        for result in batch:
            assert len(result.top_docs) == 3
            assert all(isinstance(d.judge_score, int) for d in result.top_docs)

    @pytest.mark.parametrize("pipeline", list(Pipeline))
    def test_each_distinct_pair_judged_once_per_batch(self, setting, pipeline):
        corpus, queries, indexes = setting
        provider = MockProvider(seed=3)
        judge = CountingJudge(Gateway(provider, sleep=lambda s: None))
        results = list(retrieve(pipeline, queries, indexes[pipeline], corpus, judge, list))
        [batch] = judge.batches
        # q6 repeats q1's text: its pairs are q1's, and the batch holds them once
        assert len(set(batch)) == len(batch)
        assert provider.calls_by_template["usefulness_rubric"] == len(batch)
        text = {q.id: q.text for q in queries}
        assert {(text[r.query_id], d.doc_id) for r in results for d in r.top_docs} <= set(batch)
        assert results[6].top_docs == results[1].top_docs


def reference_search(index: SearchIndex, query_vec, k: int) -> list:
    """`SearchIndex.search` as first written, over the brute-force
    ranking: one float() per kept row."""
    order, sims = brute_ranking(index, query_vec)
    if index.rows is not None:
        order = order[index.rows[order]]
    return [(index.keys[i], float(sims[i])) for i in order[:k].tolist()]


@dataclass(frozen=True)
class Candidate:
    doc_id: str
    similarity: float


class ReferenceRetriever(Retriever):
    """Find and rank as first written: a Candidate for every candidate, and
    a RetrievedDoc for every candidate, sorted by a key function."""

    def _candidates(self, cell, search_text):
        index = cell.index
        key = (index.embedder.id, search_text)
        query_vec = self._vectors.get(key)
        if query_vec is None:
            query_vec = self._vectors[key] = index.embedder.embed(search_text)
        if cell.pipeline is Pipeline.HIERARCHICAL:
            min_docs = min(self.top_k, len(cell.corpus))
            k = self.k_candidates
            while True:
                best = {}
                for (doc_id, _section), sim in reference_search(index, query_vec, k):
                    if doc_id not in best:
                        best[doc_id] = sim
                if len(best) >= min_docs or k >= len(index):
                    break
                k = min(k * 2, len(index))
            candidates = [Candidate(doc_id=d, similarity=s) for d, s in best.items()]
            candidates.sort(key=lambda c: (-c.similarity, c.doc_id))
            return candidates
        k = min(self.k_candidates, self.top_k) if cell.pipeline is Pipeline.BASELINE else self.k_candidates
        return [Candidate(doc_id, sim) for doc_id, sim in reference_search(index, query_vec, k)]

    def _judge_new_pairs(self, cells, found):
        pending = {}
        for cell, (cell_found, _) in zip(cells, found):
            if not self._scored(cell):
                continue
            for query, _, candidates in cell_found:
                for c in candidates:
                    pair = (query.text, c.doc_id)
                    if pair not in self._scores and pair not in pending:
                        pending[pair] = (query.text, cell.corpus.document(c.doc_id))
        failures = {}
        if pending:
            for pair, reply in zip(pending, _ask(self.judge, list(pending.values()))):
                if isinstance(reply, Exception):
                    failures[pair] = reply
                else:
                    self._scores[pair] = reply
        return failures

    def _rank(self, cell, found, error, failures):
        scored = self._scored(cell)
        judged = cell.pipeline is not Pipeline.BASELINE
        results = []
        for query, rewritten, candidates in found:
            top = []
            for c in candidates:
                score = None
                if scored:
                    try:
                        score = self._scores[query.text, c.doc_id]
                    except KeyError:
                        return CellRun(tuple(results), failures[query.text, c.doc_id])
                top.append(RetrievedDoc(c.doc_id, score, c.similarity))
            if judged:
                top.sort(key=lambda d: (-d.judge_score, -d.similarity, d.doc_id))
            results.append(RetrievalResult(query.id, cell.pipeline, tuple(top[: self.top_k]), rewritten))
        return CellRun(tuple(results), error)


class TestFindRankMatchesReference:
    """`Retriever.run` gives what the first-written find and rank gave, on
    seeded grids full of tied similarities and tied judge scores."""

    def test_runs_equal_the_reference(self):
        partway = tied = 0
        for seed in range(40):
            runs = self.check_seed(seed)
            partway += sum(bool(r.results) and r.error is not None for r in runs)
            tied += sum(
                len({d.judge_score for d in result.top_docs}) < len(result.top_docs)
                for r in runs
                for result in r.results
                if result.pipeline is not Pipeline.BASELINE
            )
        # The seeds reach what the ranking must get right: cells that fail
        # after some queries, and top documents that tie on score.
        assert partway >= 5 and tied >= 20

    @staticmethod
    def check_seed(seed: int) -> list:
        """The last chunk's runs with a judge, after checking every run."""
        rng = np.random.default_rng(seed)
        # A few integer vectors, reused: many exactly tied similarities.
        distinct = rng.integers(-1, 2, size=(int(rng.integers(2, 5)), 8)).astype(np.float64)
        n_docs = int(rng.integers(3, 30))
        doc_ids = [f"d{i:02d}" for i in rng.permutation(n_docs)]
        sections = {d: int(rng.integers(1, 4)) for d in doc_ids}
        chunk_keys = [(d, j) for d in doc_ids for j in range(sections[d])]
        texts = [f"query {i}" for i in range(4)]
        vectors = {t: distinct[rng.integers(len(distinct))] for t in texts + [t + " again" for t in texts]}
        embedder = FixedEmbedder(vectors)
        union = SearchIndex(doc_ids, distinct[rng.integers(len(distinct), size=n_docs)], embedder, "u", "document")
        union_chunks = SearchIndex(
            chunk_keys, distinct[rng.integers(len(distinct), size=len(chunk_keys))], embedder, "u", "chunk"
        )
        documents = {d: doc(d, f"text of {d}") for d in doc_ids}
        corpora = []
        for c in range(3):
            ids = rng.choice(doc_ids, size=int(rng.integers(1, n_docs + 1)), replace=False)
            corpora.append(Corpus(name=f"c{c}", documents=tuple(documents[d] for d in ids)))
        queries = [query(texts[rng.integers(len(texts))], f"q{i}") for i in range(int(rng.integers(1, 9)))]
        scores = {(t, d): int(rng.integers(1, 4)) for t in texts for d in doc_ids}
        failing = {pair for pair in scores if rng.random() < 0.04}
        failing_rewrite = texts[seed % 4] if seed % 3 == 0 else None

        def judge(pairs):
            return [
                RuntimeError(f"judge failed on {(t, d.id)}") if (t, d.id) in failing else scores[t, d.id]
                for t, d in pairs
            ]

        def rewriter(batch):
            return [ValueError(f"no rewrite of {t}") if t == failing_rewrite else t + " again" for t in batch]

        cells = [
            Cell(pipeline, (union_chunks if pipeline is Pipeline.HIERARCHICAL else union).subset(corpus), corpus)
            for corpus in corpora
            for pipeline in Pipeline
        ]
        cells.append(Cell(Pipeline.BASELINE, union, None))
        top_k, k_candidates = int(rng.choice([1, 3])), int(rng.choice([1, 2, 5, 20]))
        judged_runs = []
        for with_judge in (judge, None):
            got_retriever = Retriever(with_judge, rewriter, k_candidates, top_k)
            want_retriever = ReferenceRetriever(with_judge, rewriter, k_candidates, top_k)
            # Two calls on one retriever, as the grid runs its chunks.
            for chunk in (cells[:7], cells[7:]):
                got = got_retriever.run(chunk, queries)
                want = want_retriever.run(chunk, queries)
                assert [(repr(r.results), repr(r.error)) for r in got] == [
                    (repr(r.results), repr(r.error)) for r in want
                ], f"seed {seed}"
                if with_judge is not None:
                    judged_runs += got
        return judged_runs
