from __future__ import annotations

import gc
import json
import os
import re
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from corpusgap import corpus as corpus_module
from corpusgap.corpus import (
    AppendLog,
    Corpus,
    Document,
    IngestError,
    MainTopic,
    Query,
    Section,
    Source,
    Split,
    Taxonomy,
    check_split_disjoint,
    ingest_documents,
    ingest_queries,
    load_taxonomy,
    percent_increase,
    record_field,
    write_corpus,
    write_queries,
)

from .world import write_taxonomy


def _doc_line(doc_id: str, title: str = "t", body: str = "b", **extra) -> str:
    record = {"id": doc_id, "title": title, "sections": [{"heading": "h", "body": body}]}
    record.update(extra)
    return json.dumps(record)


@pytest.fixture
def taxonomy() -> Taxonomy:
    return Taxonomy(
        topics=(
            MainTopic(name="Sleep", subtopics=("Insomnia", "Nightmares")),
            MainTopic(name="Mood", subtopics=("Low mood",)),
        )
    )


class TestRecordField:
    @pytest.mark.parametrize(
        "kind, value",
        [("str", ""), ("nonempty", "x"), ("int", -3), ("number", 2), ("number", 0.5), ("bool", False),
         ("strs", []), ("strs", ["a", "b"]), ("objects", [{}]), ("int?", None), ("str?", "x")],
    )
    def test_value_of_its_kind_is_returned(self, kind, value):
        assert record_field({"f": value}, "f", kind, "f.jsonl:1") is value

    @pytest.mark.parametrize(
        "kind, value, wanted",
        [
            ("str", None, "a string"),
            ("nonempty", "", "a non-empty string"),
            ("int", True, "an integer"),
            ("int", 2.0, "an integer"),
            ("int", "2", "an integer"),
            ("number", False, "a number"),
            ("number", "0.5", "a number"),
            ("bool", 0, "true or false"),
            ("strs", ["a", 1], "a list of strings"),
            ("strs", "ab", "a list of strings"),
            ("objects", ["a"], "a list of objects"),
            ("number?", True, "a number or null"),
        ],
    )
    def test_value_of_another_kind_is_refused_on_one_line(self, kind, value, wanted):
        with pytest.raises(IngestError) as excinfo:
            record_field({"f": value}, "f", kind, "f.jsonl:3")
        assert str(excinfo.value) == f"f.jsonl:3: 'f' must be {wanted}, got {value!r}"

    def test_missing_field_is_its_default_or_refused(self):
        assert record_field({}, "f", "int", "f.jsonl:1", None) is None
        with pytest.raises(IngestError) as excinfo:
            record_field({"g": 1}, "f", "int", "f.jsonl:2")
        assert str(excinfo.value) == "f.jsonl:2: record lacks 'f'"

    def test_null_is_refused_unless_the_kind_allows_it(self):
        with pytest.raises(IngestError, match="'f' must be an integer, got None"):
            record_field({"f": None}, "f", "int", "f.jsonl:1", 0)


class TestTaxonomy:
    def test_qualified_ids_in_order(self, taxonomy):
        assert taxonomy.subtopic_ids == (
            "Sleep: Insomnia",
            "Sleep: Nightmares",
            "Mood: Low mood",
        )
        assert "Sleep: Insomnia" in taxonomy
        assert taxonomy.index("Mood: Low mood") == 2

    def test_duplicate_subtopic_rejected(self):
        with pytest.raises(ValueError, match="duplicate subtopic"):
            Taxonomy(
                topics=(
                    MainTopic(name="A", subtopics=("X",)),
                    MainTopic(name="A", subtopics=("X",)),
                )
            )

    def test_full_scale_instance(self):
        topics = tuple(
            MainTopic(name=f"Topic {i}", subtopics=tuple(f"Sub {j}" for j in range(8)))
            for i in range(46)
        )
        assert len(Taxonomy(topics=topics).subtopic_ids) == 368

    def test_file_round_trip(self, taxonomy, tmp_path):
        path = tmp_path / "taxonomy.jsonl"
        write_taxonomy(taxonomy, path)
        assert load_taxonomy(path) == taxonomy


class TestDocumentModel:
    def test_word_count_spans_title_headings_bodies(self):
        doc = Document(
            id="d1",
            source=Source.BASELINE,
            title="two words",
            sections=(Section(heading="one", body="three more words"),),
        )
        assert doc.word_count == 6

    def test_needs_a_section(self):
        with pytest.raises(ValueError, match="at least one section"):
            Document(id="d1", source=Source.BASELINE, title="t", sections=())

    def test_corpus_rejects_duplicate_ids(self):
        doc = Document(id="d1", source=Source.BASELINE, title="t", sections=(Section("", "b"),))
        with pytest.raises(ValueError, match="duplicate document id 'd1'"):
            Corpus(name="c", documents=(doc, doc))


class TestIngestDocuments:
    def test_full_scale_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("\n".join(_doc_line(f"d{i}") for i in range(387)) + "\n")
        corpus = ingest_documents(path, Source.BASELINE)
        assert len(corpus) == 387
        assert all(d.source is Source.BASELINE for d in corpus.documents)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("")
        assert len(ingest_documents(path, Source.BASELINE)) == 0

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(_doc_line("d1") + "\n" + _doc_line("d1") + "\n")
        with pytest.raises(IngestError, match="'d1'"):
            ingest_documents(path, Source.BASELINE)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(_doc_line("d1") + "\nnot json\n")
        with pytest.raises(IngestError, match=":2:"):
            ingest_documents(path, Source.BASELINE)

    def test_unknown_subtopic_rejected(self, tmp_path, taxonomy):
        path = tmp_path / "docs.jsonl"
        path.write_text(_doc_line("d1", subtopic="Nope: Never") + "\n")
        with pytest.raises(IngestError, match="unknown subtopic"):
            ingest_documents(path, Source.BASELINE, taxonomy)

    def test_flat_body_becomes_untitled_section(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": "d1", "title": "t", "body": "plain text"}) + "\n")
        corpus = ingest_documents(path, Source.BASELINE)
        assert corpus.document("d1").sections == (Section(heading="", body="plain text"),)

    def test_word_count_recomputed_on_ingest(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(_doc_line("d1", title="a b", body="c d e", word_count=999) + "\n")
        corpus = ingest_documents(path, Source.BASELINE)
        assert corpus.document("d1").word_count == 6  # "a b" + "h" + "c d e"

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"id": "d2", "title": None, "body": "text"}, "title"),
            ({"id": "d2", "title": 7, "body": "text"}, "title"),
            ({"id": "d2", "title": "t", "body": None}, "body"),
            ({"id": "d2", "title": "t", "body": 12}, "body"),
            ({"id": "d2", "sections": [{"heading": None, "body": "text"}]}, "heading"),
            ({"id": "d2", "sections": [{"heading": "h", "body": None}]}, "body"),
            ({"id": "d2", "sections": [{"heading": "h", "body": "x"}, {"heading": 3.5, "body": "y"}]}, "heading"),
        ],
    )
    def test_text_field_that_is_not_a_string_names_file_and_line(self, tmp_path, record, field):
        path = tmp_path / "docs.jsonl"
        path.write_text(_doc_line("d1") + "\n" + json.dumps(record) + "\n")
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}:2: '{field}' must be a string, got "):
            ingest_documents(path, Source.BASELINE)

    def test_missing_title_and_heading_default_to_empty(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": "d1", "sections": [{"body": "text"}]}) + "\n")
        doc = ingest_documents(path, Source.BASELINE).document("d1")
        assert doc.title == "" and doc.sections == (Section(heading="", body="text"),)
        assert doc.text == "\n\ntext"

    def test_round_trip(self, tmp_path, taxonomy):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            _doc_line("d1", subtopic="Sleep: Insomnia") + "\n" + _doc_line("d2") + "\n"
        )
        corpus = ingest_documents(path, Source.BASELINE, taxonomy, name="c")
        out = tmp_path / "out.jsonl"
        write_corpus(corpus, out)
        again = ingest_documents(out, Source.BASELINE, taxonomy, name="c")
        assert again == corpus


class TestIngestQueries:
    def test_split_tag_applied(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            "\n".join(json.dumps({"id": f"q{i}", "text": "hello there"}) for i in range(978))
            + "\n"
        )
        queries = ingest_queries(path, Split.TRAIN)
        assert len(queries) == 978
        assert all(q.split is Split.TRAIN for q in queries)

    def test_stored_split_must_match(self, tmp_path):
        path = tmp_path / "q.jsonl"
        write_queries([Query(id="q1", text="a", split=Split.TRAIN)], path)
        assert ingest_queries(path, Split.TRAIN)[0].split is Split.TRAIN
        with pytest.raises(IngestError, match=r"q\.jsonl:1: .*'train', not 'test'"):
            ingest_queries(path, Split.TEST)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps({"id": "q1", "text": "   "}) + "\n")
        with pytest.raises(IngestError, match="empty text"):
            ingest_queries(path, Split.TRAIN)

    def test_cross_split_duplicate_rejected(self, tmp_path):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        train.write_text(json.dumps({"id": "q1", "text": "a"}) + "\n")
        test.write_text(json.dumps({"id": "q1", "text": "b"}) + "\n")
        with pytest.raises(IngestError, match="both splits"):
            check_split_disjoint(ingest_queries(train, Split.TRAIN), ingest_queries(test, Split.TEST))

    def test_disjoint_split_ok(self):
        train = [Query(id="q1", text="a", split=Split.TRAIN)]
        test = [Query(id="q2", text="b", split=Split.TEST)]
        check_split_disjoint(train, test)

    def test_round_trip(self, tmp_path):
        queries = [
            Query(id="q1", text="hello", split=Split.TEST, subtopic=None),
            Query(id="q2", text="world", split=Split.TEST, subtopic=None),
        ]
        path = tmp_path / "q.jsonl"
        write_queries(queries, path)
        assert ingest_queries(path, Split.TEST) == queries


# One printed source value (+542.1% at 2097 added) contradicts its own row's
# doc counts; 2097/387 is 541.86%, so 541.9 is asserted for that rung.
LADDER = [
    (50, 12.9),
    (162, 41.9),
    (288, 74.4),
    (500, 129.2),
    (898, 232.0),
    (1230, 317.8),
    (1560, 403.1),
    (2097, 541.9),
    (2561, 661.8),
    (2954, 763.3),
    (7640, 1974.2),
]


def _decode(record: dict, offset: int, line: bytes) -> tuple:
    return record["key"], record["value"]


class TestAppendLog:
    def test_put_persists_once_and_reloads(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path, _decode)
        offset = log.put("a", 1, {"key": "a", "value": 1})
        assert log.put("a", 2, {"key": "a", "value": 2}) is None
        line = b'{"key": "a", "value": 1}\n'
        assert log.get("a") == offset and log.line(offset, len(line)) == line and len(log) == 1
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        assert AppendLog(path, _decode).get("a") == 1
        # `put_many` keeps the value itself.
        path = tmp_path / "many.jsonl"
        log = AppendLog(path, _decode)
        log.put_many([("a", 1, {"key": "a", "value": 1})])
        log.put_many([("a", 2, {"key": "a", "value": 2})])
        assert log.get("a") == 1 and len(log) == 1
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        assert AppendLog(path, _decode).get("a") == 1

    def test_decode_can_skip_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"key": "a", "value": 1}\n{"key": "b", "value": 2}\n', encoding="utf-8")
        log = AppendLog(path, lambda r, *line: None if r["key"] == "a" else _decode(r, *line))
        assert log.get("a") is None and log.get("b") == 2

    def test_concurrent_puts_write_each_key_once(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path, _decode)
        keys = [f"k{i % 50}" for i in range(400)]

        def worker(offset):
            for key in keys[offset:] + keys[:offset]:
                log.put(key, key, {"key": key, "value": key})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i * 37,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["key"] for line in lines) == sorted(set(keys))
        assert len(AppendLog(path, _decode)) == 50


    def test_puts_share_one_handle_and_are_readable_at_once(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        opened = []

        def spy_open(file, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(corpus_module, "open", spy_open, raising=False)
        log = AppendLog(path, _decode)
        for i in range(25):
            log.put(f"k{i}", i, {"key": f"k{i}", "value": i})
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == i + 1 and json.loads(lines[-1]) == {"key": f"k{i}", "value": i}
        assert opened == [path]
        assert len(AppendLog(path, _decode)) == 25
        log.close()
        log.put("late", 1, {"key": "late", "value": 1})
        assert len(opened) == 2 and AppendLog(path, _decode).get("late") == 1
        log.close()

    def test_unclosed_store_leaves_no_resource_warning(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log = AppendLog(tmp_path / "log.jsonl", _decode)
            log.put("a", 1, {"key": "a", "value": 1})
            del log
            gc.collect()
            # The handle that `line` opens again after a close.
            log = AppendLog(tmp_path / "read.jsonl", _decode)
            offset = log.put("a", 1, {"key": "a", "value": 1})
            log.close()
            line = b'{"key": "a", "value": 1}\n'
            assert log.line(offset, len(line)) == line
            del log
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_put_reports_the_span_of_each_appended_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"key": "old", "value": 0}\n', encoding="utf-8")
        log = AppendLog(path, _decode)
        offsets = [log.put("é", "ü€", {"key": "é", "value": "ü€"})]
        with open(path, "a", encoding="utf-8") as fh:  # another writer's line
            fh.write('{"key": "other", "value": 1}\n')
        offsets.append(log.put("b", [1, 2], {"key": "b", "value": [1, 2]}))
        assert log.put("b", 3, {"key": "b", "value": 3}) is None
        assert AppendLog(None, _decode).put("c", 1, {"key": "c", "value": 1}) is None
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        assert offsets == [len(lines[0]), len(data) - len(lines[3])]
        lengths = [len(lines[1]), len(lines[3])]
        assert [data[offset : offset + length] for offset, length in zip(offsets, lengths)] == [lines[1], lines[3]]
        assert [log.line(offset, length) for offset, length in zip(offsets, lengths)] == [lines[1], lines[3]]

    def test_put_many_appends_with_one_write_as_put_would(self, tmp_path):
        entries = [("é", "ü€", {"key": "é", "value": "ü€"}), ("old", 9, {"key": "old", "value": 9}),
                   ("b", [1, 2], '{"key": "b", "value": [1, 2]}'), ("é", 5, {"key": "é", "value": 5}),
                   ("c", 3, {"key": "c", "value": 3})]
        for path in (tmp_path / "put.jsonl", tmp_path / "many.jsonl"):
            path.write_text('{"key": "old", "value": 0}\n', encoding="utf-8")
        one_by_one = AppendLog(tmp_path / "put.jsonl", _decode)
        for key, value, record in entries:
            one_by_one.put(key, value, record)
        log = AppendLog(tmp_path / "many.jsonl", _decode)
        real, writes = log._handle(), []

        class Spy:
            def write(self, data):
                writes.append(data)
                return real.write(data)

            def __getattr__(self, name):
                return getattr(real, name)

        log._fh = Spy()
        log.put_many(entries)
        assert len(writes) == 1
        assert (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "put.jsonl").read_bytes()
        assert [log.get(key) for key in ("é", "old", "b", "c")] == ["ü€", 0, [1, 2], 3]
        log.put_many([("é", 0, {})])
        assert len(writes) == 1 and log.get("é") == "ü€"
        log._fh = real
        assert AppendLog(tmp_path / "many.jsonl", _decode).get("c") == 3
        memory = AppendLog(None, _decode)
        memory.put_many(entries)
        assert memory.get("é") == "ü€" and len(memory) == 4

    def test_non_resident_values_are_read_back_from_their_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path, _decode)
        offset = log.put("a", "unkept", {"key": "a", "value": "kept"})
        log.put_many([("b", "kept in memory", {"key": "b", "value": "on disk"})])
        assert log.get("a") == offset and log.get("b") == "kept in memory"
        assert json.loads(log.line(offset, len(path.read_bytes().splitlines(keepends=True)[0])))["value"] == "kept"
        # Without a file there is nothing to read back, so the value is kept.
        unfiled = AppendLog(None, _decode)
        unfiled.put("a", "value", {"key": "a", "value": "value"})
        assert unfiled.get("a") == "value"


def reference_read_append_log(path):
    """`read_append_log` as first written, one json.loads per line, with
    each line's offset and bytes."""
    torn_at = None
    with open(path, "rb") as fh:
        offset = 0
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    record = json.loads(line.decode("utf-8"))
                    torn = not line.endswith(b"\n")
                except ValueError as exc:
                    if fh.read().strip():
                        raise IngestError(f"{path}:{lineno}: malformed record: {exc}") from exc
                    torn = True
                if torn:
                    torn_at = offset
                    break
                yield lineno, record, offset, line
            offset += len(line)
    if torn_at is not None:
        os.truncate(path, torn_at)


# Lines of every kind a log can hold: records (some with non-ASCII text,
# escapes or braces in strings), blank and padded lines, a record split over
# two lines, two values on one line, non-objects, a BOM, bad UTF-8, bad JSON.
LOG_LINES = [
    b'{"key": "a", "value": 1}\n',
    json.dumps({"key": "\u00e9\u2028\"}{},{", "value": [1, {"x": None}]}, ensure_ascii=False).encode() + b"\n",
    json.dumps({"key": "\n", "value": "\\"}).encode() + b"\n",
    b"\n",
    b"   \n",
    b'  {"key": "padded", "value": 2}  \n',
    b'{"key": "crlf", "value": 3}\r\n',
    b'{"key":\n"split", "value": 4}\n',
    b'{"key": "x", "value": 5},{"key": "y", "value": 6}\n',
    b"[1, 2]\n",
    b"7\n",
    "\ufeff".encode() + b'{"key": "bom", "value": 8}\n',
    b'{"key": "\xff", "value": 9}\n',
    b"not json\n",
    b'{"key": "cut\n',
]


class TestReadAppendLogBlocks:
    """Blocks of lines read as the per-line loop read them, at any block
    size: the same records, line numbers, offsets and line bytes, the same
    error, the same cut."""

    @staticmethod
    def outcome(reader, path, content: bytes):
        path.write_bytes(content)
        records, error = [], None
        try:
            for item in reader(path):
                records.append(item)
        except IngestError as exc:
            error = str(exc)
        return records, error, path.read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from(range(len(LOG_LINES))), max_size=14),
        st.integers(0, 14),
        st.sampled_from([1, 40, 120, 1 << 20]),
        st.booleans(),
    )
    def test_equals_the_per_line_loop(self, tmp_path_factory, kinds, n_good, block_bytes, torn_tail):
        lines = [LOG_LINES[0].replace(b'"a"', f'"g{i}"'.encode()) for i in range(n_good)]
        lines += [LOG_LINES[k] for k in kinds]
        content = b"".join(lines)
        if torn_tail and content.endswith(b"\n"):
            content = content[:-1]
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        want = self.outcome(reference_read_append_log, path, content)
        saved = corpus_module._BLOCK_BYTES
        corpus_module._BLOCK_BYTES = block_bytes
        try:
            assert self.outcome(corpus_module.read_append_log, path, content) == want
        finally:
            corpus_module._BLOCK_BYTES = saved

    def test_clean_log_parses_no_line_alone(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path, _decode)
        for i in range(3000):
            log.put(f"k{i}", i, {"key": f"k{i}", "value": i})
        log.close()
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", 4096)
        loads = []
        real_loads = json.loads
        monkeypatch.setattr(corpus_module.json, "loads", lambda text: loads.append(text) or real_loads(text))
        assert len(AppendLog(path, _decode)) == 3000 and loads == []
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n" + json.dumps({"key": "late", "value": 0}) + "\n")
        with pytest.raises(IngestError, match=r":3001: malformed record"):
            AppendLog(path, _decode)
        assert 0 < len(loads) < 200  # only the block that holds the bad line


class TestPercentIncrease:
    @pytest.mark.parametrize("added,expected", LADDER)
    def test_ladder_values_at_one_decimal(self, added, expected):
        assert round(percent_increase(387 + added, 387), 1) == expected

    def test_identity(self):
        assert percent_increase(387, 387) == 0.0

    def test_accepts_corpus(self):
        docs = tuple(
            Document(id=f"d{i}", source=Source.BASELINE, title="t", sections=(Section("", "b"),))
            for i in range(549)
        )
        assert round(percent_increase(Corpus(name="c", documents=docs), 387), 1) == 41.9

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline_size"):
            percent_increase(10, 0)

    def test_shrinking_corpus_rejected(self):
        with pytest.raises(ValueError, match="smaller than baseline"):
            percent_increase(10, 11)

    @given(
        baseline=st.integers(min_value=1, max_value=5000),
        size_a=st.integers(min_value=0, max_value=20000),
        size_b=st.integers(min_value=0, max_value=20000),
    )
    def test_strictly_monotone_in_size(self, baseline, size_a, size_b):
        lo, hi = sorted((baseline + size_a, baseline + size_b))
        if lo < hi:
            assert percent_increase(lo, baseline) < percent_increase(hi, baseline)
