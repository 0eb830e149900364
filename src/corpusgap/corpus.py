"""Domain types and file ingestion for corpora, queries, and the topic taxonomy.

All record files are line-delimited JSON (one object per line), which keeps
them streamable and diff-friendly. Values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import threading
import weakref
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

log = logging.getLogger(__name__)


class Source(str, Enum):
    """Where a document came from."""

    BASELINE = "baseline"
    REFERENCE = "reference"
    SYNTHETIC = "synthetic"


class Split(str, Enum):
    """Train/test membership of a query. Immutable after assignment."""

    TRAIN = "train"
    TEST = "test"


class IngestError(ValueError):
    """Malformed or invalid input record; message carries file and line."""


def word_count(*texts: str) -> int:
    """Number of whitespace-separated tokens across all given strings."""
    return sum(len(t.split()) for t in texts)


@dataclass(frozen=True)
class Section:
    heading: str
    body: str


@dataclass(frozen=True)
class Document:
    """A corpus item. Untitled flat-body records are wrapped as one section
    with an empty heading so section-level processing degrades gracefully."""

    id: str
    source: Source
    title: str
    sections: tuple[Section, ...]
    subtopic: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not self.sections:
            raise ValueError(f"document {self.id!r} must have at least one section")

    @property
    def word_count(self) -> int:
        """Whitespace-token count of the title plus all section text."""
        parts = [self.title]
        for s in self.sections:
            parts.append(s.heading)
            parts.append(s.body)
        return word_count(*parts)

    @functools.cached_property
    def text(self) -> str:
        """Canonical full text: title, then each section's heading and body.

        Built once per document, so every cache key that holds it shares
        one string.
        """
        parts = [self.title]
        for s in self.sections:
            parts.append(f"{s.heading}\n{s.body}")
        return "\n".join(parts)

    def section_text(self, index: int) -> str:
        """Canonical chunk text for one section: title plus that section."""
        s = self.sections[index]
        return f"{self.title}\n{s.heading}\n{s.body}"


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    split: Split
    subtopic: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("query id must be non-empty")
        if not self.text.strip():
            raise ValueError(f"query {self.id!r} has empty text")


@dataclass(frozen=True)
class MainTopic:
    name: str
    subtopics: tuple[str, ...]


@dataclass(frozen=True)
class Taxonomy:
    """Ordered main topics, each with ordered subtopics.

    Subtopics are addressed by their topic-qualified name "Topic: Subtopic",
    which must be globally unique.
    """

    topics: tuple[MainTopic, ...]
    _ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _order: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = []
        for topic in self.topics:
            for sub in topic.subtopics:
                ids.append(f"{topic.name}: {sub}")
        order = {}
        for i, qualified in enumerate(ids):
            if qualified in order:
                raise ValueError(f"duplicate subtopic name {qualified!r}")
            order[qualified] = i
        object.__setattr__(self, "_ids", tuple(ids))
        object.__setattr__(self, "_order", order)

    @property
    def subtopic_ids(self) -> tuple[str, ...]:
        return self._ids

    def __contains__(self, qualified: str) -> bool:
        return qualified in self._order

    def index(self, qualified: str) -> int:
        """Position of a subtopic in taxonomy order; used for tie-breaking."""
        try:
            return self._order[qualified]
        except KeyError:
            raise KeyError(f"unknown subtopic {qualified!r}") from None


@dataclass(frozen=True)
class Corpus:
    name: str
    documents: tuple[Document, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {}
        for doc in self.documents:
            if doc.id in by_id:
                raise ValueError(f"duplicate document id {doc.id!r} in corpus {self.name!r}")
            by_id[doc.id] = doc
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def document(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    def doc_count_by_subtopic(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for doc in self.documents:
            if doc.subtopic is not None:
                counts[doc.subtopic] = counts.get(doc.subtopic, 0) + 1
        return counts


# --- line-delimited record I/O -------------------------------------------


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) for each non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not isinstance(record, dict):
                raise IngestError(f"{path}:{lineno}: record must be an object")
            yield lineno, record


# The kinds of field `record_field` reads: a test of the value and what a
# refusal calls it. An integer or a number is never a bool. Each kind
# followed by "?" also allows null.
_FIELD_KINDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "nonempty": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "int": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: type(v) is int or type(v) is float, "a number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "strs": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"),
    "objects": (lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v), "a list of objects"),
}
_FIELD_KINDS.update(
    {f"{kind}?": (lambda v, accepts=accepts: v is None or accepts(v), f"{wanted} or null")
     for kind, (accepts, wanted) in _FIELD_KINDS.items()}
)
_REQUIRED = object()


def record_field(record: dict, name: str, kind: str, where: str, default=_REQUIRED):
    """`record[name]` if it is of `kind` (a key of `_FIELD_KINDS`), or
    `default` when the record lacks it and a default is given. Anything
    else is one IngestError naming `where` and the field."""
    if name not in record:
        if default is _REQUIRED:
            raise IngestError(f"{where}: record lacks '{name}'")
        return default
    value = record[name]
    accepts, wanted = _FIELD_KINDS[kind]
    if not accepts(value):
        raise IngestError(f"{where}: '{name}' must be {wanted}, got {value!r}")
    return value


# A record as one line of a record file, byte for byte what
# `json.dumps(record, ensure_ascii=False, sort_keys=True)` writes, from one
# encoder: `json.dumps` with these arguments builds a new one per call.
encode_record = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode_record(record))
            fh.write("\n")


# Bytes of whole lines `read_append_log` reads, decodes and scans at a time:
# enough to spread the per-block work over a hundred judge replies, and
# small, as every block's lines, bytes and text are held at once (1 MiB
# blocks raised a bench-size study's peak RSS by 2 MB).
_BLOCK_BYTES = 16 << 10
# The C scanner that `json.loads` runs: `_scan(text, idx)` is the value
# starting at text[idx] and the index just past it.
_scan = json.JSONDecoder().scan_once


def _scan_lines(lines: list[bytes]) -> list | None:
    """The values of newline-terminated lines, one per line, from one
    decode of the block and one scan per line; None unless every line is
    exactly one JSON value followed by its newline.

    A raw newline can stand in JSON only as whitespace between tokens, so
    a value that ran on past its own line would take up two or more of
    the block's newlines, and the block would run out before its last
    scan: when every scan succeeds, each line is one value."""
    if not lines[-1].endswith(b"\n"):
        return None
    try:
        text = b"".join(lines).decode("utf-8")
        values = []
        end = 0
        for _ in lines:
            value, end = _scan(text, end)
            if text[end] != "\n":
                return None
            end += 1
            values.append(value)
    except (StopIteration, ValueError):
        return None
    return values


# What a store makes of a line's bytes and offset before any JSON scan:
# the (key, value) pair of a line in the store's own layout, or None.
TakeLine = Callable[[bytes, int], tuple | None]


def read_append_log(path: str | Path, take: TakeLine | None = None) -> Iterator[tuple[int, dict | tuple, int, bytes]]:
    """Yield (line_number, record, offset, line) for the records of an
    append-only log written by `AppendLog.put`: `offset` is where the line
    starts in the file and `line` is its bytes, newline included.

    A last line that is malformed or lacks its newline is a write cut
    short by a crash: it is dropped with a warning and cut from the file,
    so the next append starts on a fresh line. A malformed line with
    records after it raises.

    Lines are read in blocks of about `_BLOCK_BYTES`. A block whose every
    line `take` maps to a pair is not scanned, and each line comes with
    its pair (a tuple, which JSON never gives) as its record. Any other
    block whose every line is one JSON value (`_scan_lines`) is taken
    whole; the rest, such as a block with a blank, torn or malformed line,
    are parsed again one `json.loads` per line. So as long as `take` maps
    a line only to what its record decodes to, the rules above hold.
    """
    torn_at = None
    lineno = 0
    offset = 0
    with open(path, "rb") as fh:
        while torn_at is None and (lines := fh.readlines(_BLOCK_BYTES)):
            taken = take and [*map(take, lines, itertools.accumulate(map(len, lines), initial=offset))]
            records = taken if taken and None not in taken else _scan_lines(lines)
            if records is not None:
                for line, record in zip(lines, records):
                    lineno += 1
                    yield lineno, record, offset, line
                    offset += len(line)
                continue
            for n, line in enumerate(lines):
                lineno += 1
                if line.strip():
                    try:
                        record = json.loads(line.decode("utf-8"))
                        torn = not line.endswith(b"\n")
                    except ValueError as exc:  # bad JSON, or a multi-byte character cut short
                        if any(rest.strip() for rest in lines[n + 1 :]) or fh.read().strip():
                            raise IngestError(f"{path}:{lineno}: malformed record: {exc}") from exc
                        torn = True
                    if torn:
                        log.warning("%s:%d: dropping a torn last record", path, lineno)
                        torn_at = offset
                        break
                    yield lineno, record, offset, line
                offset += len(line)
    if torn_at is not None:
        os.truncate(path, torn_at)


def _bad_record(where: str, exc: Exception) -> IngestError:
    """The error for a record that `AppendLog`'s decode failed on with
    KeyError (a missing field), TypeError or ValueError."""
    if isinstance(exc, KeyError):
        return IngestError(f"{where}: record lacks field {exc}")
    return IngestError(f"{where}: bad record: {exc}")


def _line_bytes(record: dict | str) -> bytes:
    """A record, or its line as `encode_record` writes it, as the bytes of
    one line."""
    return ((record if isinstance(record, str) else encode_record(record)) + "\n").encode("utf-8")


# Where a line of an `AppendLog` file is: its byte offset in the file and
# its length in bytes, newline included. A plain tuple, as `put` makes one
# per line and a NamedTuple's constructor runs Python code.
LineSpan = tuple[int, int]


class AppendLog:
    """A key-value map backed by an optional append-only log file.

    On load, `decode(record, offset, line)` turns each record of the file,
    with the offset and bytes of its line, into a (key, value) pair, or
    None to skip it; a record it fails on with KeyError, TypeError or
    ValueError (a missing field, a wrong type, a bad value) raises
    `IngestError` naming the file and line. The value may be the line's
    `LineSpan`, `(offset, len(line))`, for a caller that reads the line
    back (`line`) rather than keep what it decodes to. A store whose own
    lines have one fixed layout may also give `take` (`TakeLine`), which
    `read_append_log` calls on each line's bytes before any JSON scan; a
    line it maps is not decoded. `decode` and `take` are not kept past
    the load. A torn last record is handled by `read_append_log`.

    `put` stores a value once and appends its record as one line
    (`encode_record`, or a line the caller already encoded the same way),
    under a lock, through an unbuffered file handle that stays open:
    concurrent callers never interleave lines, readers see each record as
    soon as `put` returns, and a crash can tear at most the last line.
    `put_many` does the same for several records with one write, which a
    crash can cut after any whole line of it. `close` closes the handle
    (a later `put` or `line` opens it again); a store dropped unclosed
    has it closed by a finalizer. `get` is the map's own `dict.get`.

    The two differ in what the map keeps. `put_many` keeps each value.
    A value `put` into a store with a file is not kept: the map holds the
    `LineSpan` of its line instead. Without a file, `put` keeps the value.
    """

    def __init__(self, path: str | Path | None, decode: Callable[[dict, int, bytes], tuple | None], take: TakeLine | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict = {}
        self._lock = threading.Lock()
        self._fh = None
        if self.path is not None and self.path.exists():
            for lineno, record, offset, line in read_append_log(self.path, take):
                try:  # a tuple is the pair `take` made of the line
                    item = record if type(record) is tuple else decode(record, offset, line)
                except (KeyError, TypeError, ValueError) as exc:
                    raise _bad_record(f"{self.path}:{lineno}", exc) from exc
                if item is not None:
                    self._entries[item[0]] = item[1]
        self.get = self._entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key, value, record: dict | str) -> LineSpan | None:
        """Store value under key and append record, unless key is present;
        the `LineSpan` of the appended line, or None if nothing was
        appended.

        `record` is the record, or its line (without the newline) exactly
        as `encode_record` writes it, for a caller that builds the line
        more cheaply from parts that need no escaping. With a file, the
        map keeps the line's span, not value."""
        with self._lock:
            if key in self._entries:
                return None
            if self.path is None:
                self._entries[key] = value
                return None
            data = _line_bytes(record)
            span = self._entries[key] = (self._append(data), len(data))
            return span

    def put_many(self, entries: Sequence[tuple[object, object, dict | str]]) -> None:
        """`put` for each (key, value, record) in order, appending every
        new line with one write; an entry whose key is present, or came
        earlier in `entries`, is skipped. The lines are held at once, so
        callers keep `entries` short."""
        with self._lock:
            known = self._entries
            new: dict = {}  # key -> (value, line bytes)
            for key, value, record in entries:
                if key not in known and key not in new:
                    new[key] = (value, None if self.path is None else _line_bytes(record))
            if new and self.path is not None:
                self._append(b"".join(line for _, line in new.values()))
            for key, (value, _) in new.items():
                known[key] = value

    def _append(self, data: bytes) -> int:
        """Append data to the file and return the offset it starts at;
        call under the lock."""
        fh = self._handle()
        written = fh.write(data)
        while written < len(data):  # the system wrote part of it
            written += fh.write(data[written:])
        # The handle appends, so the data ends where the file now ends,
        # even after another writer's appends.
        return fh.tell() - len(data)

    def line(self, span: LineSpan) -> bytes:
        """The bytes of the file at `span`, read with one `os.pread`: the
        line there when the span came from `put` or from the load, and
        fewer bytes if the file has since been cut."""
        offset, length = span
        with self._lock:
            return os.pread(self._handle().fileno(), length, offset)

    def _handle(self):
        """The file's handle, opened to append and read and unbuffered, so
        each line is in the file when `put` returns; call under the lock."""
        if self._fh is None:
            self._fh = open(self.path, "a+b", buffering=0)
            self._closer = weakref.finalize(self, self._fh.close)
        return self._fh

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._closer()
                self._fh = None


def _sections_from_record(record: dict, where: str) -> tuple[Section, ...]:
    if "sections" not in record:
        return (Section(heading="", body=record_field(record, "body", "str", where)),)
    raw = record_field(record, "sections", "objects", where)
    if not raw:
        raise IngestError(f"{where}: 'sections' must be a non-empty list of objects, got []")
    return tuple(
        Section(heading=record_field(s, "heading", "str", where, ""), body=record_field(s, "body", "str", where))
        for s in raw
    )


def document_to_record(doc: Document) -> dict:
    record = {
        "id": doc.id,
        "source": doc.source.value,
        "title": doc.title,
        "sections": [{"heading": s.heading, "body": s.body} for s in doc.sections],
        "word_count": doc.word_count,
    }
    if doc.subtopic is not None:
        record["subtopic"] = doc.subtopic
    return record


def ingest_documents(
    path: str | Path,
    source: Source,
    taxonomy: Taxonomy | None = None,
    name: str | None = None,
) -> Corpus:
    """Load a documents file into a Corpus, recomputing word counts.

    Rejects duplicate ids and, when a taxonomy is given, unknown subtopic
    names. Records may carry a 'source' field; the given source wins.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, record in read_records(path):
        where = f"{path}:{lineno}"
        doc_id = record_field(record, "id", "nonempty", where)
        if doc_id in seen:
            raise IngestError(f"{where}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        subtopic = record_field(record, "subtopic", "str?", where, None)
        if subtopic is not None and taxonomy is not None and subtopic not in taxonomy:
            raise IngestError(f"{where}: unknown subtopic {subtopic!r}")
        docs.append(
            Document(
                id=doc_id,
                source=source,
                title=record_field(record, "title", "str", where, ""),
                sections=_sections_from_record(record, where),
                subtopic=subtopic,
            )
        )
    return Corpus(name=name or Path(path).stem, documents=tuple(docs))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    write_records(path, (document_to_record(d) for d in corpus.documents))


def query_to_record(query: Query) -> dict:
    record = {"id": query.id, "text": query.text, "split": query.split.value}
    if query.subtopic is not None:
        record["subtopic"] = query.subtopic
    return record


def ingest_queries(
    path: str | Path,
    split: Split,
    taxonomy: Taxonomy | None = None,
) -> list[Query]:
    """Load a queries file; every returned query carries the given split tag.

    A record that already stores a split (as `write_queries` does) must
    store this one, so a train file is never read as test queries.
    """
    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, record in read_records(path):
        where = f"{path}:{lineno}"
        query_id = record_field(record, "id", "nonempty", where)
        if query_id in seen:
            raise IngestError(f"{where}: duplicate query id {query_id!r}")
        seen.add(query_id)
        stored = record_field(record, "split", "str?", where, None)
        if stored is not None and stored != split.value:
            raise IngestError(f"{where}: query {query_id!r} is stored as split {stored!r}, not {split.value!r}")
        text = record_field(record, "text", "str", where)
        if not text.strip():
            raise IngestError(f"{where}: query {query_id!r} has empty text")
        subtopic = record_field(record, "subtopic", "str?", where, None)
        if subtopic is not None and taxonomy is not None and subtopic not in taxonomy:
            raise IngestError(f"{where}: unknown subtopic {subtopic!r}")
        queries.append(Query(id=query_id, text=text, split=split, subtopic=subtopic))
    return queries


def write_queries(queries: Sequence[Query], path: str | Path) -> None:
    write_records(path, (query_to_record(q) for q in queries))


def check_split_disjoint(train: Sequence[Query], test: Sequence[Query]) -> None:
    """Train and test query sets must not share ids."""
    overlap = {q.id for q in train} & {q.id for q in test}
    if overlap:
        raise IngestError(f"query ids present in both splits: {sorted(overlap)}")


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load a taxonomy file: one main topic per line with its subtopic list."""
    topics = []
    for lineno, record in read_records(path):
        where = f"{path}:{lineno}"
        name = record_field(record, "name", "nonempty", where)
        subtopics = record_field(record, "subtopics", "strs", where)
        topics.append(MainTopic(name=name, subtopics=tuple(subtopics)))
    try:
        return Taxonomy(topics=tuple(topics))
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def percent_increase(corpus: Corpus | int, baseline_size: int) -> float:
    """Corpus growth over the baseline, in percent.

    Returns the exact value; reports format it at one decimal. Strictly
    monotone in corpus size for a fixed baseline.
    """
    if baseline_size <= 0:
        raise ValueError("baseline_size must be positive")
    size = len(corpus) if isinstance(corpus, Corpus) else int(corpus)
    if size < baseline_size:
        raise ValueError(f"corpus size {size} smaller than baseline {baseline_size}")
    return (size - baseline_size) / baseline_size * 100.0
