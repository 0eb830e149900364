"""The embedding cache, an exact cosine index, and the retrieval pipelines.

One implementation, `Retriever.run(cells, queries)`, runs all four
pipelines over any number of (pipeline, index, corpus) cells; pipelines
differ only in which index supplies the candidates, which text is
embedded, and whether a judge ranks the candidates. Its find half makes
one rewriter call over the distinct query texts, embeds each distinct
search text once and finds every cell's candidates; its rank half makes
one judge call over the (query text, doc id) pairs not scored before,
each pair once, and ranks every query from those scores. A Retriever
keeps its scores, rewrites and query vectors, so the experiment grid,
which runs its cells through one Retriever in bounded chunks, judges each
distinct pair once per grid. `retrieve(pipeline, queries, ...)` is one
cell.

`CachedEmbedder` keeps vectors, as base64 float64 bytes, in an
append-only JSONL store (`corpus.AppendLog`) keyed by the sha256 of the
text; that store is the only copy of them on disk, and indexes are built
from it in-process. It writes each record's line from parts that need no
escaping, byte for byte the line `json.dumps` writes. A vector whose line
is in that layout is not kept in memory, whether this run loaded the line
or computed the vector: the cache keeps the line's place in the file and
decodes the vector from the line each time its text is embedded. The
index builders write each vector into its row of the index's matrix as
it comes, so a run holds one decoded copy of each vector. The embedders
it wraps, the mock `HashedBagEmbedder` and the HTTP client, live in
`providers`.

The index is a brute-force scan: corpora here run hundreds to a few
thousand documents, where exactness is cheap and makes oracle equivalence
testable bit for bit. It ranks by dot product, which is cosine similarity
since both embedders return unit vectors. `SearchIndex.subset` serves one
corpus from an index over several, with the results of an index built
over that corpus alone; an index and its views compute a query vector's
similarities once and keep a short prefix of its ranking (`SearchIndex`).
Search ties break by ascending key; judged pipelines rank by judge score
descending, then similarity descending, then doc id ascending. Between
find and rank a candidate is a plain (doc id, similarity) pair, and only
the `top_k` a query keeps become `RetrievedDoc` objects.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import AppendLog, Corpus, Document, IngestError, LineSpan, Query, encode_record
from .gateway import JudgeFn, RewriteFn

DEFAULT_CANDIDATES = 20
DEFAULT_TOP_K = 3
_ROW_BLOCK = 16  # see SearchIndex.__init__


class Pipeline(str, Enum):
    BASELINE = "baseline"
    HIERARCHICAL = "hierarchical"
    RERANKING = "reranking"
    QUERY_TRANSFORMATION = "query_transformation"


class Embedder(Protocol):
    id: str
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


# What ends a `CachedEmbedder` line after its base64, what comes between
# its text sha and its base64, and the characters base64 may hold.
_LINE_END = b'"}\n'
_B64_KEY = b'", "vector_b64": "'
_B64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="


class CachedEmbedder:
    """Persistent embedding cache keyed by (provider id, text hash), so
    switching providers never serves stale vectors.

    A record stores its vector as `vector_b64`, the base64 of its
    little-endian float64 bytes, read back bit for bit with
    `np.frombuffer`. Records of the older format, a `vector` list of
    numbers, still load; none is written. Vectors come back read-only,
    hits and misses alike.

    When the cache has a file, the map holds no vector whose line is in
    the layout `embed` writes (this embedder's id, the text sha, then a
    `vector_b64` of `dim` float64s, with `json.dumps` spacing and key
    order): it holds that line's `LineSpan`, whether the line was loaded
    or appended by this process. At load, a line whose bytes are exactly
    that layout, with a 64-character alphanumeric sha and a payload of
    base64 characters only, is taken by its bytes (`_take`) with no JSON
    scan; any other line is read as JSON, and one in the layout still
    becomes its span (`_load`). A hit on a span reads the line with one
    `os.pread`, checks its head, key and end, and decodes the base64
    between them, bit for bit the vector first computed; such a line's
    base64 is first validated there, and a line that fails is refused
    with the file and byte offset, never served. Any other line of this
    embedder is decoded at load and its vector kept: an older `vector`
    list, a `vector_b64` with other spacing or key order, or one of
    another length. A vector whose length is not `dim`, or a
    `vector_b64` that is not base64 of whole float64s, found at load is
    refused with the file and line. A cache without a file keeps its
    vectors.
    """

    def __init__(self, inner: Embedder, cache_path: str | Path | None = None):
        self.inner = inner
        self.id = inner.id
        self.dim = inner.dim
        # A record's line up to its text sha, with the provider id's JSON
        # encoded once; the sha (hex) and the vector (base64) need no
        # escaping, so `embed` writes the rest of the line as it is.
        self._line_head = f'{{"provider": {encode_record(self.id)}, "text_sha": "'
        self._b64_len = 4 * -(-8 * self.dim // 3)
        try:  # the head `_take` looks for; `embed` can write no line for an id that is not UTF-8
            self._head = self._line_head.encode("utf-8")
        except UnicodeEncodeError:
            self._head = None
        self._store = AppendLog(cache_path, self._load, self._take if self._head else None)

    def close(self) -> None:
        """Close the vector cache's file; a later miss or read reopens it."""
        self._store.close()

    def _payload_head(self, key: str) -> str:
        """A record's line up to its base64 payload."""
        return f'{self._line_head}{key}", "vector_b64": "'

    def _take(self, line: bytes, offset: int) -> tuple[str, LineSpan] | None:
        """A line's key and span if its bytes are exactly a line `embed`
        writes, with an alphanumeric sha and a payload of base64
        characters, else None. `_load` maps each such line the same."""
        sha_at = len(self._head)
        b64_at = sha_at + 64 + len(_B64_KEY)
        if (
            len(line) == b64_at + self._b64_len + len(_LINE_END)
            and line.startswith(self._head)
            and line.startswith(_B64_KEY, b64_at - len(_B64_KEY))
            and line.endswith(_LINE_END)
            and line[sha_at : sha_at + 64].isalnum()
            and not line[b64_at : -len(_LINE_END)].translate(None, _B64_CHARS)
        ):
            return line[sha_at : sha_at + 64].decode("ascii"), (offset, len(line))
        return None

    def _load(self, record: dict, offset: int, line: bytes) -> tuple[str, LineSpan | np.ndarray] | None:
        """A loaded line's key and span if the line is in `embed`'s
        layout, else its key and decoded vector."""
        if record["provider"] != self.id:
            return None
        key = record["text_sha"]
        vector_b64 = record.get("vector_b64")
        if (
            type(vector_b64) is str
            and len(vector_b64) == self._b64_len
            and line == (self._payload_head(key) + vector_b64).encode("utf-8") + _LINE_END
        ):
            return key, (offset, len(line))
        if vector_b64 is not None:
            vec = np.frombuffer(base64.b64decode(vector_b64, validate=True), dtype="<f8")
        else:
            vec = np.asarray(record["vector"], dtype=np.float64)
            vec.flags.writeable = False
        if vec.shape != (self.dim,):
            raise ValueError(f"vector has shape {vec.shape}, expected ({self.dim},)")
        return key, vec

    def _read(self, key: str, span: LineSpan) -> np.ndarray:
        """The vector of the line at `span`, which must be `key`'s line in
        `embed`'s layout."""
        line = self._store.line(span)
        prefix = self._payload_head(key).encode("utf-8")
        if not (line.startswith(prefix) and line.endswith(_LINE_END)):
            problem = f"the line of {key!r} is no longer there"
        else:
            payload = line[len(prefix) : -len(_LINE_END)]
            try:
                vec = np.frombuffer(base64.b64decode(payload, validate=True), dtype="<f8")
            except ValueError as exc:
                raise IngestError(f"{self._store.path}@{span[0]}: bad vector_b64: {exc}") from exc
            if vec.shape == (self.dim,):
                return vec
            problem = f"vector has shape {vec.shape}, expected ({self.dim},)"
        raise IngestError(f"{self._store.path}@{span[0]}: {problem}")

    def embed(self, text: str) -> np.ndarray:
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        hit = self._store.get(key)
        if hit is not None:
            # A vector is an array; a line kept in the file is its span.
            return self._read(key, hit) if type(hit) is tuple else hit
        vec = self.inner.embed(text)
        vec.flags.writeable = False
        vector_b64 = base64.b64encode(vec.astype("<f8", copy=False).tobytes()).decode("ascii")
        self._store.put(key, vec, f'{self._payload_head(key)}{vector_b64}"}}')
        return vec


@dataclass
class _Shared:
    """What an index shares with its views: a row mask and a row count for
    the index (every row) and for each view, and the prefix memo."""

    masks: np.ndarray
    sizes: np.ndarray
    prefixes: dict[bytes, tuple[np.ndarray, np.ndarray, int, int]]


class SearchIndex:
    """Exact top-k index by dot product over the embedders' unit vectors,
    so by cosine.

    Keys are doc ids (document level) or (doc id, section index) pairs
    (chunk level) and must be unique. `name` names the corpus in errors.
    `matrix` gives one row per key, of `embedder.dim` values: a 2-D
    array, or any iterable of vectors, such as the builders' embeddings,
    each copied into the index as it comes.

    `subset` gives one corpus's rows as a view that shares the vectors
    and the memo. Per query vector the memo keeps a prefix of every row's
    (-similarity, key) order, its row ids and similarities only: on the
    vector's first search, the shortest prefix that holds k rows of the
    index and of each view (all rows of one that has fewer). A search
    that needs more, because k is larger or a view was made since,
    computes it again with k at least doubled.
    """

    def __init__(self, keys: Sequence, matrix: Iterable[np.ndarray], embedder: Embedder, name: str, kind: str):
        if len(keys) == 0:
            raise ValueError("index must contain at least one entry")
        if len(set(keys)) != len(keys):
            raise ValueError("index keys must be unique")
        self.keys = list(keys)
        # Zero rows pad the matrix to a multiple of _ROW_BLOCK rows. BLAS
        # matrix-vector kernels take rows in blocks and may round the rows
        # of a short last block differently; with none, a row's similarity
        # does not depend on its position or on how many rows share the
        # matrix, so a subset ranks exactly as an index of its rows alone
        # (TestSubsetIndex checks this).
        n, dim = len(self.keys), embedder.dim
        self._padded = np.zeros((n + -n % _ROW_BLOCK, dim))
        self.matrix = self._padded[:n]
        # Rows are written in as they come, so an index built from
        # embeddings holds no other copy of them.
        rows = 0
        for vec in matrix:
            if rows == n:
                raise ValueError(f"index {name!r} has {n} keys but more rows")
            if np.shape(vec) != (dim,):
                raise ValueError(f"index {name!r} has vectors of dimension {dim}, but row {rows} has shape {np.shape(vec)}")
            self.matrix[rows] = vec
            rows += 1
        if rows < n:
            raise ValueError(f"index {name!r} has {n} keys but {rows} rows")
        self.embedder = embedder
        self.name = name
        self.kind = kind
        self.rows: np.ndarray | None = None  # boolean mask of the rows searched; None is every row
        self._size = n
        by_key = sorted(range(n), key=self.keys.__getitem__)
        self._key_rank = np.empty(n, dtype=np.intp)
        self._key_rank[by_key] = np.arange(n)
        # Each row's document, as a position in `_doc_at`, for `subset`.
        doc_ids = self.keys if kind == "document" else [key[0] for key in self.keys]
        self._doc_at = {doc_id: i for i, doc_id in enumerate(dict.fromkeys(doc_ids))}
        self._row_doc = np.fromiter(map(self._doc_at.__getitem__, doc_ids), dtype=np.intp, count=n)
        self._shared = _Shared(np.ones((1, n), dtype=bool), np.array([n]), {})

    def __len__(self) -> int:
        return self._size

    def search(self, query_vec: np.ndarray, k: int) -> list[tuple[object, float]]:
        """Exact top-k by cosine; ties broken by ascending key."""
        if k < 1:
            raise ValueError("k must be at least 1")
        order, sims = self._prefix(query_vec, k)
        top = slice(k) if self.rows is None else self.rows[order].nonzero()[0][:k]
        keys = self.keys
        return [(keys[i], sim) for i, sim in zip(order[top].tolist(), sims[top].tolist())]

    def _prefix(self, query_vec: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The memo's prefix for `query_vec` (row ids and similarities),
        made or made again if it may hold fewer than k rows of a view."""
        shared, n = self._shared, len(self.keys)
        memo_key = query_vec.tobytes()
        memo = shared.prefixes.get(memo_key)
        if memo is not None:
            order, sims, memo_k, views = memo
            if (k <= memo_k and views == len(shared.masks)) or len(order) == n:
                return order, sims
            k = max(k, 2 * memo_k)
        sims = (self._padded @ query_vec)[:n]
        neg = -sims
        need = np.minimum(shared.sizes, k)
        # The `depth` most similar rows with every tie at the cut, so a
        # prefix of the order once sorted, until they hold each view's
        # need; NaN similarities sort last.
        depth = -(-k * n // int(shared.sizes.min()))
        while True:
            if depth < n:
                rows = np.flatnonzero(neg <= np.partition(neg, depth - 1)[depth - 1])
            else:
                rows = np.arange(n)
            order = rows[np.lexsort((self._key_rank[rows], neg[rows]))]
            # Where in `order` the last view to reach its need does so.
            reach = (np.cumsum(shared.masks[:, order], axis=1) < need[:, None]).sum(axis=1).max()
            if reach < len(order):
                break
            depth *= 2
        order = order[: reach + 1]
        memo = shared.prefixes[memo_key] = (order, sims[order], k, len(shared.masks))
        return memo[:2]

    def subset(self, corpus: Corpus) -> SearchIndex:
        """The rows of this index that belong to `corpus`'s documents, as
        an index named after `corpus` that shares these vectors and the
        prefix memo. Documents are matched by id only."""
        if len(corpus) == 0:
            raise ValueError(f"corpus {corpus.name!r} is empty")
        wanted = {doc.id for doc in corpus.documents}
        missing = wanted.difference(self._doc_at)
        if missing:
            raise ValueError(f"index {self.name!r} lacks documents of corpus {corpus.name!r}: {sorted(missing)[:5]}")
        docs = np.zeros(len(self._doc_at), dtype=bool)
        docs[[self._doc_at[doc_id] for doc_id in wanted]] = True
        rows = docs[self._row_doc]
        # Built field by field: a view shares exactly these with its index.
        view = object.__new__(SearchIndex)
        for shared in ("keys", "_padded", "matrix", "embedder", "kind", "_key_rank", "_doc_at", "_row_doc", "_shared"):
            setattr(view, shared, getattr(self, shared))
        view.name = corpus.name
        view.rows = rows
        view._size = int(rows.sum())
        self._shared.masks = np.vstack((self._shared.masks, rows))
        self._shared.sizes = np.append(self._shared.sizes, view._size)
        return view


def build_document_index(corpus: Corpus, embedder: Embedder) -> SearchIndex:
    if len(corpus) == 0:
        raise ValueError(f"corpus {corpus.name!r} is empty")
    keys = [doc.id for doc in corpus.documents]
    vectors = (embedder.embed(doc.text) for doc in corpus.documents)
    return SearchIndex(keys, vectors, embedder, corpus.name, kind="document")


def build_chunk_index(corpus: Corpus, embedder: Embedder) -> SearchIndex:
    """One entry per (title + section) chunk."""
    if len(corpus) == 0:
        raise ValueError(f"corpus {corpus.name!r} is empty")
    chunks = [(doc, i) for doc in corpus.documents for i in range(len(doc.sections))]
    keys = [(doc.id, i) for doc, i in chunks]
    vectors = (embedder.embed(doc.section_text(i)) for doc, i in chunks)
    return SearchIndex(keys, vectors, embedder, corpus.name, kind="chunk")


# --- pipelines --------------------------------------------------------------


@dataclass(frozen=True)
class RetrievedDoc:
    doc_id: str
    judge_score: int | None
    similarity: float


@dataclass(frozen=True)
class RetrievalResult:
    query_id: str
    pipeline: Pipeline
    top_docs: tuple[RetrievedDoc, ...]
    rewritten_query: str | None = None

    def __post_init__(self) -> None:
        if (self.rewritten_query is not None) != (
            self.pipeline is Pipeline.QUERY_TRANSFORMATION
        ):
            raise ValueError("rewritten_query present iff pipeline is query_transformation")


def merge_chunk_candidates(
    chunk_index: SearchIndex, query_vec: np.ndarray, k_candidates: int, min_docs: int
) -> list[tuple[str, float]]:
    """Top chunks merged back into their parent documents, as (doc id,
    similarity) pairs in (-similarity, doc id) order.

    A document's similarity is the max over its retrieved chunks. If the
    top-k chunks collapse onto fewer than min_docs parents, the scan depth
    is doubled until enough parents are found or the index is exhausted.
    """
    if chunk_index.kind != "chunk":
        raise ValueError(
            f"a chunk-level index is required here, not the {chunk_index.kind} index of {chunk_index.name!r}"
        )
    k = k_candidates
    while True:
        hits = chunk_index.search(query_vec, k)
        best: dict[str, float] = {}
        for (doc_id, _section), sim in hits:
            if doc_id not in best:
                best[doc_id] = sim
        if len(best) >= min_docs or k >= len(chunk_index):
            break
        k = min(k * 2, len(chunk_index))
    return sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))


@dataclass(frozen=True)
class Cell:
    """One pipeline over one index. Judged pipelines, and baseline given a
    judge, also need the corpus whose documents the index holds."""

    pipeline: Pipeline
    index: SearchIndex
    corpus: Corpus | None = None


@dataclass(frozen=True)
class CellRun:
    """A cell's results, one per query up to its first failure, and that
    failure (None when every query succeeded)."""

    results: tuple[RetrievalResult, ...]
    error: Exception | None = None


def _ask(fn, items: list) -> list:
    """fn's replies to a batch, one per item. An exception fn raises, or a
    reply count that does not match, becomes every item's reply."""
    try:
        replies = list(fn(items))
        if len(replies) != len(items):
            raise ValueError(f"expected {len(items)} replies, got {len(replies)}")
    except Exception as exc:
        return [exc] * len(items)
    return replies


class Retriever:
    """Runs cells of queries through the pipelines; `run` takes any number
    of cells and `retrieve` is one cell.

    `run` has a find half and a rank half. Find: one rewriter call over the
    distinct query texts not rewritten before (if a cell is
    query_transformation), each distinct search text embedded once, and
    every cell's candidates. Then one judge call over the (query text, doc
    id) pairs that no earlier call scored, each pair once. Rank: each
    cell's queries from those scores.

    A Retriever keeps every rewrite, search-text vector and judge score
    for its lifetime, keyed by text and doc id; so all the cells it runs
    must give one document per doc id (`evaluation.run_grid` runs cells
    over `union_corpus`, which guarantees it). A failure is never kept: it
    is the error of each cell of this call that holds it, at that cell's
    own query, and a later call asks again.
    """

    def __init__(
        self,
        judge: JudgeFn | None = None,
        rewriter: RewriteFn | None = None,
        k_candidates: int = DEFAULT_CANDIDATES,
        top_k: int = DEFAULT_TOP_K,
    ):
        self.judge = judge
        self.rewriter = rewriter
        self.k_candidates = k_candidates
        self.top_k = top_k
        self._scores: dict[tuple[str, str], int] = {}
        self._rewrites: dict[str, str] = {}
        self._vectors: dict[tuple[str, str], np.ndarray] = {}

    def run(self, cells: Sequence[Cell], queries: Sequence[Query]) -> list[CellRun]:
        """Every cell over `queries`, in order."""
        rewrites = {}
        if self.rewriter is not None and any(c.pipeline is Pipeline.QUERY_TRANSFORMATION for c in cells):
            rewrites = self._rewrite([query.text for query in queries])
        found = [self._find(cell, queries, rewrites) for cell in cells]
        failures = self._judge_new_pairs(cells, found)
        return [self._rank(cell, *cell_found, failures) for cell, cell_found in zip(cells, found)]

    def _scored(self, cell: Cell) -> bool:
        return cell.pipeline is not Pipeline.BASELINE or self.judge is not None

    def _rewrite(self, texts: list[str]) -> dict[str, str | Exception]:
        """Each text's rewrite or failure; only texts not rewritten before
        are asked, in one rewriter call."""
        new = [text for text in dict.fromkeys(texts) if text not in self._rewrites]
        asked = dict(zip(new, _ask(self.rewriter, new))) if new else {}
        self._rewrites.update((t, r) for t, r in asked.items() if not isinstance(r, Exception))
        return {text: self._rewrites.get(text, asked.get(text)) for text in texts}

    def _check(self, cell: Cell) -> None:
        pipeline, index = cell.pipeline, cell.index
        if pipeline is Pipeline.QUERY_TRANSFORMATION and self.rewriter is None:
            raise ValueError("query_transformation needs a rewriter")
        wanted = "chunk" if pipeline is Pipeline.HIERARCHICAL else "document"
        if index.kind != wanted:
            raise ValueError(
                f"a {wanted}-level index is required here, not the {index.kind} index of {index.name!r}"
            )
        if self._scored(cell) and (self.judge is None or cell.corpus is None):
            raise ValueError(f"{pipeline.value} needs a judge and the corpus of its index")

    def _find(
        self, cell: Cell, queries: Sequence[Query], rewrites: dict[str, str | Exception]
    ) -> tuple[list, Exception | None]:
        """(query, rewrite, candidates) for each query up to the first
        failure, and that failure."""
        found: list[tuple[Query, str | None, list[tuple[str, float]]]] = []
        try:
            self._check(cell)
        except ValueError as exc:
            return found, exc
        transform = cell.pipeline is Pipeline.QUERY_TRANSFORMATION
        for query in queries:
            rewritten = rewrites[query.text] if transform else None
            if isinstance(rewritten, Exception):
                return found, rewritten
            try:
                candidates = self._candidates(cell, query.text if rewritten is None else rewritten)
            except Exception as exc:
                return found, exc
            found.append((query, rewritten, candidates))
        return found, None

    def _candidates(self, cell: Cell, search_text: str) -> list[tuple[str, float]]:
        """(doc id, similarity) candidates in similarity order for one
        search text; baseline's are its similarity top-k."""
        index = cell.index
        key = (index.embedder.id, search_text)
        query_vec = self._vectors.get(key)
        if query_vec is None:
            query_vec = self._vectors[key] = index.embedder.embed(search_text)
        if cell.pipeline is Pipeline.HIERARCHICAL:
            min_docs = min(self.top_k, len(cell.corpus))
            return merge_chunk_candidates(index, query_vec, self.k_candidates, min_docs)
        # Every document-level cell asks for k_candidates, so a vector's
        # first search makes the one prefix all its later searches read.
        candidates = index.search(query_vec, self.k_candidates)
        return candidates[: self.top_k] if cell.pipeline is Pipeline.BASELINE else candidates

    def _judge_new_pairs(self, cells: Sequence[Cell], found: list) -> dict[tuple[str, str], Exception]:
        """Judge, in one call, each pair the cells hold that is not scored
        yet; keep the scores and return the failures."""
        pending: dict[tuple[str, str], tuple[str, Document]] = {}
        for cell, (cell_found, _) in zip(cells, found):
            if not self._scored(cell):
                continue
            for query, _, candidates in cell_found:
                for doc_id, _ in candidates:
                    pair = (query.text, doc_id)
                    if pair not in self._scores and pair not in pending:
                        pending[pair] = (query.text, cell.corpus.document(doc_id))
        failures = {}
        if pending:
            for pair, reply in zip(pending, _ask(self.judge, list(pending.values()))):
                if isinstance(reply, Exception):
                    failures[pair] = reply
                else:
                    self._scores[pair] = reply
        return failures

    def _rank(
        self,
        cell: Cell,
        found: list,
        error: Exception | None,
        failures: dict[tuple[str, str], Exception],
    ) -> CellRun:
        """Each found query's top_k. Judged pipelines sort (-score,
        -similarity, doc id) tuples; only the kept ones become RetrievedDoc."""
        scores = self._scores if self._scored(cell) else None
        judged = cell.pipeline is not Pipeline.BASELINE
        top_k = self.top_k
        results = []
        for query, rewritten, candidates in found:
            if scores is None:
                top = [RetrievedDoc(doc_id, None, sim) for doc_id, sim in candidates[:top_k]]
            else:
                text = query.text
                try:
                    ranked = [(-scores[text, doc_id], -sim, doc_id) for doc_id, sim in candidates]
                except KeyError as missing:  # the first pair of this query that was not scored
                    return CellRun(tuple(results), failures[missing.args[0]])
                if judged:
                    ranked.sort()
                top = [RetrievedDoc(doc_id, -neg_score, -neg_sim) for neg_score, neg_sim, doc_id in ranked[:top_k]]
            results.append(RetrievalResult(query.id, cell.pipeline, tuple(top), rewritten))
        return CellRun(tuple(results), error)


def retrieve(
    pipeline: Pipeline,
    queries: Sequence[Query],
    index: SearchIndex,
    corpus: Corpus | None = None,
    judge: JudgeFn | None = None,
    rewriter: RewriteFn | None = None,
    k_candidates: int = DEFAULT_CANDIDATES,
    top_k: int = DEFAULT_TOP_K,
) -> Iterator[RetrievalResult]:
    """Run queries through any of the four pipelines; yields one result
    per query, in order.

    - baseline: cosine top-k over a document index.
    - hierarchical: top chunks of a chunk index merged to their parent
      documents (avoiding fragmentary results), then judge-ranked.
    - reranking: cosine candidates for recall, judge scores for precision.
    - query_transformation: the rewritten query picks the candidates,
      then they are judge-ranked like reranking.

    This is `Retriever.run` with one cell: one rewriter call, one judge
    call over the distinct (query text, doc id) pairs, then each query
    ranked from those scores. Judged pipelines judge all candidates;
    baseline, given a judge, judges only its similarity top-k, so its top
    documents carry scores (None without a judge). Judged pipelines need
    the corpus and the judge, and always judge against the original query
    text. A rewrite, guard or judge failure is raised at the query it
    belongs to, after the results of the queries before it; silently
    falling back to the raw query would hide a broken pipeline stage.
    """
    [run] = Retriever(judge, rewriter, k_candidates, top_k).run([Cell(pipeline, index, corpus)], queries)
    yield from run.results
    if run.error is not None:
        raise run.error
