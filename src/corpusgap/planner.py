"""Quota allocation and corpus construction for gap-directed augmentation.

Budgets are apportioned across subtopics in proportion to hybrid gap scores
using the largest-remainder method, capped by per-subtopic availability
with surplus redistributed to the next-largest remainders. Directed corpora
take the judge-ranked best external documents per subtopic (unjudged ones,
of a subtopic no training query asks about, last by id); Non-Directed
corpora take a size-matched seeded random sample.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import Corpus, Document, Query, Section, Source, read_records, record_field, write_records
from .gateway import CompletionRequest, Gateway, JudgeFn, ProviderParams

log = logging.getLogger(__name__)

LENGTH_TOLERANCE = 0.10


@dataclass(frozen=True)
class QuotaPlan:
    budget: int
    allocations: Mapping[str, int]

    def __post_init__(self) -> None:
        total = sum(self.allocations.values())
        if total != self.budget:
            raise ValueError(f"allocations sum to {total}, expected budget {self.budget}")
        if any(a < 0 for a in self.allocations.values()):
            raise ValueError("allocations must be non-negative")


@dataclass(frozen=True)
class ScoredExternalDoc:
    doc: Document
    subtopic: str
    avg_score: float | None  # None: no training query in its subtopic


def allocate_quotas(
    gap_scores: Mapping[str, float],
    budget: int,
    availability: Mapping[str, int],
) -> QuotaPlan:
    """Apportion a document budget across subtopics by gap score.

    Raw quota is budget * score / total score, integerized by largest
    remainder. A subtopic never receives more than its availability;
    surplus cycles to the next-largest remainders until the budget is
    placed. Deterministic: ties break on subtopic id.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    total_score = fsum(gap_scores.values())
    if total_score <= 0:
        raise ValueError("all gap scores are zero; nothing to prioritize")
    if any(v < 0 for v in gap_scores.values()):
        raise ValueError("gap scores must be non-negative")
    capacity = {s: max(0, int(availability.get(s, 0))) for s in gap_scores}
    if budget > sum(capacity.values()):
        raise ValueError(
            f"budget {budget} exceeds total availability {sum(capacity.values())}"
        )
    raw = raw_quotas(gap_scores, budget)
    allocations = {s: min(math.floor(raw[s]), capacity[s]) for s in gap_scores}
    order = sorted(gap_scores, key=lambda s: (-(raw[s] - math.floor(raw[s])), s))
    deficit = budget - sum(allocations.values())
    while deficit > 0:
        for s in order:
            if deficit == 0:
                break
            if allocations[s] < capacity[s]:
                allocations[s] += 1
                deficit -= 1
    return QuotaPlan(budget=budget, allocations=allocations)


def raw_quotas(gap_scores: Mapping[str, float], budget: int) -> dict[str, float]:
    total = fsum(gap_scores.values())
    return {s: budget * v / total for s, v in gap_scores.items()}


def write_plan(
    plan: QuotaPlan,
    gap_scores: Mapping[str, float],
    path: str | Path,
) -> None:
    raws = raw_quotas(gap_scores, plan.budget)
    write_records(
        path,
        (
            {
                "subtopic": s,
                "hybrid": gap_scores[s],
                "raw_quota": raws[s],
                "allocation": plan.allocations.get(s, 0),
            }
            for s in sorted(gap_scores)
        ),
    )


def read_plan(path: str | Path) -> QuotaPlan:
    allocations: dict[str, int] = {}
    for lineno, record in read_records(path):
        where = f"{path}:{lineno}"
        subtopic = record_field(record, "subtopic", "str", where)
        allocations[subtopic] = record_field(record, "allocation", "int", where)
    return QuotaPlan(budget=sum(allocations.values()), allocations=allocations)


def judge_pairs(
    judge: JudgeFn,
    queries: Sequence[Query],
    docs: Sequence[Document],
    logger: logging.Logger = log,
) -> list[list[int | None]]:
    """Scores of every (query, doc) pair, one row per query and one column
    per doc, judged in one judge call. A pair whose judge call fails is
    logged on `logger` and scores None."""
    outcomes = iter(judge([(query.text, doc) for query in queries for doc in docs]))
    rows = []
    for query in queries:
        row: list[int | None] = []
        for doc in docs:
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                logger.warning("judge failed for query %s doc %s: %s", query.id, doc.id, outcome)
                outcome = None
            row.append(outcome)
        rows.append(row)
    return rows


def score_external_pool(
    pool: Sequence[Document],
    train_queries: Sequence[Query],
    judge: JudgeFn,
) -> tuple[list[ScoredExternalDoc], list[str]]:
    """Score each pool document against the training queries of its subtopic.

    Returns (scored docs, ids skipped). Every labeled document is scored;
    one whose subtopic has no training queries gets `avg_score=None`.
    Unlabeled documents are skipped, and so are documents whose every
    judge call failed: a failure is not filled in. Each subtopic's pairs
    are judged in one batch (`judge_pairs`), which bounds the memory a
    batch holds. Per-pair judge failures are logged and excluded from the
    mean.
    """
    queries_by_subtopic: dict[str, list[Query]] = {}
    for query in sorted(train_queries, key=lambda q: q.id):
        if query.subtopic is not None:
            queries_by_subtopic.setdefault(query.subtopic, []).append(query)
    docs_by_subtopic: dict[str, list[Document]] = {}
    for doc in sorted(pool, key=lambda d: d.id):
        if doc.subtopic in queries_by_subtopic:
            docs_by_subtopic.setdefault(doc.subtopic, []).append(doc)
    scores_by_doc: dict[str, list[int]] = {}
    for subtopic, docs in docs_by_subtopic.items():
        rows = judge_pairs(judge, queries_by_subtopic[subtopic], docs)
        for j, doc in enumerate(docs):
            scores_by_doc[doc.id] = [row[j] for row in rows if row[j] is not None]
    scored: list[ScoredExternalDoc] = []
    skipped: list[str] = []
    for doc in sorted(pool, key=lambda d: d.id):
        scores = scores_by_doc.get(doc.id)
        if doc.subtopic is None or scores == []:
            skipped.append(doc.id)
            continue
        avg = fsum(scores) / len(scores) if scores else None
        scored.append(ScoredExternalDoc(doc=doc, subtopic=doc.subtopic, avg_score=avg))
    return scored, skipped


def build_directed_corpus(
    baseline: Corpus,
    pool: Sequence[ScoredExternalDoc],
    plan: QuotaPlan,
    name: str | None = None,
) -> Corpus:
    """Baseline plus the top-quota pool documents per subtopic.

    Ranking is by average judge score descending, ties by ascending doc
    id; unjudged documents (`avg_score` None) come last, by id.
    """
    by_subtopic: dict[str, list[ScoredExternalDoc]] = {}
    for entry in pool:
        by_subtopic.setdefault(entry.subtopic, []).append(entry)
    selected: list[Document] = []
    for subtopic in sorted(plan.allocations):
        quota = plan.allocations[subtopic]
        if quota == 0:
            continue
        candidates = sorted(
            by_subtopic.get(subtopic, []),
            key=lambda e: (e.avg_score is None, -(e.avg_score or 0.0), e.doc.id),
        )
        if len(candidates) < quota:
            raise ValueError(
                f"plan asks for {quota} docs in {subtopic!r} but pool has {len(candidates)}"
            )
        selected.extend(entry.doc for entry in candidates[:quota])
    selected.sort(key=lambda d: d.id)
    return Corpus(
        name=name or f"directed-{plan.budget}",
        documents=baseline.documents + tuple(selected),
    )


def build_nondirected_corpus(
    baseline: Corpus,
    pool: Sequence[Document],
    size: int,
    seed: int,
    name: str | None = None,
) -> Corpus:
    """Baseline plus a uniform random sample of the pool, seeded."""
    if size > len(pool):
        raise ValueError(f"sample size {size} exceeds pool size {len(pool)}")
    ordered = sorted(pool, key=lambda d: d.id)
    sample = random.Random(seed).sample(ordered, size)
    sample.sort(key=lambda d: d.id)
    return Corpus(
        name=name or f"nondirected-{size}-s{seed}",
        documents=baseline.documents + tuple(sample),
    )


# --- synthetic document generation ----------------------------------------


@dataclass(frozen=True)
class ArticleMetadata:
    title: str
    headers: tuple[str, ...]
    word_count: int


@dataclass(frozen=True)
class GenerationResult:
    document: Document
    requested_words: int
    generated_words: int
    length_deviation: float
    length_flagged: bool


def parse_article(text: str) -> tuple[str, tuple[Section, ...]]:
    """Split generated article text into a title and heading/body sections.

    Markdown-style: the first '# ' line is the title, '## ' lines open
    sections. Loose text before the first section becomes an untitled
    section.
    """
    title = ""
    sections: list[Section] = []
    heading: str | None = None
    body: list[str] = []

    def flush() -> None:
        nonlocal heading, body
        content = "\n".join(body).strip()
        if heading is not None or content:
            sections.append(Section(heading=heading or "", body=content))
        heading, body = None, []

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("## "):
            flush()
            heading = stripped[3:].strip()
        elif stripped.startswith("# ") and not title:
            title = stripped[2:].strip()
        elif not title and stripped and heading is None and not sections:
            title = stripped
        else:
            body.append(line)
    flush()
    if not sections:
        raise ValueError("generated article has no content")
    return title, tuple(sections)


def parse_generation(raw: str) -> tuple[str, tuple[Section, ...]]:
    """`parse_article` for a provider reply; an empty reply is an error, so
    the gateway never caches it."""
    if not raw.strip():
        raise ValueError("provider returned an empty generation")
    return parse_article(raw)


def generate_synthetic_doc(
    metadata: ArticleMetadata,
    gateway: Gateway,
    doc_id: str,
    subtopic: str | None = None,
    params: ProviderParams | None = None,
) -> GenerationResult:
    """Generate one synthetic article from metadata.

    The requested length is advisory: a deviation beyond +-10% is flagged,
    not rejected, since providers cannot hit word counts exactly.
    """
    if not metadata.title.strip():
        raise ValueError("metadata title must be non-empty")
    if metadata.word_count <= 0:
        raise ValueError("metadata word_count must be positive")
    request = CompletionRequest(
        template="generate_article",
        bindings={
            "metadata": json.dumps(
                {
                    "title": metadata.title,
                    "headers": list(metadata.headers),
                    "word_count": metadata.word_count,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        },
        params=params or ProviderParams(),
    )
    title, sections = gateway.complete_parsed(request, parse_generation)
    document = Document(
        id=doc_id,
        source=Source.SYNTHETIC,
        title=title,
        sections=sections,
        subtopic=subtopic,
    )
    generated = document.word_count
    deviation = abs(generated - metadata.word_count) / metadata.word_count
    return GenerationResult(
        document=document,
        requested_words=metadata.word_count,
        generated_words=generated,
        length_deviation=deviation,
        length_flagged=deviation > LENGTH_TOLERANCE,
    )
