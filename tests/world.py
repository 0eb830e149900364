"""Synthetic mock world shared by pipeline and acceptance tests.

Ten subtopics with disjoint 12-word vocabularies. Query demand is skewed
80/20: two "hot" subtopics carry 80% of queries but the baseline corpus
covers them with a single weak document each, while the eight "cold"
subtopics are well supplied. Every document has a distinct quality level:
level j contains the first 12 - j vocabulary words padded with unique junk
tokens, so better documents are strictly better for every query of their
subtopic, by cosine and by judged token overlap alike. Quality gaps
(about 8 judge points between adjacent levels) exceed the mock judge's
+-3 perturbation, and junk tokens are chosen to avoid hash-bucket
collisions at EMBED_DIM, so rankings are exact, not statistical.

It also holds the file helpers that only tests need: a taxonomy writer, a
labelings reader and a cell-file reader.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from corpusgap.annotate import WeightedLabeling
from corpusgap.corpus import (
    Corpus,
    Document,
    MainTopic,
    Query,
    Section,
    Source,
    Split,
    Taxonomy,
    read_records,
    write_records,
)
from corpusgap.evaluation import ExperimentResult, ExperimentSpec, Pipeline, QueryOutcome
from corpusgap.gaps import GapParams, GapWeights, analyze_gaps
from corpusgap.gateway import Gateway, JudgeFn, make_gateway_judge
from corpusgap.planner import (
    allocate_quotas,
    build_directed_corpus,
    build_nondirected_corpus,
    score_external_pool,
)
from corpusgap.providers import (
    HashedBagEmbedder,
    MockProvider,
    _token_bucket,
    counts_overlap,
    mock_query,
    mock_query_score,
    query_tokens,
    token_counts,
)

EMBED_DIM = 4096

VOCAB_BANKS = [
    ["sleep", "insomnia", "restless", "night", "bedtime", "tired", "awake", "racing",
     "drowsy", "nocturnal", "waking", "slumber"],
    ["panic", "worry", "anxious", "tension", "dread", "nerves", "overthinking", "spiral",
     "uneasy", "jittery", "apprehension", "fretting"],
    ["sadness", "low", "hopeless", "empty", "crying", "withdrawn", "numb", "heavy",
     "gloomy", "tearful", "despair", "melancholy"],
    ["anger", "irritable", "rage", "outburst", "frustration", "temper", "snapping", "boiling",
     "fuming", "grudge", "hostility", "seething"],
    ["focus", "distracted", "procrastinate", "deadline", "scattered", "forgetful", "chaotic",
     "disorganized", "unfocused", "sidetracked", "adrift", "cluttered"],
    ["lonely", "isolated", "disconnected", "friendless", "unseen", "excluded", "solitary",
     "longing", "aloneness", "estranged", "unheard", "invisible"],
    ["grief", "loss", "mourning", "bereaved", "missing", "memorial", "sorrow", "farewell",
     "bereavement", "remembrance", "heartache", "keepsake"],
    ["stress", "burnout", "overload", "pressure", "exhausted", "overwhelmed", "strain",
     "depleted", "frazzled", "overworked", "drained", "weary"],
    ["conflict", "argument", "partner", "breakup", "jealousy", "distance", "resentment",
     "quarrel", "bickering", "mistrust", "silence", "betrayal"],
    ["confidence", "doubt", "inadequate", "critic", "shame", "worthless", "comparison",
     "failure", "insecurity", "hesitant", "criticism", "unworthy"],
]

TOPICS = [
    ("Sleep", ["Insomnia", "Nightmares"]),
    ("Anxiety", ["Panic", "Rumination"]),
    ("Mood", ["Low mood", "Grief"]),
    ("Stress", ["Burnout", "Anger"]),
    ("Relationships", ["Conflict", "Self-esteem"]),
]

FILLER = ["please", "help", "me", "today"]

HOT = 2  # first two subtopics carry 80% of the queries
LEVELS = 7  # pool quality levels 0 (best, all 12 words) .. 6 (6 words)
LADDER_BUDGETS = (4, 8, 12, 16, 24, 32, 40, 50, 60, 70)

TRAIN_COUNTS = [24, 24, 2, 2, 2, 2, 1, 1, 1, 1]
TEST_COUNTS = [12, 12, 1, 1, 1, 1, 1, 1, 0, 0]


@dataclass(frozen=True)
class World:
    taxonomy: Taxonomy
    subtopics: tuple[str, ...]
    baseline: Corpus
    pool: tuple[Document, ...]
    train_queries: tuple[Query, ...]
    test_queries: tuple[Query, ...]
    budgets: tuple[int, ...]


class _JunkFactory:
    """Unique junk tokens whose hash buckets collide with nothing else."""

    def __init__(self, dim: int, reserved_tokens: list[str]):
        self.dim = dim
        self.used = {_token_bucket(t, dim) for t in reserved_tokens}
        assert len(self.used) == len(reserved_tokens), "reserved tokens collide"
        self.counter = 0

    def take(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            token = f"zz{self.counter:05d}"
            self.counter += 1
            bucket = _token_bucket(token, self.dim)
            if bucket in self.used:
                continue
            self.used.add(bucket)
            out.append(token)
        return out


def _leveled_doc(
    doc_id: str, subtopic: str, bank: list[str], level: int, source: Source, junk: _JunkFactory
) -> Document:
    # 12 tokens total at every level, so all documents share the same norm.
    tokens = bank[: 12 - level] + junk.take(level)
    return Document(
        id=doc_id,
        source=source,
        title=" ".join(tokens[:2]),
        sections=(
            Section(heading=tokens[2], body=" ".join(tokens[3:7])),
            Section(heading=tokens[7], body=" ".join(tokens[8:12])),
        ),
        subtopic=subtopic,
    )


def _query_text(rng: random.Random, bank: list[str]) -> str:
    words = list(bank)
    rng.shuffle(words)
    return " ".join(words + [rng.choice(FILLER)])


def build_world(seed: int = 0) -> World:
    vocab = [w for bank in VOCAB_BANKS for w in bank]
    assert len(set(vocab)) == 120
    taxonomy = Taxonomy(
        topics=tuple(MainTopic(name=n, subtopics=tuple(subs)) for n, subs in TOPICS)
    )
    subtopics = taxonomy.subtopic_ids
    junk = _JunkFactory(EMBED_DIM, vocab + FILLER)
    rng = random.Random(seed)

    baseline_docs: list[Document] = []
    for si, subtopic in enumerate(subtopics):
        bank = VOCAB_BANKS[si]
        if si < HOT:
            baseline_docs.append(
                _leveled_doc(f"base-s{si:02d}-d00", subtopic, bank, LEVELS - 1, Source.BASELINE, junk)
            )
        else:
            for level in range(4):
                baseline_docs.append(
                    _leveled_doc(
                        f"base-s{si:02d}-d{level:02d}", subtopic, bank, level, Source.BASELINE, junk
                    )
                )
    baseline = Corpus(name="baseline", documents=tuple(baseline_docs))

    pool: list[Document] = []
    for si, subtopic in enumerate(subtopics):
        bank = VOCAB_BANKS[si]
        for level in range(LEVELS):
            pool.append(
                _leveled_doc(
                    f"pool-s{si:02d}-d{level:02d}", subtopic, bank, level, Source.REFERENCE, junk
                )
            )

    train: list[Query] = []
    test: list[Query] = []
    for si, subtopic in enumerate(subtopics):
        bank = VOCAB_BANKS[si]
        for j in range(TRAIN_COUNTS[si]):
            train.append(
                Query(
                    id=f"train-s{si:02d}-q{j:02d}",
                    text=_query_text(rng, bank),
                    split=Split.TRAIN,
                    subtopic=subtopic,
                )
            )
        for j in range(TEST_COUNTS[si]):
            test.append(
                Query(
                    id=f"test-s{si:02d}-q{j:02d}",
                    text=_query_text(rng, bank),
                    split=Split.TEST,
                    subtopic=subtopic,
                )
            )
    return World(
        taxonomy=taxonomy,
        subtopics=subtopics,
        baseline=baseline,
        pool=tuple(pool),
        train_queries=tuple(train),
        test_queries=tuple(test),
        budgets=LADDER_BUDGETS,
    )


def token_overlap(query_text: str, doc_text: str) -> float:
    """Multiset containment of query tokens in the document, in [0, 1]."""
    return counts_overlap(query_tokens(query_text), token_counts(doc_text))


def mock_score(query_text: str, doc_text: str, seed: int) -> int:
    """The mock judge's score of one (query text, document text) pair."""
    return mock_query_score(mock_query(query_text, seed), doc_text)


def mock_gateway_judge(seed: int = 0) -> JudgeFn:
    """The mock judge: the gateway judge over `MockProvider(seed)`, with
    its own in-memory cache."""
    return make_gateway_judge(Gateway(MockProvider(seed)))


def world_embedder() -> HashedBagEmbedder:
    return HashedBagEmbedder(dim=EMBED_DIM)


def world_gap_scores(world: World, judge: JudgeFn) -> dict[str, float]:
    gaps = analyze_gaps(
        world.baseline,
        world.train_queries,
        world.taxonomy,
        GapParams(total_docs=len(world.baseline)),
        GapWeights(),
        judge,
    )
    return {g.subtopic: g.hybrid for g in gaps}


def build_ladders(world: World, judge: JudgeFn, sample_seed: int):
    """Directed and Non-Directed corpora for every ladder budget."""
    scores = world_gap_scores(world, judge)
    scored_pool, skipped = score_external_pool(world.pool, world.train_queries, judge)
    assert not skipped
    availability: dict[str, int] = {}
    for doc in world.pool:
        availability[doc.subtopic] = availability.get(doc.subtopic, 0) + 1
    directed = []
    nondirected = []
    for budget in world.budgets:
        plan = allocate_quotas(scores, budget, availability)
        directed.append(build_directed_corpus(world.baseline, scored_pool, plan))
        nondirected.append(
            build_nondirected_corpus(world.baseline, list(world.pool), budget, sample_seed)
        )
    return directed, nondirected


def reference_corpus(world: World) -> Corpus:
    docs = world.baseline.documents + tuple(sorted(world.pool, key=lambda d: d.id))
    return Corpus(name="reference", documents=docs)


def write_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    """The taxonomy as the JSONL that `corpus.load_taxonomy` reads."""
    write_records(
        path,
        ({"name": t.name, "subtopics": list(t.subtopics)} for t in taxonomy.topics),
    )


def read_labelings(path: str | Path) -> dict[str, WeightedLabeling]:
    """The labelings that `annotate.write_labelings` wrote."""
    return {
        record["id"]: WeightedLabeling(weights=record["weights"], primary=record["primary"])
        for _, record in read_records(path)
    }


def load_experiment(path: str | Path) -> ExperimentResult:
    """The cell that `evaluation.save_experiment` wrote."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    meta = lines[0]
    return ExperimentResult(
        spec=ExperimentSpec(
            corpus_name=meta["corpus"],
            pipeline=Pipeline(meta["pipeline"]),
            seed=meta["seed"],
        ),
        avg_score=meta["avg_score"],
        per_query=tuple(
            QueryOutcome(query_id=row["query_id"], doc_scores=tuple((d[0], d[1]) for d in row["docs"]))
            for row in lines[1:]
        ),
        complete=meta["complete"],
        error=meta.get("error"),
    )
