"""Seeded synthetic workload for the corpusgap study benchmark.

Writes the JSONL inputs a user would hand to the CLI: a taxonomy, a
labeled baseline corpus, an unlabeled external pool, and unlabeled train
and test queries. The true subtopic of every unlabeled record goes to a
separate truth file that only the benchmark reads.

Every subtopic has a made-up topic word and subtopic word; the titles of
its documents and the texts of its queries carry both, so the mock
classifier labels them exactly. Bodies mix words from the subtopic's own
bank with words from a shared vocabulary; `shared_share` sets that mix,
and with it how close documents of different subtopics sit in embedding
space and how spread the judge's scores are. Each document covers a
random share of its bank (its quality), so the judge separates good and
weak documents.

Query demand follows a Zipf law over a seeded ranking of subtopics; the
last UNASKED_SUBTOPICS ranks get no queries at all, as taxonomy entries
nobody asks about do in real query logs. Counts are apportioned, not
sampled. Baseline supply is apportioned in reverse rank order, so the
most asked subtopics are the least covered and the gap analysis has gaps
to find. The external pool follows demand: each asked subtopic gets pool
documents in proportion to its queries, which makes pool scoring (one
judge call per same-subtopic document and query pair) grow with the
square of per-subtopic demand. Each unasked subtopic still gets the
least asked one's share of the pool; pool scoring skips them, so the
top directed rungs hit the planner's availability defect. So the seed
changes which subtopic is hot and every word, but not how much judging,
embedding and searching the study does.

Same seed and parameters give the same bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from corpusgap.config import DEFAULT_BUDGETS

# The published ladder is for a ~3,000-doc pool; workloads scale it to
# their pool size.
PAPER_POOL = 3000

UNASKED_SUBTOPICS = 1
BANK_WORDS = 40
SHARED_WORDS = 300
QUERY_BANK_WORDS = 6

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class WorkloadParams:
    subtopics: int = 16
    baseline_docs: int = 160
    pool_docs: int = 320
    sections: int = 4
    words_per_section: int = 40
    train_queries: int = 120
    test_queries: int = 24
    zipf_skew: float = 1.0
    shared_share: float = 0.5

    def budgets(self) -> tuple[int, ...]:
        """The paper's ten-rung ladder scaled to this pool size."""
        scale = self.pool_docs / PAPER_POOL
        out: list[int] = []
        for b in DEFAULT_BUDGETS:
            out.append(max(round(b * scale), out[-1] + 1 if out else 1))
        if out[-1] > self.pool_docs:
            raise ValueError(f"pool of {self.pool_docs} docs too small for a ten-rung ladder")
        return tuple(out)


def _pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of `total` in proportion to `weights`."""
    scale = total / math.fsum(weights)
    raw = [w * scale for w in weights]
    counts = [math.floor(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class _Subtopic:
    qualified: str
    name_words: tuple[str, str]
    bank: tuple[str, ...]


def _document(rng, doc_id, sub, shared, params) -> dict:
    quality = rng.uniform(0.15, 1.0)
    covered = rng.sample(sub.bank, max(2, round(quality * len(sub.bank))))

    def words(n: int) -> list[str]:
        return [
            rng.choice(shared) if rng.random() < params.shared_share else rng.choice(covered)
            for _ in range(n)
        ]

    title = " ".join([*sub.name_words, *words(2)])
    sections = [
        {"heading": " ".join(words(2)), "body": " ".join(words(params.words_per_section))}
        for _ in range(params.sections)
    ]
    return {"id": doc_id, "title": title, "sections": sections}


def _query_text(rng, sub, shared) -> str:
    tokens = [*sub.name_words, *rng.sample(sub.bank, QUERY_BANK_WORDS), rng.choice(shared)]
    rng.shuffle(tokens)
    return " ".join(tokens)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def generate(seed: int, params: WorkloadParams, out_dir: str | Path) -> dict[str, Path]:
    """Write the workload files into `out_dir` and return their paths.

    Files: taxonomy.jsonl, baseline.jsonl (labeled), pool.jsonl,
    train.jsonl and test.jsonl (unlabeled), truth.json (true subtopic of
    every unlabeled record, plus the parameters and ladder budgets).
    """
    if params.subtopics < 2 or params.subtopics % 2:
        raise ValueError("subtopics must be an even number >= 2 (two per topic)")
    rng = random.Random(seed)
    taken: set[str] = set()
    topic_words = _pseudo_words(rng, params.subtopics // 2, taken)
    sub_words = _pseudo_words(rng, params.subtopics, taken)
    banks = [_pseudo_words(rng, BANK_WORDS, taken) for _ in range(params.subtopics)]
    shared = _pseudo_words(rng, SHARED_WORDS, taken)

    subtopics = []
    taxonomy = []
    for t, topic in enumerate(topic_words):
        names = [sub_words[2 * t], sub_words[2 * t + 1]]
        taxonomy.append({"name": topic.capitalize(), "subtopics": [n.capitalize() for n in names]})
        for j, name in enumerate(names):
            subtopics.append(
                _Subtopic(
                    qualified=f"{topic.capitalize()}: {name.capitalize()}",
                    name_words=(topic, name),
                    bank=tuple(banks[2 * t + j]),
                )
            )

    # Demand rank -> subtopic, seeded; rank 0 is asked most.
    ranked = list(range(params.subtopics))
    rng.shuffle(ranked)
    asked = params.subtopics - UNASKED_SUBTOPICS
    zipf = [1.0 / (r + 1) ** params.zipf_skew for r in range(params.subtopics)]
    demand = zipf[:asked] + [0.0] * UNASKED_SUBTOPICS
    supply = _apportion(params.baseline_docs, zipf[::-1])
    pool_counts = _apportion(params.pool_docs, demand[:asked] + [demand[asked - 1]] * UNASKED_SUBTOPICS)

    baseline, pool, train, test = [], [], [], []
    truth: dict[str, str] = {}
    for rank, si in enumerate(ranked):
        sub = subtopics[si]
        for _ in range(supply[rank]):
            doc = _document(rng, f"base-{len(baseline):05d}", sub, shared, params)
            doc["subtopic"] = sub.qualified
            baseline.append(doc)
        for _ in range(pool_counts[rank]):
            doc = _document(rng, f"pool-{len(pool):05d}", sub, shared, params)
            truth[doc["id"]] = sub.qualified
            pool.append(doc)
    for split, n, out in (("train", params.train_queries, train), ("test", params.test_queries, test)):
        for rank, count in enumerate(_apportion(n, demand)):
            sub = subtopics[ranked[rank]]
            for _ in range(count):
                query_id = f"{split}-{len(out):05d}"
                truth[query_id] = sub.qualified
                out.append({"id": query_id, "text": _query_text(rng, sub, shared)})

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    paths = {
        name: out_path / f"{name}.jsonl"
        for name in ("taxonomy", "baseline", "pool", "train", "test")
    }
    _write_jsonl(paths["taxonomy"], taxonomy)
    _write_jsonl(paths["baseline"], baseline)
    _write_jsonl(paths["pool"], pool)
    _write_jsonl(paths["train"], train)
    _write_jsonl(paths["test"], test)
    paths["truth"] = out_path / "truth.json"
    paths["truth"].write_text(
        json.dumps(
            {"seed": seed, "params": asdict(params), "budgets": list(params.budgets()), "labels": truth},
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return paths
