"""Subtopic labeling of queries and documents via the classification prompt.

The classifier returns a weighted distribution over at most three subtopics;
downstream gap analysis consumes only the primary (argmax) label. The full
weighting is kept in the persisted record.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import Taxonomy, write_records
from .gateway import CompletionRequest, Gateway, ProviderError, ProviderParams

SUM_TOLERANCE = 0.01
MAX_SUBTOPICS = 3

_JSON_BLOCK_RE = re.compile(r"\{.*?\}", re.DOTALL)


class LabelingError(ValueError):
    """Unusable classification response; carries the raw response text."""

    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


def primary_of(weights: Mapping[str, float], taxonomy: Taxonomy) -> str:
    """Argmax subtopic; ties broken by taxonomy order."""
    return min(weights, key=lambda s: (-weights[s], taxonomy.index(s)))


@dataclass(frozen=True)
class WeightedLabeling:
    weights: Mapping[str, float]
    primary: str


def parse_labeling(raw: str, taxonomy: Taxonomy) -> WeightedLabeling:
    """Parse and validate a classification response.

    Responses with more than three subtopics are rejected rather than
    truncated; truncation would silently alter the distribution.
    """
    match = _JSON_BLOCK_RE.search(raw)
    if match is None:
        raise LabelingError("no JSON object found in response", raw=raw)
    try:
        payload = json.loads(match.group(0))
    except json.JSONDecodeError as exc:
        raise LabelingError(f"invalid JSON in response: {exc}", raw=raw)
    if not isinstance(payload, dict) or not payload:
        raise LabelingError("response JSON is not a non-empty object", raw=raw)
    if len(payload) > MAX_SUBTOPICS:
        raise LabelingError(f"{len(payload)} subtopics returned, at most {MAX_SUBTOPICS} allowed", raw=raw)
    weights: dict[str, float] = {}
    for subtopic, weight in payload.items():
        if subtopic not in taxonomy:
            raise LabelingError(f"subtopic {subtopic!r} not in taxonomy", raw=raw)
        if not isinstance(weight, (int, float)) or weight <= 0:
            raise LabelingError(f"weight for {subtopic!r} must be a positive number", raw=raw)
        weights[subtopic] = float(weight)
    total = sum(weights.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise LabelingError(f"weights sum to {total:.4f}, expected 1.0 +- {SUM_TOLERANCE}", raw=raw)
    return WeightedLabeling(weights=weights, primary=primary_of(weights, taxonomy))


def _request(text: str, taxonomy: Taxonomy, params: ProviderParams | None) -> CompletionRequest:
    if not text.strip():
        raise ValueError("cannot label empty text")
    return CompletionRequest(
        template="classify_subtopics",
        bindings={"subtopics": "\n".join(taxonomy.subtopic_ids), "text": text},
        params=params or ProviderParams(),
    )


def label_batch(
    items: Sequence[tuple[str, str]],
    taxonomy: Taxonomy,
    gateway: Gateway,
    params: ProviderParams | None = None,
) -> tuple[dict[str, WeightedLabeling], list[tuple[str, str]]]:
    """Label (id, text) pairs in one `Gateway.complete_many` batch;
    partial success allowed.

    Returns successes keyed by id plus a failure list of (id, reason): an
    empty text, an unusable reply, or a provider that failed after its
    retries. Successes are served from the gateway cache on re-runs, so
    only previously failed items reach the provider again.
    """
    ids = [item_id for item_id, _ in items]
    if len(set(ids)) != len(ids):
        raise ValueError("item ids must be unique")
    outcomes: dict[str, object] = {}
    todo: list[tuple[str, CompletionRequest]] = []
    for item_id, text in items:
        try:
            todo.append((item_id, _request(text, taxonomy, params)))
        except ValueError as exc:
            outcomes[item_id] = exc
    replies = gateway.complete_many(
        [request for _, request in todo], lambda raw: parse_labeling(raw, taxonomy)
    )
    outcomes.update((item_id, reply) for (item_id, _), reply in zip(todo, replies))
    labelings: dict[str, WeightedLabeling] = {}
    failures: list[tuple[str, str]] = []
    for item_id in ids:
        outcome = outcomes[item_id]
        if isinstance(outcome, (ValueError, ProviderError)):
            failures.append((item_id, str(outcome)))
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            labelings[item_id] = outcome
    return labelings, failures


def write_labelings(labelings: Mapping[str, WeightedLabeling], path: str | Path) -> None:
    write_records(
        path,
        (
            {"id": item_id, "primary": lab.primary, "weights": dict(lab.weights)}
            for item_id, lab in sorted(labelings.items())
        ),
    )

