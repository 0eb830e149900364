from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from corpusgap.annotate import (
    LabelingError,
    WeightedLabeling,
    label_batch,
    parse_labeling,
    primary_of,
    write_labelings,
)
from corpusgap.corpus import MainTopic, Taxonomy
from corpusgap.gateway import Gateway, ProviderError
from corpusgap.providers import MockProvider

from .world import read_labelings


@pytest.fixture
def taxonomy() -> Taxonomy:
    return Taxonomy(
        topics=(
            MainTopic(name="Sleep", subtopics=("Insomnia", "Nightmares")),
            MainTopic(name="Anxiety", subtopics=("Panic", "Rumination")),
        )
    )


A, B, C, D = "Sleep: Insomnia", "Sleep: Nightmares", "Anxiety: Panic", "Anxiety: Rumination"


class TestParseLabeling:
    def test_weighted_distribution(self, taxonomy):
        raw = json.dumps({A: 0.7, B: 0.2, C: 0.1})
        labeling = parse_labeling(raw, taxonomy)
        assert labeling.primary == A
        assert labeling.weights == {A: 0.7, B: 0.2, C: 0.1}

    def test_singleton(self, taxonomy):
        labeling = parse_labeling(json.dumps({B: 1.0}), taxonomy)
        assert labeling.primary == B
        assert labeling.weights == {B: 1.0}

    def test_trailing_primary_line_tolerated(self, taxonomy):
        raw = json.dumps({A: 1.0}) + "\nPrimary subtopic: " + A
        assert parse_labeling(raw, taxonomy).primary == A

    def test_bad_sum_carries_raw_response(self, taxonomy):
        raw = json.dumps({A: 0.5, B: 0.3})
        with pytest.raises(LabelingError, match="sum") as excinfo:
            parse_labeling(raw, taxonomy)
        assert excinfo.value.raw == raw

    def test_sum_within_tolerance_accepted(self, taxonomy):
        assert parse_labeling(json.dumps({A: 0.6, B: 0.395}), taxonomy).primary == A

    def test_four_subtopics_rejected_not_truncated(self, taxonomy):
        raw = json.dumps({A: 0.4, B: 0.3, C: 0.2, D: 0.1})
        with pytest.raises(LabelingError, match="at most 3"):
            parse_labeling(raw, taxonomy)

    def test_unknown_subtopic_rejected(self, taxonomy):
        with pytest.raises(LabelingError, match="not in taxonomy"):
            parse_labeling(json.dumps({"Nope: Never": 1.0}), taxonomy)

    def test_nonpositive_weight_rejected(self, taxonomy):
        with pytest.raises(LabelingError, match="positive"):
            parse_labeling(json.dumps({A: 1.0, B: 0.0}), taxonomy)

    def test_no_json_rejected(self, taxonomy):
        with pytest.raises(LabelingError, match="no JSON"):
            parse_labeling("sure, the main theme is sleep", taxonomy)

    def test_tie_breaks_by_taxonomy_order(self, taxonomy):
        labeling = parse_labeling(json.dumps({C: 0.5, B: 0.5}), taxonomy)
        assert labeling.primary == B


_TAXONOMY = Taxonomy(
    topics=(
        MainTopic(name="Sleep", subtopics=("Insomnia", "Nightmares")),
        MainTopic(name="Anxiety", subtopics=("Panic", "Rumination")),
    )
)


class TestPrimaryInvariance:
    @given(
        weights=st.dictionaries(
            st.sampled_from([A, B, C, D]),
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=3,
        ),
        scale=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    )
    def test_argmax_invariant_under_positive_rescaling(self, weights, scale):
        scaled = {s: w * scale for s, w in weights.items()}
        assert primary_of(weights, _TAXONOMY) == primary_of(scaled, _TAXONOMY)


class SometimesGarbageProvider:
    """Returns garbage the first time a text contains the marker."""

    def __init__(self, seed: int = 0, marker: str = "GARBLE"):
        self.inner = MockProvider(seed=seed)
        self.id = f"flaky-{self.inner.id}"
        self.marker = marker
        self.garbled: set[str] = set()
        self.calls = 0

    def generate(self, request, prompt):
        self.calls += 1
        text = request.bindings.get("text", "")
        if self.marker in text and text not in self.garbled:
            self.garbled.add(text)
            return "no json for you"
        return self.inner.generate(request, prompt)


class FailsOnMarkerProvider:
    """Raises ProviderError on every request whose text holds the marker;
    it has no `generate_many`, so the gateway sends a batch's misses on
    threads."""

    def __init__(self, marker: str = "DOOMED"):
        self.inner = MockProvider(seed=0)
        self.id = "fails-on-marker"
        self.marker = marker

    def generate(self, request, prompt):
        if self.marker in request.bindings.get("text", ""):
            raise ProviderError("endpoint unavailable")
        return self.inner.generate(request, prompt)


class TestLabelViaGateway:
    def test_mock_label_matches_vocabulary(self, taxonomy):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        labelings, _ = label_batch([("q", "cannot stop panic attacks")], taxonomy, gateway)
        assert labelings["q"].primary == C

    def test_empty_text_rejected(self, taxonomy):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        labelings, [(item_id, reason)] = label_batch([("q", "  ")], taxonomy, gateway)
        assert labelings == {} and item_id == "q"
        assert "empty" in reason

    def test_deterministic_under_seed(self, taxonomy):
        first, _ = label_batch(
            [("q", "nightmares every night")],
            taxonomy,
            Gateway(MockProvider(seed=5), sleep=lambda s: None),
        )
        second, _ = label_batch(
            [("q", "nightmares every night")],
            taxonomy,
            Gateway(MockProvider(seed=5), sleep=lambda s: None),
        )
        assert first == second


class TestLabelBatch:
    def test_all_succeed(self, taxonomy):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        items = [("a", "panic spiral"), ("b", "insomnia again"), ("c", "rumination loop")]
        labelings, failures = label_batch(items, taxonomy, gateway)
        assert failures == []
        assert set(labelings) == {"a", "b", "c"}

    def test_partial_failure_names_item(self, taxonomy):
        provider = SometimesGarbageProvider()
        gateway = Gateway(provider, sleep=lambda s: None, max_inflight=1)
        items = [("a", "panic attacks"), ("bad", "GARBLE text"), ("c", "nightmares")]
        labelings, failures = label_batch(items, taxonomy, gateway)
        assert set(labelings) == {"a", "c"}
        assert len(failures) == 1 and failures[0][0] == "bad"

    def test_rerun_only_refetches_failed_item(self, taxonomy, tmp_path):
        cache = tmp_path / "cache.jsonl"
        provider = SometimesGarbageProvider()
        gateway = Gateway(provider, cache_path=cache, sleep=lambda s: None, max_inflight=1)
        items = [("a", "panic attacks"), ("bad", "GARBLE text"), ("c", "nightmares")]
        _, failures = label_batch(items, taxonomy, gateway)
        assert len(failures) == 1
        calls_before = provider.calls

        rerun_gateway = Gateway(provider, cache_path=cache, sleep=lambda s: None, max_inflight=1)
        labelings, failures = label_batch(items, taxonomy, rerun_gateway)
        assert failures == []
        assert set(labelings) == {"a", "bad", "c"}
        assert provider.calls == calls_before + 1

    def test_provider_error_fails_only_its_item(self, taxonomy):
        gateway = Gateway(FailsOnMarkerProvider(), sleep=lambda s: None, max_inflight=4)
        items = [("a", "panic attacks"), ("doomed", "DOOMED insomnia"), ("c", "nightmares"), ("e", " ")]
        labelings, failures = label_batch(items, taxonomy, gateway)
        assert set(labelings) == {"a", "c"}
        assert [item_id for item_id, _ in failures] == ["doomed", "e"]
        assert "failed after 3 attempts" in failures[0][1] and "empty" in failures[1][1]

    def test_duplicate_ids_rejected(self, taxonomy):
        gateway = Gateway(MockProvider(seed=0), sleep=lambda s: None)
        with pytest.raises(ValueError, match="unique"):
            label_batch([("a", "x"), ("a", "y")], taxonomy, gateway)


def test_labelings_file_round_trip(tmp_path):
    labelings = {
        "q1": WeightedLabeling(weights={A: 0.7, B: 0.3}, primary=A),
        "q2": WeightedLabeling(weights={C: 1.0}, primary=C),
    }
    path = tmp_path / "labels.jsonl"
    write_labelings(labelings, path)
    assert read_labelings(path) == labelings
