from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from corpusgap.cli import main
from corpusgap.config import apply_overrides, load_config, make_embedder, make_gateway
from corpusgap.corpus import write_corpus, write_queries, write_records, Corpus, Document
from corpusgap.gateway import ProviderError

from .world import build_world, reference_corpus, write_taxonomy


@pytest.fixture(scope="module")
def world():
    return build_world(seed=0)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, cache_dir, args, **kwargs):
    result = runner.invoke(main, ["--cache-dir", str(cache_dir), *args], **kwargs)
    if result.exit_code != 0:
        raise AssertionError(f"command {args} failed:\n{result.output}\n{result.exception}")
    return result


@pytest.mark.parametrize(
    "command",
    ["ingest", "annotate", "gaps", "plan", "build-corpus", "generate", "eval", "thresholds", "report"],
)
def test_subcommand_help(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0


def test_config_directory_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["--config", str(tmp_path), "report", "--help"])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"Invalid value for '--config': File '{tmp_path}' is a directory." in result.output


def test_index_command_is_gone(runner):
    result = runner.invoke(main, ["index", "--help"])
    assert result.exit_code != 0
    assert "No such command" in result.output


def test_readme_cli_table_lists_every_subcommand():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE))
    assert documented == set(main.commands)


def test_ingest_error_is_clean(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "d1", "title": "t", "body": "x"}\n{"id": "d1", "title": "t", "body": "y"}\n')
    result = runner.invoke(main, ["ingest", "documents", str(bad), "-o", str(tmp_path / "out.jsonl")])
    assert result.exit_code != 0
    assert "d1" in result.output


def test_full_pipeline(runner, tmp_path, world):
    work = tmp_path
    cache = work / "cache"
    tax_path = work / "taxonomy.jsonl"
    write_taxonomy(world.taxonomy, tax_path)

    raw_docs = work / "raw_docs.jsonl"
    write_corpus(world.baseline, raw_docs)
    raw_pool = work / "raw_pool.jsonl"
    write_corpus(Corpus(name="pool", documents=world.pool), raw_pool)
    raw_train = work / "raw_train.jsonl"
    write_queries(world.train_queries, raw_train)
    raw_test = work / "raw_test.jsonl"
    write_queries(world.test_queries[:10], raw_test)

    baseline_path = work / "baseline.jsonl"
    pool_path = work / "pool.jsonl"
    train_path = work / "train.jsonl"
    test_path = work / "test.jsonl"
    invoke(runner, cache, ["ingest", "documents", str(raw_docs), "-o", str(baseline_path), "--source", "baseline", "--taxonomy", str(tax_path)])
    invoke(runner, cache, ["ingest", "documents", str(raw_pool), "-o", str(pool_path), "--source", "reference", "--taxonomy", str(tax_path)])
    invoke(runner, cache, ["ingest", "queries", str(raw_train), "-o", str(train_path), "--split", "train", "--taxonomy", str(tax_path)])
    invoke(runner, cache, ["ingest", "queries", str(raw_test), "-o", str(test_path), "--split", "test", "--taxonomy", str(tax_path)])

    # annotation fills in missing subtopics
    unlabeled = work / "unlabeled.jsonl"
    write_records(
        unlabeled,
        [
            {"id": "u1", "text": "panic attacks before every exam"},
            {"id": "u2", "text": "insomnia keeps me awake"},
        ],
    )
    labeled = work / "labeled.jsonl"
    labelings = work / "labelings.jsonl"
    invoke(
        runner,
        cache,
        ["annotate", "queries", str(unlabeled), "-o", str(labeled), "--taxonomy", str(tax_path), "--labelings", str(labelings)],
    )
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    assert rows[0]["subtopic"] == "Anxiety: Panic"
    assert rows[1]["subtopic"] == "Sleep: Insomnia"

    gaps_path = work / "gaps.jsonl"
    invoke(
        runner,
        cache,
        ["gaps", "--corpus", str(baseline_path), "--queries", str(train_path), "--taxonomy", str(tax_path), "-o", str(gaps_path)],
    )
    gap_rows = [json.loads(line) for line in gaps_path.read_text().splitlines()]
    assert len(gap_rows) == 10
    assert gap_rows[0]["hybrid"] >= gap_rows[-1]["hybrid"]
    hot = set(world.subtopics[:2])
    assert {row["subtopic"] for row in gap_rows[:2]} == hot

    corpora = {"baseline": (baseline_path, "baseline", 0)}
    for budget in (35, 70):
        plan_path = work / f"plan-{budget}.jsonl"
        invoke(
            runner,
            cache,
            ["plan", "--gaps", str(gaps_path), "--pool", str(pool_path), "--budget", str(budget), "-o", str(plan_path)],
        )
        plan_rows = [json.loads(line) for line in plan_path.read_text().splitlines()]
        assert sum(r["allocation"] for r in plan_rows) == budget

        directed_path = work / f"directed-{budget}.jsonl"
        invoke(
            runner,
            cache,
            [
                "build-corpus", "directed",
                "--baseline", str(baseline_path), "--pool", str(pool_path),
                "--plan", str(plan_path), "--queries", str(train_path),
                "--name", f"directed-{budget}", "-o", str(directed_path),
            ],
        )
        corpora[f"directed-{budget}"] = (directed_path, "directed", budget)

        nondirected_path = work / f"nondirected-{budget}.jsonl"
        invoke(
            runner,
            cache,
            [
                "build-corpus", "nondirected",
                "--baseline", str(baseline_path), "--pool", str(pool_path),
                "--size", str(budget), "--sample-seed", "7",
                "--name", f"nondirected-{budget}", "-o", str(nondirected_path),
            ],
        )
        corpora[f"nondirected-{budget}"] = (nondirected_path, "nondirected", budget)

    reference_path = work / "reference.jsonl"
    write_corpus(reference_corpus(world), reference_path)
    corpora["reference"] = (reference_path, "reference", len(world.pool))

    metadata_path = work / "metadata.jsonl"
    write_records(
        metadata_path,
        [
            {"id": "syn-1", "title": "Sleeping Through Worry", "headers": ["Winding Down", "When It Persists"], "word_count": 120, "subtopic": "Sleep: Insomnia"},
            {"title": "Steadying a Racing Mind", "headers": ["First Steps"], "word_count": 80},
        ],
    )
    generated_path = work / "generated.jsonl"
    flags_path = work / "genflags.jsonl"
    invoke(runner, cache, ["generate", "--metadata", str(metadata_path), "-o", str(generated_path), "--flags", str(flags_path)])
    generated = [json.loads(line) for line in generated_path.read_text().splitlines()]
    assert len(generated) == 2 and generated[0]["source"] == "synthetic"
    assert all(not json.loads(line)["flagged"] for line in flags_path.read_text().splitlines())

    manifest_path = work / "manifest.jsonl"
    write_records(
        manifest_path,
        [
            {"name": name, "path": str(path), "arm": arm, "docs_added": added}
            for name, (path, arm, added) in sorted(corpora.items())
        ],
    )
    results_dir = work / "results"
    invoke(
        runner,
        cache,
        ["eval", "--manifest", str(manifest_path), "--queries", str(test_path), "--out", str(results_dir)],
    )
    summary = [json.loads(line) for line in (results_dir / "summary.jsonl").read_text().splitlines()]
    assert len(summary) == len(corpora) * 4
    assert all(row["complete"] for row in summary)

    reports_dir = work / "reports"
    invoke(runner, cache, ["thresholds", "--summary", str(results_dir / "summary.jsonl"), "--out", str(reports_dir)])
    thresholds_text = (reports_dir / "thresholds.csv").read_text().splitlines()
    assert len(thresholds_text) == 5  # header + one row per pipeline

    invoke(runner, cache, ["report", "--summary", str(results_dir / "summary.jsonl"), "--out", str(reports_dir)])
    assert (reports_dir / "scores.csv").exists()
    assert (reports_dir / "scores.txt").exists()
    assert (reports_dir / "plot" / "baseline_directed.csv").exists()


def _summary(pipelines, reference_overrides=None):
    """Summary rows for a small ladder: baseline, two rungs per arm and the
    reference; reference_overrides replaces the reference score per pipeline."""
    corpora = [
        ("baseline", "baseline", 0, 60.0),
        ("directed-10", "directed", 10, 77.0),
        ("directed-20", "directed", 20, 79.0),
        ("nondirected-10", "nondirected", 10, 70.0),
        ("nondirected-20", "nondirected", 20, 78.0),
        ("reference", "reference", 20, 80.0),
    ]
    overrides = reference_overrides or {}
    rows = []
    for name, arm, added, score in corpora:
        for pipeline in pipelines:
            cell_score = overrides.get(pipeline, score) if name == "reference" else score
            rows.append(
                {"corpus": name, "pipeline": pipeline, "avg_score": cell_score,
                 "complete": cell_score is not None, "arm": arm, "docs_added": added,
                 "total_docs": 100 + added}
            )
    return rows


def test_thresholds_on_partial_grid(runner, tmp_path):
    summary = tmp_path / "summary.jsonl"
    write_records(summary, _summary(["baseline"]))
    invoke(runner, tmp_path / "cache", ["thresholds", "--summary", str(summary), "--out", str(tmp_path / "out")])
    lines = (tmp_path / "out" / "thresholds.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("baseline,")


@pytest.mark.parametrize("ratio", ["nan", "0", "-1"])
def test_thresholds_refuse_a_ratio_not_above_zero(runner, tmp_path, ratio):
    summary = tmp_path / "summary.jsonl"
    write_records(summary, _summary(["baseline"]))
    out = tmp_path / "out"
    result = runner.invoke(main, ["thresholds", "--summary", str(summary), "--ratio", ratio, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: ratio must be above 0, got {float(ratio)!r}\n"
    assert not out.exists()


def test_thresholds_names_unscored_reference_cells(runner, tmp_path):
    summary = tmp_path / "summary.jsonl"
    pipelines = ["baseline", "hierarchical", "reranking", "query_transformation"]
    write_records(summary, _summary(pipelines, {"hierarchical": None, "reranking": None}))
    result = runner.invoke(main, ["thresholds", "--summary", str(summary), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert "reference/hierarchical" in result.output
    assert "reference/reranking" in result.output
    assert "reference/baseline" not in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_eval_manifest_paths_resolve_against_manifest(runner, tmp_path, world, monkeypatch):
    data = tmp_path / "data"
    (data / "corpora").mkdir(parents=True)
    write_corpus(world.baseline, data / "baseline.jsonl")
    write_corpus(reference_corpus(world), data / "corpora" / "reference.jsonl")
    write_queries(world.test_queries[:3], data / "test.jsonl")
    write_records(
        data / "manifest.jsonl",
        [
            {"name": "baseline", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0},
            {"name": "reference", "path": "corpora/reference.jsonl", "arm": "reference", "docs_added": len(world.pool)},
        ],
    )
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    invoke(
        runner,
        tmp_path / "cache",
        ["eval", "--manifest", "../data/manifest.jsonl", "--queries", "../data/test.jsonl",
         "--out", "results", "--pipelines", "baseline"],
    )
    rows = [json.loads(line) for line in (elsewhere / "results" / "summary.jsonl").read_text().splitlines()]
    assert [(r["corpus"], r["total_docs"], r["complete"]) for r in rows] == [
        ("baseline", len(world.baseline), True),
        ("reference", len(world.baseline) + len(world.pool), True),
    ]


def test_cold_run_cache_reloads_keyed_by_raw_digests(runner, tmp_path, world):
    """After a cold CLI run, a fresh load of its cache keys both maps by
    32-byte digests, and holds each vector line in `embed`'s layout as its
    offset alone, not as a hex key or a vector."""
    write_corpus(world.baseline, tmp_path / "baseline.jsonl")
    write_queries(world.test_queries[:3], tmp_path / "test.jsonl")
    write_records(tmp_path / "manifest.jsonl", [{"name": "baseline", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0}])
    cache = tmp_path / "cache"
    invoke(runner, cache, ["eval", "--manifest", str(tmp_path / "manifest.jsonl"), "--queries", str(tmp_path / "test.jsonl"),
                           "--out", str(tmp_path / "results")])
    config = apply_overrides(load_config(), cache_dir=str(cache))
    gateway, embedder = make_gateway(config), make_embedder(config)
    completions, vectors = gateway.cache._entries, embedder._store._entries
    lines = [(cache / name).read_text(encoding="utf-8").count("\n") for name in ("completions.jsonl", "embeddings.jsonl")]
    assert [len(completions), len(vectors)] == lines and all(lines)
    assert all(type(key) is bytes and len(key) == 32 for key in [*completions, *vectors])
    assert all(type(value) is int for value in vectors.values())
    gateway.close()
    embedder.close()


def _eval_inputs(tmp_path, world, entry):
    """`eval` arguments for a one-corpus manifest holding entry, plus test
    queries, all under tmp_path."""
    write_corpus(world.baseline, tmp_path / "baseline.jsonl")
    write_queries(world.test_queries[:2], tmp_path / "test.jsonl")
    write_records(tmp_path / "manifest.jsonl", [entry])
    return ["--cache-dir", str(tmp_path / "cache"), "eval", "--manifest", str(tmp_path / "manifest.jsonl"),
            "--queries", str(tmp_path / "test.jsonl"), "--out", str(tmp_path / "results")]


def _assert_clean_failure(result, *fragments):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    for fragment in fragments:
        assert fragment in result.output


def test_eval_missing_corpus_file_is_clean(runner, tmp_path, world):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "missing.jsonl", "arm": "baseline", "docs_added": 0})
    result = runner.invoke(main, args)
    _assert_clean_failure(result, "missing.jsonl")


@pytest.mark.parametrize("bad", ["manifest", "corpus", "queries"])
def test_eval_ingest_error_is_clean(runner, tmp_path, world, bad):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0})
    broken = tmp_path / {"manifest": "manifest.jsonl", "corpus": "baseline.jsonl", "queries": "test.jsonl"}[bad]
    broken.write_text(broken.read_text() + "{not json\n")
    result = runner.invoke(main, args)
    _assert_clean_failure(result, broken.name, "malformed record")


def test_eval_manifest_entry_missing_field_is_clean(runner, tmp_path, world):
    args = _eval_inputs(tmp_path, world, {"path": "baseline.jsonl", "docs_added": 0})
    result = runner.invoke(main, args)
    _assert_clean_failure(result, "manifest.jsonl:1: record lacks 'name'")


@pytest.mark.parametrize(
    "second, error",
    [
        (None, "manifest.jsonl:1: 'docs_added' must be an integer, got 'many'"),
        ({"name": "b", "path": "baseline.jsonl", "arm": "directed", "docs_added": 0},
         "manifest.jsonl:2: corpus name 'b' appears twice in the manifest"),
        ({"name": "c", "path": "baseline.jsonl", "arm": "directed", "docs_added": True},
         "manifest.jsonl:2: 'docs_added' must be an integer, got True"),
        ({"name": "c", "path": "baseline.jsonl", "arm": "directed", "docs_added": 2.5},
         "manifest.jsonl:2: 'docs_added' must be an integer, got 2.5"),
        ({"name": "c", "path": "baseline.jsonl", "arm": "directed", "docs_added": "2"},
         "manifest.jsonl:2: 'docs_added' must be an integer, got '2'"),
        ({"name": "c", "path": 5, "arm": "directed", "docs_added": 0},
         "manifest.jsonl:2: 'path' must be a string, got 5"),
        ({"name": 5, "path": "baseline.jsonl", "arm": "directed", "docs_added": 0},
         "manifest.jsonl:2: 'name' must be a string, got 5"),
    ],
    ids=["docs-added-not-an-integer", "name-twice", "docs-added-boolean", "docs-added-fraction", "docs-added-numeric-string",
         "path-number", "name-number"],
)
def test_eval_manifest_bad_docs_added_or_repeated_name_is_clean(runner, tmp_path, world, second, error):
    first = {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0 if second else "many"}
    args = _eval_inputs(tmp_path, world, first)
    if second:
        write_records(tmp_path / "manifest.jsonl", [first, second])
    result = runner.invoke(main, args)
    _assert_clean_failure(result, error)
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("docs_added", [-2, "corpus size"], ids=["below-zero", "whole-corpus"])
def test_eval_manifest_docs_added_outside_its_corpus_is_clean(runner, tmp_path, world, docs_added):
    if docs_added == "corpus size":
        docs_added = len(world.baseline)
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "directed", "docs_added": docs_added})
    result = runner.invoke(main, args)
    _assert_clean_failure(
        result,
        f"manifest.jsonl:1: docs_added must be at least 0 and below total_docs, got {docs_added} of {len(world.baseline)}",
    )
    assert not (tmp_path / "results").exists()


def test_annotate_documents_text_is_title_then_section_bodies_then_flat_body(runner, tmp_path, world, monkeypatch):
    write_taxonomy(world.taxonomy, tmp_path / "taxonomy.jsonl")
    write_records(tmp_path / "docs.jsonl", [
        {"id": "d1", "title": "Sleep", "sections": [{"heading": "H", "body": "one"}, {"heading": "I"}], "body": "flat"},
        {"id": "d2", "body": "only"},
    ])
    sent = []
    monkeypatch.setattr("corpusgap.annotate.label_batch", lambda todo, *args: sent.extend(todo) or ({}, []))
    invoke(runner, tmp_path / "cache", ["annotate", "documents", str(tmp_path / "docs.jsonl"),
                                        "--taxonomy", str(tmp_path / "taxonomy.jsonl"), "-o", str(tmp_path / "out.jsonl")])
    assert sent == [("d1", "Sleep one  flat"), ("d2", " only")]


@pytest.mark.parametrize("kind", ["queries", "documents"])
@pytest.mark.parametrize(
    "second, error",
    [({"id": "r1", "text": "two", "body": "two", "subtopic": "Sleep: Insomnia"}, "records.jsonl:2: duplicate id 'r1'"),
     ({"id": "", "text": "two", "body": "two"}, "records.jsonl:2: 'id' must be a non-empty string, got ''")],
    ids=["repeated-id", "empty-id"],
)
def test_annotate_refuses_a_repeated_or_empty_id(runner, tmp_path, world, monkeypatch, kind, second, error):
    write_taxonomy(world.taxonomy, tmp_path / "taxonomy.jsonl")
    write_records(tmp_path / "records.jsonl", [{"id": "r1", "text": "one", "body": "one"}, second])
    monkeypatch.setattr("corpusgap.annotate.label_batch", lambda *args: pytest.fail("records were labeled"))
    result = runner.invoke(main, ["--cache-dir", str(tmp_path / "cache"), "annotate", kind, str(tmp_path / "records.jsonl"),
                                  "--taxonomy", str(tmp_path / "taxonomy.jsonl"), "-o", str(tmp_path / "out.jsonl")])
    _assert_clean_failure(result, error)
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out.jsonl").exists()


def test_eval_manifest_names_repeated_through_the_file_stem_are_refused(runner, tmp_path, world):
    """An empty name is the corpus file's stem, so two empty names for one
    path, or an empty name and that stem, name one corpus twice."""
    for first in ({"name": ""}, {"name": "baseline"}):
        entry = {"path": "baseline.jsonl", "arm": "baseline", "docs_added": 0}
        args = _eval_inputs(tmp_path, world, {**entry, **first})
        write_records(tmp_path / "manifest.jsonl", [{**entry, **first}, {**entry, "name": ""}])
        result = runner.invoke(main, args)
        _assert_clean_failure(result, "manifest.jsonl:2: corpus name 'baseline' appears twice in the manifest")
        assert not (tmp_path / "results").exists()


def test_eval_repeated_pipeline_rejected_before_any_input_is_read(runner, tmp_path, world, monkeypatch):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0})

    def no_ingest(*args, **kwargs):
        raise AssertionError("a corpus was read")

    monkeypatch.setattr("corpusgap.cli.ingest_documents", no_ingest)
    result = runner.invoke(main, args + ["--pipelines", "baseline,reranking, baseline"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "pipeline(s) 'baseline' named more than once" in result.output
    assert not (tmp_path / "results").exists()


def test_nondirected_size_below_zero_is_a_usage_error(runner, tmp_path, world):
    write_corpus(world.baseline, tmp_path / "baseline.jsonl")
    write_corpus(Corpus(name="pool", documents=world.pool), tmp_path / "pool.jsonl")
    result = runner.invoke(main, [
        "--cache-dir", str(tmp_path / "cache"), "build-corpus", "nondirected",
        "--baseline", str(tmp_path / "baseline.jsonl"), "--pool", str(tmp_path / "pool.jsonl"),
        "--size", "-1", "-o", str(tmp_path / "out.jsonl"),
    ])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Invalid value for '--size': -1 is not in the range x>=0." in result.output
    assert not (tmp_path / "out.jsonl").exists()


def test_eval_unknown_pipeline_rejected_before_any_input_is_read(runner, tmp_path, world, monkeypatch):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0})

    def no_ingest(*args, **kwargs):
        raise AssertionError("a corpus was read")

    monkeypatch.setattr("corpusgap.cli.ingest_documents", no_ingest)
    result = runner.invoke(main, args + ["--pipelines", "baseline,bogus"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "unknown pipeline(s) 'bogus'" in result.output and "query_transformation" in result.output
    assert not (tmp_path / "cache").exists()


def test_eval_reports_each_incomplete_cell_and_its_reason(runner, tmp_path, world, monkeypatch):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0})
    down = lambda pairs: [ProviderError("endpoint unavailable")] * len(pairs)
    monkeypatch.setattr("corpusgap.cli.make_gateway_judge", lambda gateway, params: down)
    result = runner.invoke(main, args + ["--pipelines", "baseline,reranking"])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [
        "incomplete: b/baseline: ProviderError: endpoint unavailable",
        "incomplete: b/reranking: ProviderError: endpoint unavailable",
    ]
    assert "ran 2 experiments (2 incomplete)" in result.stdout
    cell = (tmp_path / "results" / "cells" / "b__baseline.jsonl").read_text().splitlines()
    meta = json.loads(cell[0])
    assert meta["complete"] is False and meta["error"] == "ProviderError: endpoint unavailable"


def test_eval_doc_id_with_two_documents_is_clean(runner, tmp_path, world):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0})
    first = world.baseline.documents[0]
    changed = Document(id=first.id, source=first.source, title=first.title + " changed", sections=first.sections)
    write_corpus(Corpus(name="other", documents=(changed,)), tmp_path / "other.jsonl")
    write_records(tmp_path / "manifest.jsonl", [
        {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0},
        {"name": "other", "path": "other.jsonl", "arm": "reference", "docs_added": 0},
    ])
    result = runner.invoke(main, args)
    _assert_clean_failure(result, f"doc id {first.id!r} names different documents in corpora 'b' and 'other'")
    assert not (tmp_path / "results" / "cells").exists()


def test_eval_refuses_queries_ingested_as_train(runner, tmp_path, world):
    args = _eval_inputs(tmp_path, world, {"name": "b", "path": "baseline.jsonl", "arm": "baseline", "docs_added": 0})
    raw = tmp_path / "raw.jsonl"
    write_records(raw, [{"id": q.id, "text": q.text} for q in world.train_queries[:2]])
    invoke(runner, tmp_path / "cache", ["ingest", "queries", str(raw), "-o", str(tmp_path / "test.jsonl"), "--split", "train"])
    result = runner.invoke(main, args)
    _assert_clean_failure(result, "test.jsonl:1", "'train'", "'test'")
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["thresholds", "report"])
def test_summary_unknown_pipeline_is_clean(runner, tmp_path, command):
    rows = _summary(["baseline"])
    rows[2]["pipeline"] = "bogus"
    write_records(tmp_path / "summary.jsonl", rows)
    result = runner.invoke(main, [command, "--summary", str(tmp_path / "summary.jsonl"), "--out", str(tmp_path / "out")])
    _assert_clean_failure(result, "summary.jsonl:3", "'bogus'")


@pytest.mark.parametrize("command", ["thresholds", "report"])
def test_summary_row_missing_field_is_clean(runner, tmp_path, command):
    rows = _summary(["baseline"])
    del rows[1]["total_docs"]
    write_records(tmp_path / "summary.jsonl", rows)
    result = runner.invoke(main, [command, "--summary", str(tmp_path / "summary.jsonl"), "--out", str(tmp_path / "out")])
    _assert_clean_failure(result, "summary.jsonl:2", "'total_docs'")


@pytest.mark.parametrize("command", ["thresholds", "report"])
@pytest.mark.parametrize("docs_added, total_docs", [(9, 6), (-2, 6), (6, 6)])
def test_summary_row_docs_added_outside_its_corpus_is_clean(runner, tmp_path, command, docs_added, total_docs):
    rows = _summary(["baseline"])
    rows[3].update(docs_added=docs_added, total_docs=total_docs)
    write_records(tmp_path / "summary.jsonl", rows)
    result = runner.invoke(main, [command, "--summary", str(tmp_path / "summary.jsonl"), "--out", str(tmp_path / "out")])
    _assert_clean_failure(
        result, f"summary.jsonl:4: docs_added must be at least 0 and below total_docs, got {docs_added} of {total_docs}"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["thresholds", "report"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("avg_score", "high", "'avg_score' must be a number or null, got 'high'"),
        ("avg_score", True, "'avg_score' must be a number or null, got True"),
        ("complete", "yes", "'complete' must be true or false, got 'yes'"),
        ("complete", 1, "'complete' must be true or false, got 1"),
        ("arm", 3, "'arm' must be a string, got 3"),
        ("docs_added", True, "'docs_added' must be an integer, got True"),
        ("docs_added", 0.5, "'docs_added' must be an integer, got 0.5"),
        ("docs_added", "0", "'docs_added' must be an integer, got '0'"),
        ("total_docs", True, "'total_docs' must be an integer, got True"),
        ("total_docs", 100.5, "'total_docs' must be an integer, got 100.5"),
        ("total_docs", "100", "'total_docs' must be an integer, got '100'"),
        ("corpus", 5, "'corpus' must be a string, got 5"),
    ],
)
def test_summary_field_of_the_wrong_type_is_clean(runner, tmp_path, command, field, value, message):
    rows = _summary(["baseline"])
    rows[0][field] = value
    write_records(tmp_path / "summary.jsonl", rows)
    result = runner.invoke(main, [command, "--summary", str(tmp_path / "summary.jsonl"), "--out", str(tmp_path / "out")])
    _assert_clean_failure(result, f"summary.jsonl:1: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["thresholds", "report"])
def test_summary_malformed_line_is_clean(runner, tmp_path, command):
    write_records(tmp_path / "summary.jsonl", _summary(["baseline"]))
    with open(tmp_path / "summary.jsonl", "a") as fh:
        fh.write("{not json\n")
    result = runner.invoke(main, [command, "--summary", str(tmp_path / "summary.jsonl"), "--out", str(tmp_path / "out")])
    _assert_clean_failure(result, "summary.jsonl:7", "malformed record")


@pytest.mark.parametrize(
    "command",
    ["ingest", "annotate", "gaps", "plan", "build-corpus",
     "plan-no-query-count", "plan-hybrid-not-a-number", "plan-query-count-boolean", "directed-no-subtopic", "directed-allocation-not-an-integer",
     "directed-allocation-boolean", "directed-allocation-fraction", "directed-allocation-numeric-string",
     "annotate-no-id", "annotate-no-text", "annotate-sections-not-a-list", "annotate-section-not-an-object",
     "annotate-body-not-a-string", "annotate-flat-body-not-a-string", "annotate-title-not-a-string",
     "generate-no-title", "generate-word-count",
     "generate-empty-title", "generate-zero-words", "generate-headers-string",
     "ingest-query-subtopic-number", "directed-subtopic-number", "generate-id-number",
     "generate-word-count-boolean", "generate-word-count-fraction", "generate-word-count-numeric-string"],
)
def test_input_error_is_one_line_in_every_command(runner, tmp_path, world, command):
    names = ("taxonomy", "baseline", "pool", "train", "gaps", "plan", "metadata")
    paths = {name: tmp_path / f"{name}.jsonl" for name in names}
    write_taxonomy(world.taxonomy, paths["taxonomy"])
    write_corpus(world.baseline, paths["baseline"])
    write_corpus(Corpus(name="pool", documents=world.pool), paths["pool"])
    write_queries(world.train_queries[:4], paths["train"])
    write_records(paths["gaps"], [])
    write_records(paths["plan"], [])
    write_records(paths["metadata"], [{"title": "Sleep Help", "headers": ["One"], "word_count": 40}])
    annotate = ["annotate", "queries", paths["train"], "--taxonomy", paths["taxonomy"]]
    annotate_docs = ["annotate", "documents", paths["baseline"], "--taxonomy", paths["taxonomy"]]
    generate = ["generate", "--metadata", paths["metadata"]]
    plan = ["plan", "--gaps", paths["gaps"], "--pool", paths["pool"], "--budget", "4"]
    directed = ["build-corpus", "directed", "--baseline", paths["baseline"], "--pool", paths["pool"],
                "--plan", paths["plan"], "--queries", paths["train"]]
    gap = '{"subtopic": "Sleep: Insomnia", "doc_count": 1, "coverage": 0.5, "coverage_scaled": 0.5, "usefulness_gap": null, "hybrid": 0.5}'
    args, broken, line, error = {
        "ingest": (["ingest", "documents", paths["baseline"], "--taxonomy", paths["taxonomy"]], "taxonomy", "{not json", "malformed record"),
        "annotate": (annotate, "taxonomy", "{not json", "malformed record"),
        "gaps": (["gaps", "--corpus", paths["baseline"], "--queries", paths["train"], "--taxonomy", paths["taxonomy"]], "train", "{not json", "malformed record"),
        "plan": (plan, "gaps", "{not json", "malformed record"),
        "plan-no-query-count": (plan, "gaps", gap, "record lacks 'query_count'"),
        "plan-hybrid-not-a-number": (plan, "gaps", gap.replace('"hybrid": 0.5', '"hybrid": "high"').replace('"doc_count"', '"query_count": 2, "doc_count"'), "'hybrid' must be a number, got 'high'"),
        "plan-query-count-boolean": (plan, "gaps", gap.replace('"doc_count"', '"query_count": true, "doc_count"'), "'query_count' must be an integer, got True"),
        "directed-no-subtopic": (directed, "plan", '{"allocation": 2}', "record lacks 'subtopic'"),
        "directed-allocation-not-an-integer": (directed, "plan", '{"subtopic": "Sleep: Insomnia", "allocation": "two"}', "'allocation' must be an integer, got 'two'"),
        "directed-allocation-boolean": (directed, "plan", '{"subtopic": "Sleep: Insomnia", "allocation": true}', "'allocation' must be an integer, got True"),
        "directed-allocation-fraction": (directed, "plan", '{"subtopic": "Sleep: Insomnia", "allocation": 2.9}', "'allocation' must be an integer, got 2.9"),
        "directed-allocation-numeric-string": (directed, "plan", '{"subtopic": "Sleep: Insomnia", "allocation": "2"}', "'allocation' must be an integer, got '2'"),
        "build-corpus": (["build-corpus", "nondirected", "--baseline", paths["baseline"], "--pool", paths["pool"], "--size", "2"], "pool", "{not json", "malformed record"),
        "annotate-no-id": (annotate, "train", '{"text": "cant sleep"}', "record lacks 'id'"),
        "annotate-no-text": (annotate, "train", '{"id": "q-new"}', "record lacks 'text'"),
        "annotate-sections-not-a-list": (annotate_docs, "baseline", '{"id": "d-new", "sections": "not a list"}', "'sections' must be a list of objects, got 'not a list'"),
        "annotate-section-not-an-object": (annotate_docs, "baseline", '{"id": "d-new", "sections": ["text"]}', "'sections' must be a list of objects, got ['text']"),
        "annotate-body-not-a-string": (annotate_docs, "baseline", '{"id": "d-new", "sections": [{"body": "ok"}, {"body": 5}]}', "'body' must be a string, got 5"),
        "annotate-flat-body-not-a-string": (annotate_docs, "baseline", '{"id": "d-new", "body": null}', "'body' must be a string, got None"),
        "annotate-title-not-a-string": (annotate_docs, "baseline", '{"id": "d-new", "title": 7, "body": "ok"}', "'title' must be a string, got 7"),
        "generate-no-title": (generate, "metadata", '{"headers": ["A"], "word_count": 50}', "record lacks 'title'"),
        "generate-word-count": (generate, "metadata", '{"title": "T", "word_count": "many"}', "'word_count' must be an integer, got 'many'"),
        "generate-empty-title": (generate, "metadata", '{"title": "  ", "word_count": 50}', "'title' must be a non-blank string, got '  '"),
        "generate-zero-words": (generate, "metadata", '{"title": "T", "word_count": 0}', "'word_count' must be a positive integer, got 0"),
        "generate-headers-string": (generate, "metadata", '{"title": "T", "headers": "Intro", "word_count": 50}', "'headers' must be a list of strings, got 'Intro'"),
        "ingest-query-subtopic-number": (["ingest", "queries", paths["train"]], "train", '{"id": "q-new", "text": "t", "subtopic": 5}', "'subtopic' must be a string or null, got 5"),
        "directed-subtopic-number": (directed, "plan", '{"subtopic": 5, "allocation": 2}', "'subtopic' must be a string, got 5"),
        "generate-id-number": (generate, "metadata", '{"id": 7, "title": "T", "word_count": 50}', "'id' must be a string or null, got 7"),
        "generate-word-count-boolean": (generate, "metadata", '{"title": "T", "word_count": true}', "'word_count' must be an integer, got True"),
        "generate-word-count-fraction": (generate, "metadata", '{"title": "T", "word_count": 12.9}', "'word_count' must be an integer, got 12.9"),
        "generate-word-count-numeric-string": (generate, "metadata", '{"title": "T", "word_count": "15"}', "'word_count' must be an integer, got '15'"),
    }[command]
    with open(paths[broken], "a") as fh:
        fh.write(line + "\n")
    lineno = len(paths[broken].read_text().splitlines())
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["--cache-dir", str(tmp_path / "cache"), *map(str, args), "-o", str(out)])
    _assert_clean_failure(result, f"{broken}.jsonl:{lineno}: {error}")
    assert not out.exists()
