from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from corpusgap.cli import main
from corpusgap.config import (
    DEFAULT_BUDGETS,
    Config,
    ProviderConfig,
    apply_overrides,
    load_config,
    make_embedder,
    make_gateway,
    provider_params,
)
from corpusgap.corpus import IngestError
from corpusgap.gateway import CompletionRequest, make_gateway_rewriter
from corpusgap.providers import MockProvider

CONFIG_YAML = """
gap:
  smoothing: 2.0
  exponent: 1.2
weights:
  coverage: 0.7
  usefulness: 0.3
retrieval:
  candidates: 10
  top_k: 2
ladder:
  budgets: [5, 10, 20]
  seed: 99
provider:
  kind: mock
  seed: 3
  model: test-model
  temperature: 0.4
cache_dir: cachehere
"""


def test_defaults_match_standard_setup():
    config = load_config(None)
    assert config.smoothing == 1.0
    assert config.exponent == 1.5
    assert config.coverage_weight == 0.5
    assert config.candidates == 20
    assert config.top_k == 3
    assert config.budgets == DEFAULT_BUDGETS
    assert config.budgets[0] == 50 and config.budgets[-1] == 2954


def test_yaml_values_loaded(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG_YAML)
    config = load_config(path)
    assert config.smoothing == 2.0
    assert config.exponent == 1.2
    assert config.coverage_weight == 0.7
    assert config.candidates == 10
    assert config.budgets == (5, 10, 20)
    assert config.ladder_seed == 99
    assert config.provider.seed == 3
    assert config.cache_dir == "cachehere"
    assert provider_params(config).model == "test-model"
    assert provider_params(config).temperature == 0.4


@pytest.mark.parametrize(
    "yaml_text, field, value",
    [
        ("gap: {smoothing: 2}", "smoothing", 2.0),
        ("gap: {exponent: 1.2}", "exponent", 1.2),
        ("weights: {coverage: 1}", "coverage_weight", 1.0),
        ("weights: {usefulness: 0.3}", "usefulness_weight", 0.3),
        ("retrieval: {candidates: 10}", "candidates", 10),
        ("retrieval: {top_k: 2}", "top_k", 2),
        ("ladder: {budgets: [5, 10]}", "budgets", (5, 10)),
        ("ladder: {seed: 99}", "ladder_seed", 99),
        ("ladder: {budgets: [50.0, 100]}", "budgets", (50, 100)),
        ("cache_dir: here", "cache_dir", "here"),
        ("prompts_dir: prompts", "prompts_dir", "prompts"),
    ],
)
def test_one_yaml_key_changes_one_field(tmp_path, yaml_text, field, value):
    path = tmp_path / "config.yaml"
    path.write_text(yaml_text + "\nunknown: {key: 1}\n")
    config = load_config(path)
    assert config == dataclasses.replace(Config(), **{field: value})
    assert type(getattr(config, field)) is type(value)


@pytest.mark.parametrize(
    "key, raw, value",
    [
        ("kind", "http", "http"),
        ("seed", 4, 4),
        ("model", "m", "m"),
        ("temperature", 1, 1.0),
        ("max_output_tokens", 64, 64),
        ("endpoint", "http://localhost:1", "http://localhost:1"),
        ("api_key_env", "KEY", "KEY"),
        ("embed_model", "e", "e"),
        ("embed_dim", 32, 32),
    ],
)
def test_one_provider_key_changes_one_field(tmp_path, key, raw, value):
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps({"provider": {key: raw, "unknown": 1}}))
    config = load_config(path)
    assert config == Config(provider=dataclasses.replace(ProviderConfig(), **{key: value}))
    assert type(getattr(config.provider, key)) is type(value)


@pytest.mark.parametrize(
    "yaml_text, error",
    [
        ("gap:\n  smoothing: 2\n- x\n", "not valid YAML: while parsing a block mapping"),
        ("- gap\n- weights\n", "the top level must be a mapping, got list"),
        ("gap: 5\n", "'gap' must be a mapping, got 5"),
        ("retrieval:\n  top_k: many\n", "'retrieval.top_k': invalid literal for int() with base 10: 'many'"),
        ("retrieval:\n  top_k: 2.7\n", "'retrieval.top_k': expected an integer, got 2.7"),
        ("retrieval:\n  top_k: .inf\n", "'retrieval.top_k': expected an integer, got inf"),
        ("retrieval:\n  candidates: true\n", "'retrieval.candidates': expected an integer, got True"),
        ("ladder:\n  budgets: [50.9, 100]\n", "'ladder.budgets': expected an integer, got 50.9"),
        ('ladder:\n  budgets: "50"\n', "'ladder.budgets': expected a list of integers, got '50'"),
        ("ladder:\n  budgets: {50: 1, 60: 2}\n", "'ladder.budgets': expected a list of integers, got {50: 1, 60: 2}"),
        ("provider:\n  seed: 1.5\n", "'provider.seed': expected an integer, got 1.5"),
        ("provider:\n  embed_dim: 12.5\n", "'provider.embed_dim': expected an integer, got 12.5"),
        ("gap:\n  smoothing: true\n", "'gap.smoothing': expected a number, got True"),
    ],
    ids=["not-yaml", "top-level-list", "scalar-section", "value-not-converted", "int-fraction", "int-infinity",
         "int-bool", "int-list-fraction", "list-a-string", "list-a-mapping", "provider-int-fraction",
         "provider-embed-dim-fraction", "float-bool"],
)
def test_bad_config_is_one_error_naming_the_file_and_key(tmp_path, yaml_text, error):
    path = tmp_path / "config.yaml"
    path.write_text(yaml_text)
    with pytest.raises(IngestError) as raised:
        load_config(path)
    assert str(raised.value).startswith(f"{path}: {error}")
    result = CliRunner().invoke(main, ["--config", str(path), "report", "--help"])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert result.output.splitlines() == [f"Error: {raised.value}"]


def test_cli_import_leaves_the_yaml_parser_unloaded():
    # Only `load_config` with a file reads YAML; every run imports the CLI.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import corpusgap, corpusgap.cli, sys; sys.exit('yaml' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_integer_temperature_keeps_the_cache_key(tmp_path):
    keys = []
    for temperature in ("0", "0.0"):
        path = tmp_path / "config.yaml"
        path.write_text(f"provider:\n  temperature: {temperature}\n")
        params = provider_params(load_config(path))
        keys.append(CompletionRequest("rewrite_query", {"query": "q"}, params).cache_key("mock-0", "sha"))
    assert keys[0] == keys[1]
    assert keys[0] == CompletionRequest("rewrite_query", {"query": "q"}).cache_key("mock-0", "sha")


def test_overrides_win():
    config = apply_overrides(Config(), seed=11, provider="mock", cache_dir="/tmp/x")
    assert config.provider.seed == 11
    assert config.provider.kind == "mock"
    assert config.cache_dir == "/tmp/x"


def test_make_gateway_mock(tmp_path):
    config = apply_overrides(Config(), seed=5, cache_dir=str(tmp_path / "cache"))
    gateway = make_gateway(config)
    assert isinstance(gateway.provider, MockProvider)
    assert gateway.provider.seed == 5
    assert set(gateway.templates) >= {
        "classify_subtopics",
        "usefulness_rubric",
        "generate_article",
        "rewrite_query",
    }


def test_make_gateway_http_needs_endpoint(tmp_path):
    config = apply_overrides(Config(), provider="http", cache_dir=str(tmp_path / "cache"))
    with pytest.raises(ValueError, match="endpoint"):
        make_gateway(config)


def test_make_embedder_is_cached_and_persistent(tmp_path):
    config = apply_overrides(Config(), cache_dir=str(tmp_path / "cache"))
    embedder = make_embedder(config)
    first = embedder.embed("hello world")
    again = make_embedder(config).embed("hello world")
    assert (first == again).all()
    assert (tmp_path / "cache" / "embeddings.jsonl").exists()


def test_older_cache_records_load_and_serve_hits(tmp_path):
    # completions.jsonl once also stored "parsed" and "timestamp"; both are
    # ignored on load, so such files keep serving hits. embeddings.jsonl
    # once stored each vector as a "vector" list of numbers; such lines
    # still load.
    config = apply_overrides(Config(), seed=3, cache_dir=str(tmp_path / "cache"))
    gateway = make_gateway(config)
    request = CompletionRequest(template="rewrite_query", bindings={"query": "cant sleep"})
    key = request.cache_key(gateway.provider.id, gateway.template("rewrite_query").body_sha)
    text = "hello world"
    text_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cache = tmp_path / "cache"
    completion = {
        "key": key,
        "template": "rewrite_query",
        "response": "cached rewrite",
        "parsed": "cached rewrite",
        "timestamp": 1700000000.0,
    }
    old_vector = [0.6, 0.8] + [0.0] * 254
    vector = {"provider": "hashed-bag-256", "text_sha": text_sha, "vector": old_vector}
    (cache / "completions.jsonl").write_text(json.dumps(completion) + "\n", encoding="utf-8")
    (cache / "embeddings.jsonl").write_text(json.dumps(vector) + "\n", encoding="utf-8")

    gateway = make_gateway(config)
    assert make_gateway_rewriter(gateway)(["cant sleep"]) == ["cached rewrite"]
    assert gateway.provider.calls == 0
    embedder = make_embedder(config)
    embedder.inner = None  # a miss would fail: the vector must come from the file
    assert embedder.embed(text).tolist() == old_vector
