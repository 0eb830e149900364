"""Run configuration: YAML file plus CLI overrides, with defaults that
mirror the published experiment setup (smoothing 1, exponent 1.5, 50/50
weights, 20 candidates, top 3, the standard budget ladder)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .gateway import Gateway, ProviderParams, load_templates
from .providers import HttpEmbedder, HttpProvider, MockProvider
from .retrieval import CachedEmbedder, Embedder, HashedBagEmbedder

DEFAULT_BUDGETS = (50, 162, 288, 500, 898, 1230, 1560, 2097, 2561, 2954)


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "mock"
    seed: int = 0
    model: str = "mock"
    temperature: float = 0.0
    max_output_tokens: int = 2048
    endpoint: str = ""
    api_key_env: str = "CORPUSGAP_API_KEY"
    embed_model: str = ""
    embed_dim: int = 256


@dataclass(frozen=True)
class Config:
    smoothing: float = 1.0
    exponent: float = 1.5
    coverage_weight: float = 0.5
    usefulness_weight: float = 0.5
    candidates: int = 20
    top_k: int = 3
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    ladder_seed: int = 7
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    cache_dir: str = ".corpusgap-cache"
    prompts_dir: str | None = None


def load_config(path: str | Path | None = None) -> Config:
    if path is None:
        return Config()
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    provider_raw = raw.get("provider", {})
    provider = ProviderConfig(
        kind=provider_raw.get("kind", "mock"),
        seed=int(provider_raw.get("seed", 0)),
        model=provider_raw.get("model", "mock"),
        temperature=float(provider_raw.get("temperature", 0.0)),
        max_output_tokens=int(provider_raw.get("max_output_tokens", 2048)),
        endpoint=provider_raw.get("endpoint", ""),
        api_key_env=provider_raw.get("api_key_env", "CORPUSGAP_API_KEY"),
        embed_model=provider_raw.get("embed_model", ""),
        embed_dim=int(provider_raw.get("embed_dim", 256)),
    )
    gap_raw = raw.get("gap", {})
    weights_raw = raw.get("weights", {})
    retrieval_raw = raw.get("retrieval", {})
    ladder_raw = raw.get("ladder", {})
    return Config(
        smoothing=float(gap_raw.get("smoothing", 1.0)),
        exponent=float(gap_raw.get("exponent", 1.5)),
        coverage_weight=float(weights_raw.get("coverage", 0.5)),
        usefulness_weight=float(weights_raw.get("usefulness", 0.5)),
        candidates=int(retrieval_raw.get("candidates", 20)),
        top_k=int(retrieval_raw.get("top_k", 3)),
        budgets=tuple(int(b) for b in ladder_raw.get("budgets", DEFAULT_BUDGETS)),
        ladder_seed=int(ladder_raw.get("seed", 7)),
        provider=provider,
        cache_dir=raw.get("cache_dir", ".corpusgap-cache"),
        prompts_dir=raw.get("prompts_dir"),
    )


def apply_overrides(
    config: Config,
    seed: int | None = None,
    provider: str | None = None,
    cache_dir: str | None = None,
) -> Config:
    if seed is not None:
        config = replace(config, provider=replace(config.provider, seed=seed))
    if provider is not None:
        config = replace(config, provider=replace(config.provider, kind=provider))
    if cache_dir is not None:
        config = replace(config, cache_dir=cache_dir)
    return config


def provider_params(config: Config) -> ProviderParams:
    return ProviderParams(
        model=config.provider.model,
        temperature=config.provider.temperature,
        max_output_tokens=config.provider.max_output_tokens,
    )


def make_gateway(config: Config) -> Gateway:
    cache_dir = Path(config.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if config.provider.kind == "mock":
        provider = MockProvider(seed=config.provider.seed)
    elif config.provider.kind == "http":
        if not config.provider.endpoint:
            raise ValueError("http provider needs an endpoint")
        provider = HttpProvider(
            endpoint=config.provider.endpoint,
            model=config.provider.model,
            api_key_env=config.provider.api_key_env,
        )
    else:
        raise ValueError(f"unknown provider kind {config.provider.kind!r}")
    templates = load_templates(config.prompts_dir)
    return Gateway(provider, templates=templates, cache_path=cache_dir / "completions.jsonl")


def make_embedder(config: Config) -> Embedder:
    cache_dir = Path(config.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if config.provider.kind == "http" and config.provider.embed_model:
        inner: Embedder = HttpEmbedder(
            endpoint=config.provider.endpoint,
            model=config.provider.embed_model,
            dim=config.provider.embed_dim,
            api_key_env=config.provider.api_key_env,
        )
    else:
        inner = HashedBagEmbedder(dim=config.provider.embed_dim)
    return CachedEmbedder(inner, cache_dir / "embeddings.jsonl")
