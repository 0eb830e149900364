"""Run configuration: YAML file plus CLI overrides, with defaults that
mirror the published experiment setup (smoothing 1, exponent 1.5, 50/50
weights, 20 candidates, top 3, the standard budget ladder)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .corpus import IngestError
from .gateway import Gateway, ProviderParams, load_templates
from .providers import HashedBagEmbedder, HttpEmbedder, HttpProvider, MockProvider
from .retrieval import DEFAULT_CANDIDATES, DEFAULT_TOP_K, CachedEmbedder, Embedder

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
    candidates: int = DEFAULT_CANDIDATES
    top_k: int = DEFAULT_TOP_K
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    ladder_seed: int = 7
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    cache_dir: str = ".corpusgap-cache"
    prompts_dir: str | None = None


# YAML section -> {YAML key: Config field}; "" is the top level. Each
# ProviderConfig field is read under `provider:` by its own name.
_YAML_FIELDS = {
    "gap": {"smoothing": "smoothing", "exponent": "exponent"},
    "weights": {"coverage": "coverage_weight", "usefulness": "usefulness_weight"},
    "retrieval": {"candidates": "candidates", "top_k": "top_k"},
    "ladder": {"budgets": "budgets", "seed": "ladder_seed"},
    "": {"cache_dir": "cache_dir", "prompts_dir": "prompts_dir"},
}


def _int(value) -> int:
    """`int(value)`, refusing a bool and a number with a fractional part,
    which int() would read as 1 or 0 and truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """`float(value)`, refusing a bool, which float() would read as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _ints(value) -> tuple[int, ...]:
    """A YAML list of integers as a tuple; a string or a mapping is refused."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(_int(b) for b in value)


# Field type -> coercion; str and optional fields keep the raw YAML value.
_COERCE = {"float": _float, "int": _int, "tuple[int, ...]": _ints}


def _fields_from(cls, path, name: str, section, keys: dict[str, str]) -> dict:
    """The `cls` fields that YAML section `name` ("" for the top level) of
    file `path` sets, each value coerced to its field's type."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise IngestError(f"{path}: '{name}' must be a mapping, got {section!r}")
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, field_name in keys.items():
        if key in section:
            try:
                values[field_name] = _COERCE.get(types[field_name], lambda v: v)(section[key])
            except (TypeError, ValueError) as exc:
                dotted = f"{name}.{key}" if name else key
                raise IngestError(f"{path}: '{dotted}': {exc}") from None
    return values


def load_config(path: str | Path | None = None) -> Config:
    """Config from a YAML file; keys it leaves out keep the dataclass
    defaults and unknown keys are ignored. A file that does not parse, a
    section that is not a mapping or a value that does not convert (a
    bool, or for an integer field a number with a fractional part, does
    not) is refused with an IngestError naming the file and the key."""
    if path is None:
        return Config()
    import yaml  # here, so a run without a config file never loads the parser

    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise IngestError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from None
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: the top level must be a mapping, got {type(raw).__name__}")
    values = {}
    for section, keys in _YAML_FIELDS.items():
        values.update(_fields_from(Config, path, section, raw.get(section) if section else raw, keys))
    provider_keys = {f.name: f.name for f in fields(ProviderConfig)}
    provider = ProviderConfig(**_fields_from(ProviderConfig, path, "provider", raw.get("provider"), provider_keys))
    return Config(provider=provider, **values)


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
