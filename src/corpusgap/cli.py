"""Command-line interface.

Subcommands cover the full pipeline: ingest, annotate, gaps, plan,
build-corpus, generate, eval, thresholds, report. Global flags
--config, --seed, --provider, and --cache-dir apply to every subcommand.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import annotate as annotate_mod
from . import config as config_mod
from .corpus import (
    Corpus,
    IngestError,
    Source,
    Split,
    ingest_documents,
    ingest_queries,
    load_taxonomy,
    percent_increase,
    read_records,
    record_field,
    write_corpus,
    write_queries,
    write_records,
)
from .evaluation import (
    CorpusInfo,
    ExperimentResult,
    ExperimentSpec,
    LadderPoint,
    Pipeline,
    doc_reduction_report,
    emit_report,
    emit_threshold_report,
    run_grid,
)
from .gaps import GapParams, GapWeights, analyze_gaps, read_gap_report, write_gap_report
from .gateway import make_gateway_judge, make_gateway_rewriter
from .planner import (
    ArticleMetadata,
    build_directed_corpus,
    build_nondirected_corpus,
    generate_synthetic_doc,
    read_plan,
    allocate_quotas,
    score_external_pool,
    write_plan,
)


class _Group(click.Group):
    """Turns an input error from any command into one line naming its
    file and line, instead of a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except IngestError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="YAML config file.")
@click.option("--seed", type=int, default=None, help="Override the provider seed.")
@click.option("--provider", type=click.Choice(["mock", "http"]), default=None, help="Override the provider kind.")
@click.option("--cache-dir", type=click.Path(), default=None, help="Override the cache directory.")
@click.pass_context
def main(ctx: click.Context, config_path, seed, provider, cache_dir) -> None:
    """Gap-directed corpus augmentation and retrieval evaluation."""
    cfg = config_mod.load_config(config_path)
    cfg = config_mod.apply_overrides(cfg, seed=seed, provider=provider, cache_dir=cache_dir)
    ctx.obj = cfg


def _cfg(ctx: click.Context) -> config_mod.Config:
    return ctx.obj


def _gateway(ctx: click.Context):
    """The configured gateway; its cache file is closed with the command."""
    gateway = config_mod.make_gateway(_cfg(ctx))
    ctx.call_on_close(gateway.close)
    return gateway


@main.command()
@click.argument("kind", type=click.Choice(["documents", "queries"]))
@click.argument("input_path", type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--source", type=click.Choice([s.value for s in Source]), default="baseline")
@click.option("--split", type=click.Choice([s.value for s in Split]), default="train")
@click.option("--taxonomy", "taxonomy_path", type=click.Path(exists=True), default=None)
def ingest(kind, input_path, output, source, split, taxonomy_path) -> None:
    """Validate and normalize a documents or queries file."""
    taxonomy = load_taxonomy(taxonomy_path) if taxonomy_path else None
    if kind == "documents":
        corpus = ingest_documents(input_path, Source(source), taxonomy)
        write_corpus(corpus, output)
        click.echo(f"ingested {len(corpus)} documents -> {output}")
    else:
        queries = ingest_queries(input_path, Split(split), taxonomy)
        write_queries(queries, output)
        click.echo(f"ingested {len(queries)} queries -> {output}")


@main.command()
@click.argument("kind", type=click.Choice(["documents", "queries"]))
@click.argument("input_path", type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path(exists=True))
@click.option("--labelings", "labelings_path", type=click.Path(), default=None, help="Sidecar file for full weightings.")
@click.option("--relabel", is_flag=True, help="Also relabel records that already carry a subtopic.")
@click.pass_context
def annotate(ctx, kind, input_path, output, taxonomy_path, labelings_path, relabel) -> None:
    """Assign taxonomy subtopics to records via the classification prompt."""
    cfg = _cfg(ctx)
    taxonomy = load_taxonomy(taxonomy_path)
    gateway = _gateway(ctx)
    params = config_mod.provider_params(cfg)
    records = []
    todo = []
    seen: set[str] = set()
    for lineno, record in read_records(input_path):
        where = f"{input_path}:{lineno}"
        record_id = record_field(record, "id", "nonempty", where)
        if record_id in seen:
            raise IngestError(f"{where}: duplicate id {record_id!r}")
        seen.add(record_id)
        records.append(record)
        if record_field(record, "subtopic", "str?", where, None) and not relabel:
            continue
        if kind == "queries":
            text = record_field(record, "text", "str", where)
        else:
            # The title, each section's body (a missing one read as ""), then
            # the flat body: the label cache keys hold this text.
            sections = record_field(record, "sections", "objects", where, [])
            parts = [record_field(record, "title", "str", where, "")]
            parts += [record_field(s, "body", "str", where, "") for s in sections]
            flat_body = record_field(record, "body", "str", where, None)
            if flat_body is not None:
                parts.append(flat_body)
            text = " ".join(parts)
        todo.append((record_id, text))
    labelings, failures = annotate_mod.label_batch(todo, taxonomy, gateway, params)
    for record in records:
        labeling = labelings.get(record["id"])
        if labeling is not None:
            record["subtopic"] = labeling.primary
    write_records(output, records)
    if labelings_path:
        annotate_mod.write_labelings(labelings, labelings_path)
    for item_id, reason in failures:
        click.echo(f"failed: {item_id}: {reason}", err=True)
    click.echo(f"labeled {len(labelings)}/{len(todo)} records -> {output}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--coverage-only", is_flag=True, help="Skip usefulness judging.")
@click.pass_context
def gaps(ctx, corpus_path, queries_path, taxonomy_path, output, coverage_only) -> None:
    """Compute the per-subtopic gap report from a corpus and train queries."""
    cfg = _cfg(ctx)
    taxonomy = load_taxonomy(taxonomy_path)
    corpus = ingest_documents(corpus_path, Source.BASELINE, taxonomy)
    queries = ingest_queries(queries_path, Split.TRAIN, taxonomy)
    judge = None
    if not coverage_only:
        gateway = _gateway(ctx)
        judge = make_gateway_judge(gateway, config_mod.provider_params(cfg))
    params = GapParams(total_docs=len(corpus), smoothing=cfg.smoothing, exponent=cfg.exponent)
    weights = GapWeights(coverage=cfg.coverage_weight, usefulness=cfg.usefulness_weight)
    report = analyze_gaps(corpus, queries, taxonomy, params, weights, judge)
    write_gap_report(report, output)
    click.echo(f"wrote gap report for {len(report)} subtopics -> {output}")


@main.command()
@click.option("--gaps", "gaps_path", required=True, type=click.Path(exists=True))
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True), help="External documents file; availability comes from its subtopic counts.")
@click.option("--budget", required=True, type=int)
@click.option("-o", "--output", required=True, type=click.Path())
def plan(gaps_path, pool_path, budget, output) -> None:
    """Turn gap scores into per-subtopic document quotas."""
    report = read_gap_report(gaps_path)
    pool = ingest_documents(pool_path, Source.REFERENCE)
    availability = pool.doc_count_by_subtopic()
    scores = {g.subtopic: g.hybrid for g in report}
    try:
        quota_plan = allocate_quotas(scores, budget, availability)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    write_plan(quota_plan, scores, output)
    click.echo(f"planned {quota_plan.budget} docs across {sum(1 for a in quota_plan.allocations.values() if a)} subtopics -> {output}")


@main.command("build-corpus")
@click.argument("arm", type=click.Choice(["directed", "nondirected"]))
@click.option("--baseline", "baseline_path", required=True, type=click.Path(exists=True))
@click.option("--pool", "pool_path", required=True, type=click.Path(exists=True))
@click.option("--plan", "plan_path", type=click.Path(exists=True), default=None, help="Quota plan (directed).")
@click.option("--queries", "queries_path", type=click.Path(exists=True), default=None, help="Train queries for pool scoring (directed).")
@click.option("--size", type=click.IntRange(min=0), default=None, help="Sample size (nondirected).")
@click.option("--sample-seed", type=int, default=None, help="Sampling seed (nondirected); defaults to the ladder seed.")
@click.option("--name", default=None)
@click.option("-o", "--output", required=True, type=click.Path())
@click.pass_context
def build_corpus(ctx, arm, baseline_path, pool_path, plan_path, queries_path, size, sample_seed, name, output) -> None:
    """Assemble a Directed or Non-Directed augmented corpus."""
    cfg = _cfg(ctx)
    baseline = ingest_documents(baseline_path, Source.BASELINE)
    pool = ingest_documents(pool_path, Source.REFERENCE)
    if arm == "directed":
        if plan_path is None or queries_path is None:
            raise click.ClickException("directed builds need --plan and --queries")
        quota_plan = read_plan(plan_path)
        queries = ingest_queries(queries_path, Split.TRAIN)
        gateway = _gateway(ctx)
        judge = make_gateway_judge(gateway, config_mod.provider_params(cfg))
        scored, skipped = score_external_pool(pool.documents, queries, judge)
        if skipped:
            click.echo(f"skipped {len(skipped)} pool docs that are unlabeled or whose every judge call failed", err=True)
        corpus = build_directed_corpus(baseline, scored, quota_plan, name)
    else:
        if size is None:
            raise click.ClickException("nondirected builds need --size")
        seed = sample_seed if sample_seed is not None else cfg.ladder_seed
        corpus = build_nondirected_corpus(baseline, list(pool.documents), size, seed, name)
    write_corpus(corpus, output)
    pct = percent_increase(corpus, len(baseline))
    click.echo(f"built {corpus.name}: {len(corpus)} docs (+{pct:.1f}%) -> {output}")


@main.command()
@click.option("--metadata", "metadata_path", required=True, type=click.Path(exists=True), help="JSONL of {id?, title, headers, word_count, subtopic?}.")
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--flags", "flags_path", type=click.Path(), default=None, help="Sidecar for length-deviation flags.")
@click.pass_context
def generate(ctx, metadata_path, output, flags_path) -> None:
    """Generate synthetic articles from metadata records."""
    cfg = _cfg(ctx)
    gateway = _gateway(ctx)
    params = config_mod.provider_params(cfg)
    docs = []
    flags = []
    for lineno, record in read_records(metadata_path):
        where = f"{metadata_path}:{lineno}"
        title = record_field(record, "title", "str", where)
        if not title.strip():
            raise IngestError(f"{where}: 'title' must be a non-blank string, got {title!r}")
        word_count = record_field(record, "word_count", "int", where)
        if word_count <= 0:
            raise IngestError(f"{where}: 'word_count' must be a positive integer, got {word_count!r}")
        headers = record_field(record, "headers", "strs", where, [])
        metadata = ArticleMetadata(title=title, headers=tuple(headers), word_count=word_count)
        doc_id = record_field(record, "id", "str?", where, None) or f"synthetic-{lineno:05d}"
        subtopic = record_field(record, "subtopic", "str?", where, None)
        result = generate_synthetic_doc(metadata, gateway, doc_id, subtopic=subtopic, params=params)
        docs.append(result.document)
        flags.append(
            {
                "id": doc_id,
                "requested_words": result.requested_words,
                "generated_words": result.generated_words,
                "deviation": round(result.length_deviation, 4),
                "flagged": result.length_flagged,
            }
        )
    write_corpus(Corpus(name=Path(output).stem, documents=tuple(docs)), output)
    if flags_path:
        write_records(flags_path, flags)
    flagged = sum(1 for f in flags if f["flagged"])
    click.echo(f"generated {len(docs)} articles ({flagged} length-flagged) -> {output}")


def _parse_pipelines(ctx: click.Context, param: click.Parameter, value: str) -> list[Pipeline]:
    """'all' or comma-separated pipeline names, each once, checked as
    `click.Choice` would check one name, before the command reads input."""
    if value == "all":
        return list(Pipeline)
    names = [name.strip() for name in value.split(",")]
    unknown = [name for name in names if name not in {p.value for p in Pipeline}]
    if unknown:
        choices = ", ".join(["all"] + [p.value for p in Pipeline])
        raise click.BadParameter(f"unknown pipeline(s) {', '.join(map(repr, unknown))}; choose from {choices}")
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise click.BadParameter(f"pipeline(s) {', '.join(map(repr, repeated))} named more than once")
    return [Pipeline(name) for name in names]


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True), help="JSONL of {name, path, arm, docs_added}.")
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True), help="Held-out test queries.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--pipelines", default="all", callback=_parse_pipelines, help="Comma-separated pipeline names or 'all'.")
@click.pass_context
def eval(ctx, manifest_path, queries_path, out_dir, pipelines) -> None:
    """Run the (corpus x pipeline) experiment grid over test queries."""
    cfg = _cfg(ctx)
    gateway = _gateway(ctx)
    params = config_mod.provider_params(cfg)
    judge = make_gateway_judge(gateway, params)
    rewriter = make_gateway_rewriter(gateway, params)
    embedder = config_mod.make_embedder(cfg)
    ctx.call_on_close(embedder.close)
    try:
        queries = ingest_queries(queries_path, Split.TEST)
        corpora, info = _load_manifest(manifest_path)
    except OSError as exc:
        raise click.ClickException(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = run_grid(
            corpora,
            pipelines,
            queries,
            embedder,
            judge,
            rewriter,
            k_candidates=cfg.candidates,
            top_k=cfg.top_k,
            seed=cfg.provider.seed,
            out_dir=out / "cells",
        )
    except ValueError as exc:  # corpora that run_grid refuses before any cell
        raise click.ClickException(str(exc))
    rows = []
    for result in results:
        if not result.complete:
            click.echo(f"incomplete: {result.spec.corpus_name}/{result.spec.pipeline.value}: {result.error}", err=True)
        meta = info[result.spec.corpus_name]
        rows.append(
            {
                "corpus": result.spec.corpus_name,
                "pipeline": result.spec.pipeline.value,
                "avg_score": result.avg_score,
                "complete": result.complete,
                "arm": meta.arm,
                "docs_added": meta.docs_added,
                "total_docs": meta.total_docs,
            }
        )
    rows.sort(key=lambda r: (r["corpus"], r["pipeline"]))
    write_records(out / "summary.jsonl", rows)
    incomplete = sum(1 for r in rows if not r["complete"])
    click.echo(f"ran {len(rows)} experiments ({incomplete} incomplete) -> {out / 'summary.jsonl'}")
    if incomplete:
        sys.exit(1)


def _load_manifest(manifest_path: str) -> tuple[list[Corpus], dict[str, CorpusInfo]]:
    """The corpora an `eval` manifest names, with paths relative to the
    manifest, and the facts the summary records about each."""
    manifest_dir = Path(manifest_path).parent
    corpora = []
    info = {}
    for lineno, entry in read_records(manifest_path):
        where = f"{manifest_path}:{lineno}"
        name = record_field(entry, "name", "str", where)
        path = record_field(entry, "path", "str", where)
        arm = record_field(entry, "arm", "str", where)
        docs_added = record_field(entry, "docs_added", "int", where)
        # An empty name is the file's stem: repeats are of the name used.
        corpus = ingest_documents(manifest_dir / path, Source.BASELINE, name=name)
        if corpus.name in info:
            raise IngestError(f"{where}: corpus name {corpus.name!r} appears twice in the manifest")
        corpora.append(corpus)
        try:
            info[corpus.name] = CorpusInfo(arm, docs_added, len(corpus))
        except ValueError as exc:
            raise IngestError(f"{where}: {exc}") from None
    return corpora, info


def _load_summary(summary_path: str) -> tuple[list[ExperimentResult], dict[str, CorpusInfo]]:
    """The cells of an `eval` summary, without per-query scores, and the
    facts it records about each corpus; a bad row is one error naming
    its line."""
    results = []
    info = {}
    for lineno, row in read_records(summary_path):
        where = f"{summary_path}:{lineno}"
        corpus = record_field(row, "corpus", "str", where)
        pipeline = record_field(row, "pipeline", "str", where)
        avg_score = record_field(row, "avg_score", "number?", where)
        complete = record_field(row, "complete", "bool", where)
        arm = record_field(row, "arm", "str", where)
        docs_added = record_field(row, "docs_added", "int", where)
        total_docs = record_field(row, "total_docs", "int", where)
        try:
            spec = ExperimentSpec(corpus_name=corpus, pipeline=Pipeline(pipeline))
            info[corpus] = CorpusInfo(arm, docs_added, total_docs)
        except ValueError as exc:
            raise IngestError(f"{where}: {exc}") from None
        results.append(ExperimentResult(spec, avg_score, per_query=(), complete=complete))
    return results, info


def _arm_ladder(
    results: list[ExperimentResult], info: dict[str, CorpusInfo], arm: str, pipeline: Pipeline
) -> list[LadderPoint]:
    points = []
    for result in results:
        meta = info[result.spec.corpus_name]
        if result.spec.pipeline is pipeline and result.avg_score is not None and meta.arm in (arm, "baseline"):
            points.append(LadderPoint(meta.docs_added, meta.pct_increase, result.avg_score))
    points.sort(key=lambda p: p.docs_added)
    return points


@main.command()
@click.option("--summary", "summary_path", required=True, type=click.Path(exists=True))
@click.option("--reference", default="reference", help="Corpus name holding the reference scores.")
@click.option("--ratio", type=float, default=0.95)
@click.option("--out", "out_dir", required=True, type=click.Path())
def thresholds(summary_path, reference, ratio, out_dir) -> None:
    """Smallest corpus per pipeline reaching the reference-score threshold."""
    results, info = _load_summary(summary_path)
    reference_scores = {
        r.spec.pipeline: r.avg_score for r in results if r.spec.corpus_name == reference
    }
    if not reference_scores:
        raise click.ClickException(f"no rows for reference corpus {reference!r}")
    pipelines = [p for p in Pipeline if p in reference_scores]
    unscored = [f"{reference}/{p.value}" for p in pipelines if reference_scores[p] is None]
    if unscored:
        raise click.ClickException("reference cells without a score: " + ", ".join(unscored))
    directed = {p: _arm_ladder(results, info, "directed", p) for p in pipelines}
    nondirected = {p: _arm_ladder(results, info, "nondirected", p) for p in pipelines}
    try:
        report = doc_reduction_report(directed, nondirected, reference_scores, ratio)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    written = emit_threshold_report(report, out_dir)
    click.echo("wrote " + ", ".join(str(p) for p in written))


@main.command()
@click.option("--summary", "summary_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def report(summary_path, out_dir) -> None:
    """Emit score reports (CSV, aligned tables, plot series)."""
    results, info = _load_summary(summary_path)
    written = emit_report(results, info, out_dir)
    click.echo("wrote " + ", ".join(str(p) for p in written))


if __name__ == "__main__":
    main()
