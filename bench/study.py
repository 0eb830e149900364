"""One study in one fresh process: the child that `run.py` starts.

Runs the whole corpusgap study through the library calls the CLI makes:
ingest, label, gaps, pool scoring, the 22-corpus Directed/Non-Directed
ladder and the 88-cell grid; then the CLI's own `thresholds` and `report`
commands read the grid's summary. Times set-up and the
study, checks the outputs against the workload's truth, and writes one
JSON result file.

    PYTHONPATH=src python3 bench/study.py --inputs DIR --cache DIR --out DIR \
        --seed N --result FILE [--slow] [--trace FILE]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


# Study stages whose provider requests the traced run reports separately.
PROVIDER_STAGES = ("annotate.label_batch", "gaps.analyze", "planner.score_pool", "evaluation.grid")


class _JudgeFailureCounter(logging.Handler):
    """Counts the per-pair judge failures `score_external_pool` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("judge failed"):
            self.count += 1


def reports_sha256(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run(args: argparse.Namespace) -> dict:
    tracer = spans.Tracer(run_id=args.run_id) if args.trace else spans.NullTracer()
    inputs = Path(args.inputs)
    out = Path(args.out)
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    # --- set-up: import, ingest, gateway and embedder ---------------------
    import click
    from corpusgap import annotate, cli, config, evaluation, gaps, planner
    from corpusgap.corpus import (
        Corpus, Source, Split, ingest_documents, ingest_queries, load_taxonomy, write_records,
    )
    from corpusgap.gateway import make_gateway_judge, make_gateway_rewriter
    from corpusgap.retrieval import Pipeline

    with tracer.span("corpus.ingest"):
        taxonomy = load_taxonomy(inputs / "taxonomy.jsonl")
        baseline = ingest_documents(inputs / "baseline.jsonl", Source.BASELINE, taxonomy, name="baseline")
        pool = ingest_documents(inputs / "pool.jsonl", Source.REFERENCE, taxonomy)
        train = ingest_queries(inputs / "train.jsonl", Split.TRAIN, taxonomy)
        test = ingest_queries(inputs / "test.jsonl", Split.TEST, taxonomy)
    cfg = config.Config(
        budgets=tuple(truth["budgets"]),
        provider=config.ProviderConfig(seed=args.seed),
        cache_dir=args.cache,
    )
    with tracer.span("config.make_gateway"):
        gateway = config.make_gateway(cfg)
    with tracer.span("config.make_embedder"):
        embedder = config.make_embedder(cfg)
    mock = gateway.provider
    slow = None
    if args.slow:
        from slowprovider import LatencyProvider

        slow = gateway.provider = LatencyProvider(mock, seed=args.seed)
    if tracer.enabled:
        gateway, embedder = spans.instrument(tracer, gateway, embedder)
    judge_counter = _JudgeFailureCounter()
    logging.getLogger("corpusgap.planner").addHandler(judge_counter)
    t_setup = time.perf_counter()
    cpu_setup = time.process_time()

    # --- the study ----------------------------------------------------------
    stage_calls: dict[str, int] = {}

    @contextlib.contextmanager
    def stage(name: str):
        """A traced span that also counts the provider requests made in it."""
        before = mock.calls
        with tracer.span(name):
            yield
        stage_calls[name] = mock.calls - before

    params = config.provider_params(cfg)
    with stage("annotate.label_batch"):
        labels, label_failures = {}, []
        # The texts the CLI's `annotate` sends for queries and for documents.
        query_items = [(q.id, q.text) for q in train]
        doc_items = [(d.id, " ".join([d.title] + [s.body for s in d.sections])) for d in pool.documents]
        for items in (query_items, doc_items):
            done, failed = annotate.label_batch(items, taxonomy, gateway, params)
            labels.update(done)
            label_failures.extend(failed)
    train = [dataclasses.replace(q, subtopic=labels[q.id].primary if q.id in labels else None) for q in train]
    pool = Corpus(
        name="pool",
        documents=tuple(
            dataclasses.replace(d, subtopic=labels[d.id].primary if d.id in labels else None)
            for d in pool.documents
        ),
    )
    judge = make_gateway_judge(gateway, params)
    rewriter = make_gateway_rewriter(gateway, params)
    out.mkdir(parents=True, exist_ok=True)

    with stage("gaps.analyze"):
        report = gaps.analyze_gaps(
            baseline, train, taxonomy,
            gaps.GapParams(total_docs=len(baseline), smoothing=cfg.smoothing, exponent=cfg.exponent),
            gaps.GapWeights(coverage=cfg.coverage_weight, usefulness=cfg.usefulness_weight),
            tracer.count_calls(judge, "gaps.judge_calls"),
        )
        gaps.write_gap_report(report, out / "gaps.jsonl")

    with stage("planner.score_pool"):
        scored, skipped = planner.score_external_pool(
            pool.documents, train, tracer.count_calls(judge, "planner.score_pool_judge_calls")
        )

    # As `corpusgap plan`: availability counts every pool document.
    scores = {g.subtopic: g.hybrid for g in report}
    availability = pool.doc_count_by_subtopic()
    info = {"baseline": ("baseline", 0), "reference": ("reference", len(pool))}
    corpora = [baseline]
    rung_failures = 0
    with stage("planner.ladder_build"):
        directed, nondirected = [], []
        for i, budget in enumerate(cfg.budgets):
            d_name, n_name = f"directed-{i:02d}", f"nondirected-{i:02d}"
            try:
                plan = planner.allocate_quotas(scores, budget, availability)
                directed.append(planner.build_directed_corpus(baseline, scored, plan, d_name))
                info[d_name] = ("directed", budget)
            except ValueError as exc:
                rung_failures += 1
                failures.append(f"rung {d_name} (budget {budget}): {exc}")
            try:
                nondirected.append(
                    planner.build_nondirected_corpus(baseline, list(pool.documents), budget, cfg.ladder_seed, n_name)
                )
                info[n_name] = ("nondirected", budget)
            except ValueError as exc:
                rung_failures += 1
                failures.append(f"rung {n_name} (budget {budget}): {exc}")
        reference = Corpus(name="reference", documents=baseline.documents + tuple(sorted(pool.documents, key=lambda d: d.id)))
    corpora += directed + nondirected + [reference]

    with stage("evaluation.grid"):
        results = evaluation.run_grid(
            corpora, list(Pipeline), test, embedder, judge, rewriter,
            k_candidates=cfg.candidates, top_k=cfg.top_k, seed=cfg.provider.seed,
            out_dir=out / "cells",
        )

    threshold_failures = 0
    with stage("evaluation.report"):
        # As `corpusgap eval` writes the summary; then the CLI's own
        # `thresholds` and `report` commands read it.
        sizes = {c.name: len(c) for c in corpora}
        rows = sorted(
            (
                {"corpus": r.spec.corpus_name, "pipeline": r.spec.pipeline.value,
                 "avg_score": r.avg_score, "complete": r.complete,
                 "arm": info[r.spec.corpus_name][0], "docs_added": info[r.spec.corpus_name][1],
                 "total_docs": sizes[r.spec.corpus_name]}
                for r in results
            ),
            key=lambda r: (r["corpus"], r["pipeline"]),
        )
        write_records(out / "summary.jsonl", rows)
        summary, report_dir = str(out / "summary.jsonl"), str(out / "report")
        try:
            cli.main.main(["thresholds", "--summary", summary, "--out", report_dir], standalone_mode=False)
        except click.ClickException as exc:
            threshold_failures = 1
            failures.append(f"thresholds: {exc.format_message()}")
        cli.main.main(["report", "--summary", summary, "--out", report_dir], standalone_mode=False)
    t_end = time.perf_counter()
    cpu_end = time.process_time()

    # --- checks and accounting (untimed) ----------------------------------
    wrong_labels = [
        item_id for item_id, lab in labels.items() if lab.primary != truth["labels"][item_id]
    ]
    incomplete = [f"{r.spec.corpus_name}/{r.spec.pipeline.value}" for r in results if not r.complete]
    queries_per_subtopic = Counter(q.subtopic for q in train if q.subtopic is not None)
    pool_pairs = sum(queries_per_subtopic[d.subtopic] for d in pool.documents)
    failures += [f"label {item_id}: {reason}" for item_id, reason in label_failures]
    failures += [f"cell {cell} incomplete" for cell in incomplete]
    if judge_counter.count:
        failures.append(f"{judge_counter.count} pool judge calls failed")
    attempted = len(train) + len(pool) + pool_pairs + 2 * len(cfg.budgets) + len(results) + 1
    failed = len(label_failures) + judge_counter.count + rung_failures + len(incomplete) + threshold_failures
    checks = {
        "labels_match_truth": not wrong_labels,
        "cells_complete": not incomplete,
        "cells_ran": len(results) == 4 * len(corpora),
    }
    result = {
        "setup_s": t_setup - T_START,
        "study_s": t_end - t_setup,
        "study_cpu_s": cpu_end - cpu_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provider_calls": mock.calls,
        "provider_calls_by_stage": stage_calls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checks": checks,
        "reports_sha256": reports_sha256(out),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if slow is not None:
        ms = [s * 1000.0 for s in slow.slept_s]
        result["sleep_ms_p50"] = spans.quantile(ms, 0.50)
        result["sleep_ms_p99"] = spans.quantile(ms, 0.99)
        result["sleep_planned_s"] = sum(slow.planned_s)
        result["max_inflight"] = slow.max_inflight
    if tracer.enabled:
        tracer.add("corpus.records", len(taxonomy.topics) + len(baseline) + len(pool) + len(train) + len(test))
        tracer.add("annotate.items", len(train) + len(pool))
        tracer.add("annotate.failed", len(label_failures))
        tracer.add("evaluation.cells", len(results))
        tracer.add("evaluation.cells_incomplete", len(incomplete))
        layers = spans.layer_metrics(tracer)
        for name in PROVIDER_STAGES:
            layers[f"providers.requests.{name}"] = stage_calls[name]
        layers["providers.sleep_ms_p50"] = result.get("sleep_ms_p50", 0.0)
        layers["providers.sleep_ms_p99"] = result.get("sleep_ms_p99", 0.0)
        result["layers"] = layers
        tracer.write(args.trace)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--slow", action="store_true")
    parser.add_argument("--trace", default="")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
