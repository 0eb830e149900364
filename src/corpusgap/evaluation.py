"""Experiment grid over (corpus, pipeline) cells, aggregation, and the
threshold analysis of how small an augmented corpus can get while staying
within a fixed fraction of the reference corpus score.

A cell is one (corpus, pipeline) pair run over the held-out test
queries; its score is the mean judge score of every query's top
documents. `run_grid` is the one way from corpora to cells
(`run_experiment` is a one-corpus grid). It builds each index kind once
over the union of its corpora, and each corpus searches its rows of it,
so every document and chunk is embedded once and every query is ranked
once per grid. It runs its cells `GRID_CHUNK_CELLS` at a time through
one `retrieval.Retriever`, so each distinct (query text, doc id) pair is
judged once per grid, and each chunk's new pairs go to the judge in one
batch. A cell that fails is returned, not raised: it keeps the queries
before the failure, is marked incomplete and carries the failure as its
`error`, so the grid runs every cell and each failure stays with the
cell it belongs to. A failed index build is tried once per grid; a
failed judge call is never kept: the next chunk that needs it asks again.

Threshold semantics, recorded in every report: a rung qualifies when its
score ratio to the reference, rounded half-up to 3 decimals, is >= the
target ratio (default 0.950).
"""

from __future__ import annotations

import csv
import io
import json
import logging
from itertools import groupby
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, Document, Query, Split, percent_increase
from .gateway import JudgeFn, RewriteFn
from .retrieval import (
    DEFAULT_CANDIDATES,
    DEFAULT_TOP_K,
    Cell,
    CellRun,
    Embedder,
    Pipeline,
    Retriever,
    SearchIndex,
    build_chunk_index,
    build_document_index,
)

# Cells per `Retriever.run` in `run_grid`: it bounds a grid's judge batches
# and the candidates held at once.
GRID_CHUNK_CELLS = 16
THRESHOLD_RULE = "score ratio to reference, rounded half-up to 3 decimals, must reach the target"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentSpec:
    corpus_name: str
    pipeline: Pipeline
    seed: int = 0


@dataclass(frozen=True)
class QueryOutcome:
    query_id: str
    doc_scores: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    avg_score: float | None
    per_query: tuple[QueryOutcome, ...]
    complete: bool = True
    error: str | None = None


def union_corpus(corpora: Sequence[Corpus]) -> Corpus:
    """Every document of `corpora` once, in first-seen order.

    Raises ValueError for an empty corpus, or for a doc id that two
    corpora give different documents: the union holds one document per id.
    """
    seen: dict[str, tuple[Document, str]] = {}
    for corpus in corpora:
        if len(corpus) == 0:
            raise ValueError(f"corpus {corpus.name!r} is empty")
        for doc in corpus.documents:
            first, owner = seen.setdefault(doc.id, (doc, corpus.name))
            if first != doc:
                raise ValueError(
                    f"doc id {doc.id!r} names different documents in corpora {owner!r} and {corpus.name!r}"
                )
    return Corpus(name="union", documents=tuple(doc for doc, _ in seen.values()))


def _require_test_split(queries: Sequence[Query]) -> None:
    bad = [q.id for q in queries if q.split is not Split.TEST]
    if bad:
        raise ValueError(f"non-test queries in evaluation set: {bad[:5]}")


def _run_cells(
    retriever: Retriever,
    cells: Sequence[tuple[ExperimentSpec, Cell | Exception]],
    test_queries: Sequence[Query],
) -> list[ExperimentResult]:
    """One `Retriever.run` over the cells that have an index; a cell whose
    index could not be built fails with that error. Each call's `CellRun`s
    are released when it returns, before the grid's next chunk runs."""
    runs = iter(retriever.run([cell for _, cell in cells if isinstance(cell, Cell)], test_queries))
    return [
        _experiment_result(spec, CellRun((), cell) if isinstance(cell, Exception) else next(runs))
        for spec, cell in cells
    ]


def _experiment_result(spec: ExperimentSpec, run: CellRun) -> ExperimentResult:
    outcomes = tuple(
        QueryOutcome(result.query_id, tuple((d.doc_id, d.judge_score) for d in result.top_docs))
        for result in run.results
    )
    error = None
    if run.error is not None:
        log.debug("cell %s/%s failed", spec.corpus_name, spec.pipeline.value, exc_info=run.error)
        error = f"{type(run.error).__name__}: {run.error}"
    all_scores = [score for outcome in outcomes for _, score in outcome.doc_scores]
    avg = sum(all_scores) / len(all_scores) if all_scores and error is None else None
    return ExperimentResult(spec, avg, outcomes, complete=error is None, error=error)


def run_experiment(
    spec: ExperimentSpec,
    corpus: Corpus,
    embedder: Embedder,
    test_queries: Sequence[Query],
    judge: JudgeFn,
    rewriter: RewriteFn | None = None,
    k_candidates: int = DEFAULT_CANDIDATES,
    top_k: int = DEFAULT_TOP_K,
    out_path: str | Path | None = None,
) -> ExperimentResult:
    """Run one (corpus, pipeline) cell over the held-out test queries: the
    one-corpus, one-pipeline `run_grid`, saved to `out_path` if given.

    A rewrite or judge failure surfaces at the query it belongs to: the
    earlier queries are kept, and the cell is returned (and saved) with no
    score, marked incomplete, with `error` "<Type>: <message>".
    """
    if spec.corpus_name != corpus.name:
        raise ValueError(f"spec names corpus {spec.corpus_name!r}, but the corpus is {corpus.name!r}")
    [result] = run_grid(
        [corpus], [spec.pipeline], test_queries, embedder, judge, rewriter, k_candidates, top_k, seed=spec.seed
    )
    if out_path is not None:
        save_experiment(result, out_path)
    return result


# A cell file's lines, byte for byte `json.dumps(row, sort_keys=True)`, from
# one encoder: `json.dumps` with that argument builds a new one per call.
_CELL_ENCODER = json.JSONEncoder(sort_keys=True)


def save_experiment(result: ExperimentResult, path: str | Path) -> None:
    encode = _CELL_ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "kind": "experiment",
            "corpus": result.spec.corpus_name,
            "pipeline": result.spec.pipeline.value,
            "seed": result.spec.seed,
            "avg_score": result.avg_score,
            "complete": result.complete,
        }
        if not result.complete:
            meta["error"] = result.error
        fh.write(encode(meta) + "\n")
        for outcome in result.per_query:
            row = {
                "kind": "query",
                "query_id": outcome.query_id,
                "docs": [[doc_id, score] for doc_id, score in outcome.doc_scores],
            }
            fh.write(encode(row) + "\n")


def run_grid(
    corpora: Sequence[Corpus],
    pipelines: Sequence[Pipeline],
    test_queries: Sequence[Query],
    embedder: Embedder,
    judge: JudgeFn,
    rewriter: RewriteFn | None = None,
    k_candidates: int = DEFAULT_CANDIDATES,
    top_k: int = DEFAULT_TOP_K,
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> list[ExperimentResult]:
    """Every (corpus, pipeline) cell, in order; a failed cell is returned
    incomplete with its error, and the grid goes on.

    After `union_corpus`'s checks, each index kind (chunk for
    hierarchical, else document) is built once over the union, in the
    order `pipelines` first needs it; a build that raises is the error of
    every cell of its kind. Each corpus searches its rows of each index
    (`SearchIndex.subset`). Cells run `GRID_CHUNK_CELLS` at a time through
    one `Retriever` for the grid, so each chunk makes at most one rewriter
    and one judge call, and a (query text, doc id) pair is judged once
    per grid; a pair that failed is asked again by the next chunk that
    holds it.
    """
    _require_test_split(test_queries)
    union = union_corpus(corpora)
    # The builders are looked up when the grid runs, so a caller may wrap them.
    builds = [build_chunk_index if p is Pipeline.HIERARCHICAL else build_document_index for p in pipelines]
    indexes: dict[object, SearchIndex | Exception] = {}
    for build in dict.fromkeys(builds):
        try:
            indexes[build] = build(union, embedder)
        except Exception as exc:
            indexes[build] = exc
    cells: list[tuple[ExperimentSpec, Cell | Exception]] = []
    for corpus in corpora:
        views = {build: index if isinstance(index, Exception) else index.subset(corpus) for build, index in indexes.items()}
        for pipeline, view in zip(pipelines, map(views.get, builds)):
            spec = ExperimentSpec(corpus_name=corpus.name, pipeline=pipeline, seed=seed)
            cells.append((spec, view if isinstance(view, Exception) else Cell(pipeline, view, corpus)))
    retriever = Retriever(judge, rewriter, k_candidates, top_k)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results: list[ExperimentResult] = []
    for start in range(0, len(cells), GRID_CHUNK_CELLS):
        for result in _run_cells(retriever, cells[start : start + GRID_CHUNK_CELLS], test_queries):
            if out is not None:
                save_experiment(result, out / f"{result.spec.corpus_name}__{result.spec.pipeline.value}.jsonl")
            results.append(result)
    return results


# --- threshold analysis -----------------------------------------------------


@dataclass(frozen=True)
class LadderPoint:
    docs_added: int
    percent_increase: float
    avg_score: float


class ThresholdNotReached(ValueError):
    """No ladder rung reaches the required fraction of the reference score."""


def _rounded_ratio(score: float, reference: float) -> Decimal:
    return (Decimal(repr(score)) / Decimal(repr(reference))).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_UP
    )


def find_threshold(
    ladder: Sequence[LadderPoint],
    reference_score: float,
    ratio: float = 0.95,
) -> LadderPoint:
    """Smallest rung whose score reaches the given fraction of reference.

    The ladder must be sorted by size ascending, and the ratio above 0
    (not NaN). The comparison rounds the score ratio half-up to 3
    decimals before testing against the target, so e.g. 0.9496 qualifies
    at ratio 0.95.
    """
    if not ratio > 0:
        raise ValueError(f"ratio must be above 0, got {ratio!r}")
    if not ladder:
        raise ValueError("empty ladder")
    if reference_score <= 0:
        raise ValueError("reference score must be positive")
    sizes = [point.docs_added for point in ladder]
    if sizes != sorted(sizes):
        raise ValueError("ladder must be sorted by size ascending")
    target = Decimal(repr(ratio))
    for point in ladder:
        if _rounded_ratio(point.avg_score, reference_score) >= target:
            return point
    raise ThresholdNotReached(
        f"no rung reaches {ratio:.0%} of reference score {reference_score}"
    )


@dataclass(frozen=True)
class ThresholdRow:
    pipeline: Pipeline
    directed: LadderPoint
    nondirected: LadderPoint
    pct_decrease: float


@dataclass(frozen=True)
class ThresholdReport:
    rows: tuple[ThresholdRow, ...]
    ratio: float
    rule: str = THRESHOLD_RULE


def doc_reduction_report(
    directed: Mapping[Pipeline, Sequence[LadderPoint]],
    nondirected: Mapping[Pipeline, Sequence[LadderPoint]],
    reference_scores: Mapping[Pipeline, float],
    ratio: float = 0.95,
) -> ThresholdReport:
    """Per-pipeline smallest qualifying rung for both arms, plus the
    document-count saving of directed over non-directed selection."""
    rows = []
    for pipeline in directed:
        d_point = find_threshold(directed[pipeline], reference_scores[pipeline], ratio)
        nd_point = find_threshold(nondirected[pipeline], reference_scores[pipeline], ratio)
        decrease = (
            (nd_point.docs_added - d_point.docs_added) / nd_point.docs_added * 100.0
            if nd_point.docs_added
            else 0.0
        )
        rows.append(
            ThresholdRow(
                pipeline=pipeline,
                directed=d_point,
                nondirected=nd_point,
                pct_decrease=decrease,
            )
        )
    return ThresholdReport(rows=tuple(rows), ratio=ratio)


# --- report emission --------------------------------------------------------


@dataclass(frozen=True)
class CorpusInfo:
    arm: str
    docs_added: int
    total_docs: int

    def __post_init__(self) -> None:
        if not 0 <= self.docs_added < self.total_docs:
            raise ValueError(
                f"docs_added must be at least 0 and below total_docs, got {self.docs_added} of {self.total_docs}"
            )

    @property
    def pct_increase(self) -> float:
        return percent_increase(self.total_docs, self.total_docs - self.docs_added)


def _score_cell(value: float | None) -> str:
    return f"{value:.4f}" if value is not None else ""


def _write_text(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _write_text(path, buffer.getvalue())


def emit_report(
    results: Sequence[ExperimentResult],
    corpus_info: Mapping[str, CorpusInfo],
    out_dir: str | Path,
) -> list[Path]:
    """Write score reports; byte-identical for identical inputs.

    Emits a flat CSV, aligned text tables per arm, and per-(pipeline, arm)
    plot series of (total docs, avg score). Missing or incomplete cells
    are listed in warnings.txt.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_cell = {(r.spec.corpus_name, r.spec.pipeline): r for r in results}
    names = sorted(corpus_info, key=lambda n: (corpus_info[n].arm, corpus_info[n].total_docs, n))
    # Every (corpus, pipeline) cell in report order, with None for a cell no result names.
    table = [(name, corpus_info[name], pipeline, by_cell.get((name, pipeline))) for name in names for pipeline in Pipeline]

    warnings = [] if results else ["no experiment results were provided"]
    for name, _, pipeline, cell in table:
        if cell is None:
            warnings.append(f"missing cell: {name}/{pipeline.value}")
        elif not cell.complete:
            warnings.append(f"incomplete cell: {name}/{pipeline.value}")

    scores_path = _write_csv(
        out / "scores.csv",
        ["corpus", "arm", "docs_added", "total_docs", "pct_increase", "pipeline", "avg_score", "complete"],
        (
            [
                name,
                info.arm,
                info.docs_added,
                info.total_docs,
                f"{info.pct_increase:.1f}",
                pipeline.value,
                _score_cell(cell.avg_score),
                str(cell.complete).lower(),
            ]
            for name, info, pipeline, cell in table
            if cell is not None
        ),
    )
    written = [scores_path]

    lines = []
    header = f"{'corpus':<28}{'total':>8}{'+%':>10}" + "".join(f"{p.value:>22}" for p in Pipeline)
    # The table runs arm by arm, then corpus by corpus: one text table per arm, one line per corpus.
    for arm, arm_cells in groupby(table, key=lambda entry: entry[1].arm):
        lines += [f"== {arm} ==", header]
        for (name, info), name_cells in groupby(arm_cells, key=lambda entry: entry[:2]):
            cells = "".join(f"{'-' if cell is None else _score_cell(cell.avg_score):>22}" for *_, cell in name_cells)
            lines.append(f"{name:<28}{info.total_docs:>8}{info.pct_increase:>9.1f}%" + cells)
        lines.append("")
    written.append(_write_text(out / "scores.txt", "\n".join(lines)))

    plot_dir = out / "plot"
    plot_dir.mkdir(exist_ok=True)
    arms = sorted({info.arm for info in corpus_info.values()})
    for pipeline in Pipeline:
        for arm in arms:
            series = sorted(
                (info.total_docs, cell.avg_score)
                for _, info, p, cell in table
                if p is pipeline and info.arm == arm and cell is not None and cell.avg_score is not None
            )
            rows = [[total, f"{score:.4f}"] for total, score in series]
            written.append(_write_csv(plot_dir / f"{pipeline.value}_{arm}.csv", ["total_docs", "avg_score"], rows))

    if warnings:
        written.append(_write_text(out / "warnings.txt", "\n".join(warnings) + "\n"))
    return written


def emit_threshold_report(report: ThresholdReport, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = _write_csv(
        out / "thresholds.csv",
        [
            "pipeline",
            "directed_pct_increase",
            "nondirected_pct_increase",
            "directed_docs_added",
            "nondirected_docs_added",
            "pct_decrease_in_docs_added",
        ],
        (
            [
                row.pipeline.value,
                f"{row.directed.percent_increase:.1f}",
                f"{row.nondirected.percent_increase:.1f}",
                row.directed.docs_added,
                row.nondirected.docs_added,
                f"{row.pct_decrease:.1f}",
            ]
            for row in report.rows
        ),
    )

    lines = [
        f"threshold target: {report.ratio:.3f} of reference score",
        f"rule: {report.rule}",
        "",
        f"{'pipeline':<24}{'directed +%':>14}{'nondirected +%':>16}"
        f"{'directed docs':>16}{'nondirected docs':>18}{'% decrease':>12}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.pipeline.value:<24}{row.directed.percent_increase:>13.1f}%"
            f"{row.nondirected.percent_increase:>15.1f}%"
            f"{row.directed.docs_added:>16}{row.nondirected.docs_added:>18}"
            f"{row.pct_decrease:>11.1f}%"
        )
    return [csv_path, _write_text(out / "thresholds.txt", "\n".join(lines) + "\n")]
