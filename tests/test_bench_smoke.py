"""Smoke test of the study benchmark against the current library.

Generates a small workload with `bench/workloadgen.py`, then runs
`bench/study.py` in a fresh process once untraced and once traced, so a
library change that breaks the benchmark's calls, or that tracing would
change the reports of, fails here.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
GENERATE = """
import sys
from workloadgen import WorkloadParams, generate
small = WorkloadParams(subtopics=6, baseline_docs=24, pool_docs=30, sections=2,
                       words_per_section=12, train_queries=20, test_queries=6)
generate(5, small, sys.argv[1])
"""
# sha256 of the cache files the untraced study writes, as they were before
# misses were answered a batch at a time: the bytes and the line order of
# both files are pinned.
CACHE_SHA256 = {
    "completions.jsonl": "8d681bc778f14c955331c8736b0e61da1cbed114696715c31d00a1e5d30e7e4d",
    "embeddings.jsonl": "f28779354a2e172be2c27b8a18e06530b643689105e80942cc9eb29fa3218dbc",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("workload") / "inputs"
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(BENCH), ENV["PYTHONPATH"]])}
    subprocess.run([sys.executable, "-c", GENERATE, str(directory)], env=env, check=True, timeout=120)
    return directory


@pytest.fixture(scope="module")
def studies(inputs, tmp_path_factory):
    """One untraced and one traced study: {traced: (process, result path)}."""
    runs = {}
    for traced in (False, True):
        work = tmp_path_factory.mktemp("traced" if traced else "untraced")
        cmd = [
            sys.executable, str(BENCH / "study.py"), "--inputs", str(inputs),
            "--cache", str(work / "cache"), "--out", str(work / "out"),
            "--seed", "5", "--result", str(work / "result.json"),
        ]
        if traced:
            cmd += ["--trace", str(work / "trace.jsonl")]
        runs[traced] = (subprocess.run(cmd, env=ENV, capture_output=True, text=True, timeout=300), work / "result.json")
    return runs


def study_result(studies, traced) -> dict:
    proc, result_path = studies[traced]
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(result_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_study_runs_and_passes_its_checks(studies, traced):
    result = study_result(studies, traced)
    assert result["checks"] and all(result["checks"].values()), result["checks"]
    assert result["failed"] == 0, result["failures"]
    assert ("layers" in result) == traced


def test_tracing_leaves_the_reports_unchanged(studies):
    # Tracing replaces the index builders and the grid cell that
    # `corpusgap.evaluation` looks up by name; the reports must not notice.
    untraced, traced = study_result(studies, False), study_result(studies, True)
    assert traced["reports_sha256"] == untraced["reports_sha256"]


def test_cache_files_keep_their_bytes(studies):
    study_result(studies, False)
    _, result_path = studies[False]
    cache = result_path.parent / "cache"
    digests = {name: hashlib.sha256((cache / name).read_bytes()).hexdigest() for name in CACHE_SHA256}
    assert digests == CACHE_SHA256
