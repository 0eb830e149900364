"""Smoke test of the study benchmark against the current library.

Generates a small workload with `bench/workloadgen.py`, then runs
`bench/study.py` in a fresh process once untraced and once traced, so a
library change that breaks the benchmark's calls fails here.
"""

from __future__ import annotations

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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("workload") / "inputs"
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(BENCH), ENV["PYTHONPATH"]])}
    subprocess.run([sys.executable, "-c", GENERATE, str(directory)], env=env, check=True, timeout=120)
    return directory


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_study_runs_and_passes_its_checks(inputs, tmp_path, traced):
    result_path = tmp_path / "result.json"
    cmd = [
        sys.executable, str(BENCH / "study.py"), "--inputs", str(inputs),
        "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "out"),
        "--seed", "5", "--result", str(result_path),
    ]
    if traced:
        cmd += ["--trace", str(tmp_path / "trace.jsonl")]
    proc = subprocess.run(cmd, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["checks"] and all(result["checks"].values()), result["checks"]
    assert result["failed"] == 0, result["failures"]
    assert ("layers" in result) == traced
