"""Benchmark of the whole corpusgap study, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload cold-study --seed 1 --seconds 20 --trace 0

Workloads:
  cold-study     the paper-shaped study from an empty cache, mock provider.
  warm-rerun     the same study again on a copy of the cache that an untimed
                 cold-study of the same seed left; no provider call is made.
  slow-provider  a smaller study from an empty cache where every provider
                 request sleeps a seeded 1-12 ms (see slowprovider.py).

This script generates the inputs from the seed (workloadgen.py), then runs
studies (study.py), each in its own fresh process and one at a time, until
`--seconds` have passed (at least three untraced runs, or two of each kind
with tracing). It reports the median of every metric over those runs;
`setup_s` is sampled once per untraced study. Child processes get BLAS
threads pinned to 1 and a fixed hash seed.
With `--trace 1` it alternates untraced and traced runs and reports the
per-layer metrics of the traced ones plus `trace.overhead_s`, the traced
minus the untraced median study time. Spans are written to
`.bench_work/trace-<workload>-s<seed>.jsonl`.

Every run's outputs are checked: labels equal the generator's truth, every
cell that ran is complete, reports are byte-identical across runs (and to
the cold run for warm-rerun), and provider calls repeat exactly (zero for
warm-rerun). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Generator parameters per workload (see workloadgen.WorkloadParams); the
# paper-shaped study takes the generator's defaults.
PAPER_SHAPE: dict = {}
SLOW_SHAPE = dict(
    subtopics=12, baseline_docs=72, pool_docs=96, sections=4,
    words_per_section=30, train_queries=40, test_queries=12,
)
WORKLOADS = {
    "cold-study": {"params": PAPER_SHAPE, "slow": False, "warm": False},
    "warm-rerun": {"params": PAPER_SHAPE, "slow": False, "warm": True},
    "slow-provider": {"params": SLOW_SHAPE, "slow": True, "warm": False},
}

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Stop starting studies after DEADLINE_S; kill one still running at HARD_LIMIT_S.
DEADLINE_S = 150
HARD_LIMIT_S = 175
MIN_RUNS = 3
UNITS = {"setup_s": "s", "study_s": "s", "study_cpu_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def stop(signum: int, frame) -> None:
    """SIGTERM handler: unwinds, so the running study is killed and waited for."""
    raise SystemExit(128 + signum)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_study(root: Path, work: Path, run_id: str, seed: int, slow: bool, cache: Path,
              timeout: float, trace: Path | None = None) -> dict:
    out = work / f"out-{run_id}"
    result_path = work / f"result-{run_id}.json"
    cmd = [sys.executable, str(BENCH_DIR / "study.py"), "--inputs", str(work / "inputs"),
           "--cache", str(cache), "--out", str(out), "--seed", str(seed),
           "--result", str(result_path), "--run-id", run_id]
    if slow:
        cmd.append("--slow")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(root), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"study {run_id} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(out, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="corpusgap study benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    def remaining() -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - started)
        if left <= 0:
            raise RuntimeError(f"runs took longer than {HARD_LIMIT_S} s")
        return left

    root = Path.cwd()
    if not (root / "src" / "corpusgap" / "__init__.py").is_file():
        return fail(f"no corpusgap sources under {root / 'src'}; run from the repository root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path[:0] = [str(BENCH_DIR), str(root / "src")]
    from workloadgen import WorkloadParams, generate
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for directory in (root / "src" / "corpusgap", BENCH_DIR):
        compileall.compile_dir(str(directory), quiet=1)
    signal.signal(signal.SIGTERM, stop)
    try:
        generate(args.seed, WorkloadParams(**workload["params"]), work / "inputs")
        primed = None
        if workload["warm"]:
            primed = work / "primed-cache"
            prime = run_study(root, work, "prime", args.seed, False, primed, remaining())

        untraced: list[dict] = []
        traced: list[dict] = []
        span_files: list[Path] = []
        measure_start = time.perf_counter()
        durations: list[float] = []
        for i in itertools.count():
            enough = len(untraced) >= (2 if args.trace else MIN_RUNS) and (
                not args.trace or len(traced) >= 2
            )
            elapsed = time.perf_counter() - measure_start
            if enough and elapsed + statistics.median(durations) > args.seconds:
                break
            if time.perf_counter() - started > DEADLINE_S:
                raise RuntimeError(f"too few runs done after {DEADLINE_S} s")
            with_trace = bool(args.trace) and i % 2 == 1
            run_id = f"{i:03d}"
            cache = work / f"cache-{run_id}"
            if primed is not None:
                shutil.copytree(primed, cache)
            trace_path = work / f"trace-{run_id}.jsonl" if with_trace else None
            t0 = time.perf_counter()
            result = run_study(root, work, run_id, args.seed, workload["slow"], cache,
                               remaining(), trace_path)
            shutil.rmtree(cache)
            (traced if with_trace else untraced).append(result)
            if trace_path is not None:
                span_files.append(trace_path)
            durations.append(time.perf_counter() - t0)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        shutil.rmtree(work, ignore_errors=True)
        return fail(str(exc))
    except SystemExit:
        shutil.rmtree(work, ignore_errors=True)
        raise

    runs = untraced + traced
    problems = []
    for r in runs:
        problems += [f"check {name} failed" for name, ok in r["checks"].items() if not ok]
    shas = {r["reports_sha256"] for r in runs}
    if len(shas) != 1:
        problems.append(f"reports differ between runs: {sorted(shas)}")
    for key in ("provider_calls", "provider_calls_by_stage", "attempted", "failed"):
        if len({json.dumps(r[key], sort_keys=True) for r in runs}) != 1:
            problems.append(f"{key} differs between runs: {[r[key] for r in runs]}")
    if workload["warm"]:
        if any(r["provider_calls"] != 0 for r in runs):
            problems.append("warm-rerun reached the provider")
        if shas != {prime["reports_sha256"]}:
            problems.append("warm-rerun reports differ from the cold run's")
    elif runs[0]["provider_calls"] == 0:
        problems.append("cold run made no provider calls")

    base = untraced[0]
    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "study_s": [r["study_s"] for r in untraced],
        "study_cpu_s": [r["study_cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    end_to_end = {name: (statistics.median(values), UNITS[name]) for name, values in samples.items()}
    end_to_end["provider_calls"] = (base["provider_calls"], "count")
    end_to_end["failed_share"] = (base["failed"] / base["attempted"], "ratio")

    metrics = {}
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        traced_study_s = statistics.median(r["study_s"] for r in traced)
        layers["trace.overhead_s"] = traced_study_s - end_to_end["study_s"][0]
    else:
        layers = {name: value for name, (value, _) in end_to_end.items()}
    for entry in declared:
        if entry["name"] in layers:
            metrics[entry["name"]] = {"value": layers[entry["name"]], "unit": entry["unit"]}
        else:
            problems.append(f"metric {entry['name']} was not measured")

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced studies in {time.perf_counter() - measure_start:.1f} s")
    load = os.getloadavg()
    blas = " ".join(f"{v}={BLAS_THREADS}" for v in BLAS_VARS)
    print(f"env nproc={os.cpu_count()} python={base['python']} numpy={base['numpy']} "
          f"{blas} loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}")
    for name, (value, unit) in end_to_end.items():
        line = f"end_to_end {name} = {value:.6g} {unit}"
        if name in samples and len(samples[name]) > 1:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            line += f"  (median; quartiles {q1:.6g}..{q3:.6g}; n={len(samples[name])})"
        print(line)
    calls = base["provider_calls"]
    print("provider calls by stage: " + ", ".join(
        f"{name} {n}" + (f" ({n / calls:.1%})" if calls else "")
        for name, n in base["provider_calls_by_stage"].items() if n or not calls))
    print(f"operations attempted {base['attempted']}, failed {base['failed']}")
    for reason in base["failures"]:
        print(f"  failed: {reason}")
    if workload["slow"]:
        print(f"provider sleep p50 {base['sleep_ms_p50']:.3f} ms, p99 {base['sleep_ms_p99']:.3f} ms, "
              f"planned {base['sleep_planned_s']:.3f} s, max in flight {base['max_inflight']}")
    print(f"reports_sha256 {base['reports_sha256']}")
    if span_files:
        trace_out = work_root / f"trace-{args.workload}-s{args.seed}.jsonl"
        with open(trace_out, "w", encoding="utf-8") as fh:
            for path in span_files:
                fh.write(path.read_text(encoding="utf-8"))
        print(f"spans -> {trace_out}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": base["attempted"],
        "failed": base["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
