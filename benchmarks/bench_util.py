"""Helpers shared by the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, Optional

import numpy as np

from repro import obs
from repro.analysis.experiments import run_experiment
from repro.analysis.experiments.base import ExperimentResult
from repro.core.columnar_analysis import _usable_cores

#: The repo-root perf trajectory file (see docs/PERFORMANCE.md).
PERF_RECORD_PATH = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_perf.json")
)


def attach_observability(benchmark) -> None:
    """Record the last simulation's observability data in the bench JSON.

    Pulls the most recently completed run's metrics/span capture
    (:func:`repro.obs.last_run`) and stores a compact stage-level
    breakdown in ``benchmark.extra_info``, so BENCH_*.json trajectories
    carry per-stage counters and wall-clock spans alongside the timing
    numbers.  Zero-valued counters and histograms are dropped — the full
    key set is documented in docs/OBSERVABILITY.md, not re-serialized per
    bench.  A bench that only re-analyzes a cached dataset attributes its
    capture to the shared fixture simulation (the last one that ran in
    this process); benches that never simulated record nothing.
    """
    capture = obs.last_run()
    if capture is None:
        return
    metrics = capture["metrics"]
    benchmark.extra_info["obs_counters"] = {
        name: value for name, value in metrics["counters"].items() if value
    }
    benchmark.extra_info["obs_gauges"] = metrics["gauges"]
    benchmark.extra_info["obs_histograms"] = {
        name: payload
        for name, payload in metrics["histograms"].items()
        if payload["count"]
    }
    benchmark.extra_info["obs_spans"] = capture["spans"]


def span_totals() -> Dict[str, float]:
    """Per-phase wall-clock totals (seconds) from the last run's obs spans.

    Collapses the (name, parent) aggregate of :func:`repro.obs.last_run`
    down to per-phase totals — the breakdown BENCH_perf.json records for
    each timing entry.  Empty when no instrumented run has completed.
    """
    capture = obs.last_run()
    if capture is None:
        return {}
    totals: Dict[str, float] = {}
    for entry in capture["spans"]:
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["total_s"]
    return {name: round(total, 6) for name, total in sorted(totals.items())}


def provenance() -> Dict[str, Any]:
    """Where a perf record was measured: commit, interpreter, cores, host.

    ``git_sha``/``git_dirty`` are ``None`` outside a git checkout.
    ``usable_cores`` is the worker count the columnar read path uses
    (this process's CPU affinity), so read-path speed depends on it.
    """
    repo = os.path.dirname(PERF_RECORD_PATH)

    def git(*argv: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", *argv], cwd=repo, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "usable_cores": _usable_cores(),
        "platform": platform.platform(),
    }


def write_perf_record(
    scenario: str,
    wall_s: float,
    *,
    n_sessions: int,
    n_chunks: int,
    label: str = "run",
    path: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one timing record for *scenario* to ``BENCH_perf.json``.

    The file is the repo's perf-regression trajectory: a map from scenario
    name to the chronological list of recorded runs, each carrying the best
    wall time, derived throughput, and the per-phase breakdown from the obs
    spans (docs/OBSERVABILITY.md).  CI's perf-smoke job re-runs the pinned
    workload, appends its entry, and uploads the file as an artifact, so a
    hot-path regression shows up as a visible step in the time series.
    Every record carries its :func:`provenance`.
    """
    target = path or PERF_RECORD_PATH
    try:
        with open(target, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}
    record: Dict[str, Any] = {
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_s": round(wall_s, 4),
        "n_sessions": n_sessions,
        "n_chunks": n_chunks,
        "sessions_per_s": round(n_sessions / wall_s, 1),
        "chunks_per_s": round(n_chunks / wall_s, 1),
        "spans": span_totals(),
        "provenance": provenance(),
    }
    if extra:
        record.update(extra)
    payload.setdefault(scenario, []).append(record)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record


def run_and_report(benchmark, experiment_id: str, *args, **kwargs) -> ExperimentResult:
    """Benchmark one experiment run, assert its checks, print its report.

    ``rounds=1`` because an experiment is a batch analysis job, not a
    microbenchmark — we want its wall-clock cost and its output, not a
    timing distribution.
    """
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id, *args),
        kwargs=kwargs,
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    attach_observability(benchmark)
    print()
    print(result.format_report())
    assert result.all_checks_passed, result.format_report()
    return result
