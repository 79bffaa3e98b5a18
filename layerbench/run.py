"""Benchmark runner: one workload, one seed, fixed work, one result line.

Usage (from the root of a checkout)::

    python3 layerbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones (see ``layers.py``), plus the ratio of
traced to untraced unit wall time.  The unit count is a fixed function of
``--seconds``, so every commit measures the same work.  The last line of
standard output is the JSON result; a record with provenance is written to
``layerbench/results/``.  Without the program's sources next to this
directory the runner exits non-zero before printing any result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END: List[Tuple[str, str]] = [
    ("chunks_per_s", "chunks/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER: List[Tuple[str, str]] = [
    ("workload.build_s", "s"),
    ("cdn.serve_calls", "count"),
    ("cdn.serve_self_s", "s"),
    ("cdn.prefetch_calls", "count"),
    ("cdn.hit_ratio", "ratio"),
    ("net.path.calls", "count"),
    ("net.path.self_s", "s"),
    ("net.tcp.transfer_calls", "count"),
    ("net.tcp.transfer_self_s", "s"),
    ("net.tcp.state_sample_self_s", "s"),
    ("client.abr_self_s", "s"),
    ("client.buffer_self_s", "s"),
    ("client.downloadstack_self_s", "s"),
    ("client.render_self_s", "s"),
    ("simulation.self_s", "s"),
    ("simulation.warmup_s", "s"),
    ("simulation.period_s", "s"),
    ("telemetry.collect_calls", "count"),
    ("telemetry.collect_self_s", "s"),
    ("telemetry.dataset_s", "s"),
    ("telemetry.join_self_s", "s"),
    ("telemetry.spill_bytes", "bytes"),
    ("telemetry.spill_runs", "count"),
    ("telemetry.spill_open_s", "s"),
    ("parallel.shard_wall_max_s", "s"),
    ("parallel.shard_imbalance", "x"),
    ("parallel.merge_s", "s"),
    ("parallel.retries", "count"),
    ("parallel.worker_rss_max_mb", "MB"),
    ("core.analyze_s", "s"),
    ("core.analyze_blocks", "count"),
    ("core.filter_s", "s"),
    ("core.findings_s", "s"),
    ("serve.round_sim_s", "s"),
    ("serve.diagnose_self_s", "s"),
    ("serve.fold_self_s", "s"),
    ("serve.seal_s", "s"),
    ("serve.detect_s", "s"),
    ("serve.windows_sealed", "count"),
    ("serve.round_growth_x", "x"),
    ("obs.trace_overhead_x", "x"),
    ("obs.unattributed_share", "ratio"),
]

#: a percentile is reported only with this many samples beyond it
SAMPLES_BEYOND = 10


def percentile(values: List[float], q: float) -> Optional[float]:
    """The *q* quantile, or None without ``SAMPLES_BEYOND`` samples past it."""
    if round(len(values) * (1.0 - q), 9) < SAMPLES_BEYOND:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_values(
    workload: str, snap: Dict[str, Dict[str, float]], extras: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer values of one traced unit or set-up."""

    def calls(name: str) -> float:
        return float(snap.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return snap.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return snap.get(name, {}).get("total_s", 0.0)

    serves = calls("cdn.serve")
    values = {
        "workload.build_s": total_s("workload.build"),
        "cdn.serve_calls": serves,
        "cdn.serve_self_s": self_s("cdn.serve"),
        "cdn.prefetch_calls": calls("cdn.prefetch"),
        "cdn.hit_ratio": 1.0 - calls("cdn.miss") / serves if serves else 0.0,
        "net.path.calls": calls("net.path"),
        "net.path.self_s": self_s("net.path"),
        "net.tcp.transfer_calls": calls("net.tcp.transfer"),
        "net.tcp.transfer_self_s": self_s("net.tcp.transfer"),
        "net.tcp.state_sample_self_s": self_s("net.tcp.state_sample"),
        "client.abr_self_s": self_s("client.abr"),
        "client.buffer_self_s": self_s("client.buffer"),
        "client.downloadstack_self_s": self_s("client.downloadstack"),
        "client.render_self_s": self_s("client.render"),
        "simulation.self_s": self_s("simulation"),
        "telemetry.collect_calls": calls("telemetry.collect"),
        "telemetry.collect_self_s": self_s("telemetry.collect"),
        "telemetry.dataset_s": total_s("telemetry.dataset"),
        "telemetry.join_self_s": self_s("telemetry.join"),
        "telemetry.spill_open_s": total_s("telemetry.spill_open"),
        "core.analyze_s": total_s("core.analyze"),
        "core.filter_s": total_s("core.filter"),
        "core.findings_s": total_s("core.findings"),
        "serve.round_sim_s": total_s("simulation") if workload == "serve" else 0.0,
        "serve.diagnose_self_s": self_s("serve.diagnose"),
        "serve.fold_self_s": self_s("serve.fold"),
        "serve.seal_s": total_s("serve.seal"),
        "serve.detect_s": total_s("serve.detect"),
    }
    values.update(extras)
    return values


def _median_by_name(rows: List[Dict[str, float]]) -> Dict[str, float]:
    names = {name for row in rows for name in row}
    return {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}


def provenance(args: argparse.Namespace, counts: Dict[str, int]) -> Dict[str, Any]:
    import numpy

    sha: Optional[str] = None
    dirty: Optional[bool] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*argv: str) -> str:
            return subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()

        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": bool(args.trace),
        "tracemalloc": tracemalloc.is_tracing(),
        **counts,
    }


@contextlib.contextmanager
def patched(tracer: Any, workload: Any) -> Iterator[None]:
    """The workload's layer wrappers, installed for one traced block."""
    tracer.install(workload.patches(tracer))
    try:
        yield
    finally:
        tracer.remove()


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads
    from layers import ROOT as ROOT_SPAN, LayerTrace, NullTrace

    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    n_units = workloads.unit_count(args.workload, args.seconds, scale)
    n_setups = scale.setups
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, scale, ROOT, workdir)
        checks = workloads.Checks()
        # Traced runs alternate: even set-ups and units untraced, odd traced.
        tracer = LayerTrace() if args.trace else None
        untraced = NullTrace()
        setups: List[Dict[str, float]] = []
        setup_layers: List[Dict[str, float]] = []
        units: List[Any] = []
        unit_layers: List[Dict[str, float]] = []
        unattributed: List[float] = []
        # Set-ups run first, one at a time, so that a thrown-away set-up
        # never shares the process with the kept one (peak RSS).
        for index in range(n_setups):
            gc.collect()
            keep = index == n_setups - 1
            if tracer is not None and index % 2 == 1:
                with patched(tracer, workload):
                    sample = workload.setup(index, tracer, keep)
                extras = {k: v for k, v in sample.items() if k != "setup_s"}
                setup_layers.append(layer_values(args.workload, tracer.take(), extras))
            else:
                sample = workload.setup(index, untraced, keep)
            setups.append(sample)
        for index in range(n_units):
            # Start every unit from a collected heap, so that garbage left
            # by the previous unit is not collected on this unit's clock.
            gc.collect()
            if tracer is not None and index % 2 == 1:
                with patched(tracer, workload):
                    unit = workload.unit(index, tracer, checks)
                snap = tracer.take()
                root = snap[ROOT_SPAN]
                unattributed.append(root["self_s"] / root["total_s"])
                unit_layers.append(layer_values(args.workload, snap, unit.extras))
            else:
                unit = workload.unit(index, untraced, checks)
            units.append(unit)
            if index == 0 or workload.peak_over_run:
                peak_rss_mb = workload.peak_rss_mb()

        record = workload.finish(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [unit.wall_s for unit in units]
    if workload.identical_units:
        chunks_per_s = statistics.median(unit.chunks / unit.wall_s for unit in units)
    else:
        chunks_per_s = sum(unit.chunks for unit in units) / sum(walls)
    end_to_end = {
        "chunks_per_s": chunks_per_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(sample["setup_s"] for sample in setups),
    }
    per_layer: Dict[str, float] = {}
    if tracer is not None:
        from_units = _median_by_name(unit_layers)
        from_setups = _median_by_name(setup_layers) if setup_layers else {}
        for name, _unit in PER_LAYER:
            value = from_units.get(name, 0.0)
            # a layer that runs only during set-up is reported per set-up
            per_layer[name] = value if value else from_setups.get(name, 0.0)
        traced_walls = walls[1::2]
        per_layer["obs.trace_overhead_x"] = statistics.median(traced_walls) / statistics.median(
            walls[0::2]
        )
        per_layer["obs.unattributed_share"] = statistics.median(unattributed)
        if args.workload == "serve":
            tenth = max(1, len(walls) // 10)
            per_layer["serve.round_growth_x"] = statistics.median(
                walls[-tenth:]
            ) / statistics.median(walls[:tenth])
    rounds_ms = [wall * 1000.0 for wall in walls]
    latency = {}
    if args.workload == "serve":
        latency = {
            "round_ms_p50": percentile(rounds_ms, 0.5),
            "round_ms_p90": percentile(rounds_ms, 0.9),
        }
    counts = {"units": len(units), "setups": len(setups), "traced_units": len(unit_layers)}
    if args.workload == "serve":
        counts["rounds"] = len(units)
    return {
        "provenance": provenance(args, counts),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "serve_latency_ms": latency,
        "unit_wall_s": walls,
        "unit_chunks": [unit.chunks for unit in units],
        "unit_extras": [unit.extras for unit in units],
        "setup_s": [sample["setup_s"] for sample in setups],
        "unattributed_share": unattributed,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "record": record,
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["batch", "sharded", "serve", "reanalyze"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--scale", choices=["full", "tiny"], default="full",
        help="work size; 'tiny' is for the self-test",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if tracemalloc.is_tracing():
        print("layerbench: refusing to measure under tracemalloc", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"layerbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    started = time.time()
    result = measure(args)
    catalog = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in catalog}
    result["metrics"] = metrics
    result["elapsed_s"] = time.time() - started

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    record_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    prov = result["provenance"]
    print(
        f"layerbench {args.workload} seed={args.seed} trace={args.trace} "
        f"units={prov['units']} setups={prov['setups']} "
        f"python={prov['python']} numpy={prov['numpy']} nproc={prov['nproc']} "
        f"git={prov['git_sha'] or 'unknown'}{'+dirty' if prov['git_dirty'] else ''}"
    )
    for name, unit in catalog:
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    for name, value in result["serve_latency_ms"].items():
        shown = "n/a (too few rounds)" if value is None else f"{value:.6g} ms"
        print(f"  {name:<28} {shown} over {prov['units']} rounds")
    for key in ("detection", "calibrated_detection"):
        found = result["record"].get(key)
        if found is not None:
            print(
                f"  {key:<28} recall {found['recall']}, within one window "
                f"{found['within_one_window']}, {found['incidents']} incidents, "
                f"outside the epoch: {found['incidents_outside_epoch']}"
            )
    for failure in result["failures"]:
        print(f"  check failed: {failure}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
