"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

Usage (from the root of a checkout)::

    python3 layerbench/selftest.py

Runs every workload untraced and traced through ``run.py --scale tiny``,
each in a fresh interpreter as the benchmark's caller runs it, and checks:

* the printed metric names and units equal ``BENCHMARK.json``'s;
* every run is correct (no failed check);
* each traced run's digest equals its untraced run's digest, and the
  ``batch`` digest equals the ``sharded`` digest (the serial/sharded-spill
  identity of docs/PARALLEL.md);
* every per-layer metric named for a workload is produced (non-zero), which
  catches a wrapper patched in the wrong namespace;
* per-unit attribution closes: the root span's time that no layer claims is
  at most ``CLOSURE_TOLERANCE`` of the unit;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  runner exits non-zero and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7

#: largest share of a traced unit's wall time left unattributed
CLOSURE_TOLERANCE = 0.05

_SIMULATED = [
    "workload.build_s",
    "cdn.serve_calls",
    "cdn.serve_self_s",
    "cdn.hit_ratio",
    "net.path.calls",
    "net.path.self_s",
    "net.tcp.transfer_calls",
    "net.tcp.transfer_self_s",
    "net.tcp.state_sample_self_s",
    "client.abr_self_s",
    "client.buffer_self_s",
    "client.downloadstack_self_s",
    "client.render_self_s",
    "simulation.self_s",
    "simulation.warmup_s",
    "simulation.period_s",
    "telemetry.collect_calls",
    "telemetry.collect_self_s",
    "telemetry.dataset_s",
    "telemetry.join_self_s",
]

#: per-layer metrics each workload must produce (README.md's table).
#: ``cdn.prefetch_calls`` is named nowhere: prefetching is off by default.
NAMED_LAYERS: Dict[str, List[str]] = {
    "batch": _SIMULATED
    + ["core.analyze_s", "core.analyze_blocks", "core.filter_s", "core.findings_s"],
    "sharded": [
        "workload.build_s",
        "simulation.self_s",
        "telemetry.spill_bytes",
        "telemetry.spill_runs",
        "telemetry.spill_open_s",
        "parallel.shard_wall_max_s",
        "parallel.shard_imbalance",
        "parallel.merge_s",
        "parallel.worker_rss_max_mb",
        "core.analyze_s",
        "core.analyze_blocks",
    ],
    "serve": _SIMULATED
    + [
        "serve.round_sim_s",
        "serve.diagnose_self_s",
        "serve.fold_self_s",
        "serve.seal_s",
        "serve.detect_s",
        "serve.windows_sealed",
        "serve.round_growth_x",
    ],
    "reanalyze": [
        "telemetry.spill_bytes",
        "telemetry.spill_runs",
        "telemetry.spill_open_s",
        "core.analyze_s",
        "core.analyze_blocks",
    ],
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "layerbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _last_json(stdout: str) -> Any:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main() -> int:
    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("  ok    " if ok else "  FAIL  ") + what)
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(workloads) == sorted(NAMED_LAYERS), f"workloads {workloads}")

    digests: Dict[str, Dict[int, str]] = {}
    for workload in workloads:
        for trace in (0, 1):
            print(f"{workload} trace={trace}")
            done = _run(ROOT, workload, trace)
            expect(done.returncode == 0, f"exit code {done.returncode}: {done.stderr[-2000:]}")
            if done.returncode != 0:
                continue
            result = _last_json(done.stdout)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared[trace], "metric names and units match BENCHMARK.json")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"correct, {result['attempted']} attempted, {result['failed']} failed",
            )
            record = json.loads(
                (BENCH_DIR / "results" / f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text()
            )
            digests.setdefault(workload, {})[trace] = record["record"]["digest"]
            if trace:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                missing = [n for n in NAMED_LAYERS[workload] if not values.get(n)]
                expect(not missing, f"named per-layer metrics produced (missing: {missing})")
                expect(values["parallel.retries"] == 0, "no shard retries")
                worst = max(record["unattributed_share"])
                expect(
                    worst <= CLOSURE_TOLERANCE,
                    f"attribution closes: worst unattributed share {worst:.4f} "
                    f"<= {CLOSURE_TOLERANCE}",
                )
        pair = digests.get(workload, {})
        expect(
            len(pair) == 2 and pair[0] == pair[1],
            f"{workload}: traced digest equals untraced digest",
        )
    expect(
        digests["batch"].get(0) == digests["sharded"].get(0),
        "batch digest equals sharded digest (serial/sharded-spill identity)",
    )

    print("benchmark alone, without the program")
    bare = BENCH_DIR / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            BENCH_DIR, bare / "layerbench",
            ignore=shutil.ignore_patterns("work", "results", "__pycache__"),
        )
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "batch", 0)
        expect(done.returncode != 0, f"exits non-zero (exit code {done.returncode})")
        expect(not done.stdout.strip(), "prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
