"""The four benchmark workloads, built from fixed-work units.

Each unit does the same work on every run and on every commit, and every
program call the benchmark makes falls inside a timed unit or inside a
timed set-up.  Correctness checks run after the clock stops.  Workloads
drive the program only through its public API with default execution
settings; the per-layer wrappers they list in ``patches`` are installed
only around traced units (see ``layers.py``).

Importing this module imports the program, so ``run.py`` puts the
checkout's ``src`` directory on the path first.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro.serve.service as service_module
import repro.simulation.driver as driver_module
import repro.simulation.parallel as parallel_module
import repro.telemetry.dataset as dataset_module
from repro import obs
from repro.api import run
from repro.cdn.server import CdnServer
from repro.client.abr import AbrAlgorithm
from repro.client.buffer import PlaybackBuffer
from repro.client.downloadstack import DownloadStackModel
from repro.client.rendering import RenderingModel
from repro.core.columnar_analysis import analyze_dataset
from repro.core.proxy_filter import filter_proxies
from repro.core.report import evaluate_key_findings
from repro.core.streaming import FaultScoreAccumulator, LocalizationAccumulator
from repro.faults import FaultSpec
from repro.net.path import NetworkPath
from repro.net.tcp import TcpConnection
from repro.obs.registry import MetricsRegistry
from repro.serve.online import FaultScoreboard, IncidentDetector
from repro.serve.service import LiveService
from repro.serve.windows import RollingWindows
from repro.simulation.config import SimulationConfig
from repro.simulation.driver import Simulator
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.dataset import Dataset
from repro.telemetry.spill import SpilledDataset
from repro.telemetry.synth import synthesize_spill

from layers import ROOT, Patch

__all__ = ["Checks", "Scale", "FULL", "TINY", "Unit", "make_workload", "unit_count"]

@dataclass(frozen=True)
class Scale:
    """Work sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    #: measured sessions per batch/sharded unit (warmup is the same count)
    sessions: int
    #: measured serve rounds after the set-up round
    serve_rounds: int
    serve_sessions: int
    serve_warmup: int
    reanalyze_sessions: int
    #: spill flush threshold; low enough that every kind has >= 4 runs
    reanalyze_threshold_rows: int
    #: set-ups timed per run (median reported)
    setups: int
    #: nominal seconds per unit; the unit count is a fixed function of
    #: ``--seconds`` and these constants, never of measured time
    unit_s: Dict[str, float]


FULL = Scale(
    sessions=1500,
    serve_rounds=100,
    serve_sessions=150,
    serve_warmup=2000,
    reanalyze_sessions=50_000,
    reanalyze_threshold_rows=12_288,
    setups=3,
    unit_s={"batch": 5.0, "sharded": 5.0, "reanalyze": 3.3},
)
TINY = Scale(
    sessions=60,
    serve_rounds=12,
    serve_sessions=150,
    serve_warmup=2000,
    reanalyze_sessions=16_384,
    reanalyze_threshold_rows=4_096,
    setups=2,
    unit_s={},  # two units per workload: one untraced, one traced
)

BROWNOUT_SPEC = Path("examples") / "fault_live_brownout.json"
#: chunks a window needs to be scored (``LiveService``'s ``min_chunks``)
MIN_SCORABLE_CHUNKS = 64
#: tolerance on the localization fractions summing to one
SUM_TOLERANCE = 1e-9


@dataclass
class Unit:
    """One timed unit: wall time, chunks produced or analysed, extras."""

    wall_s: float
    chunks: int
    #: per-layer values measured outside the clock (counts, program spans)
    extras: Dict[str, float]


class Checks:
    """Correctness checks, each counted as one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_digest(analysis: Dict[str, Any]) -> str:
    """Digest of an ``analyze_dataset`` result (JSON + fault-score report)."""
    payload = json.dumps(
        {"qoe": analysis["qoe"], "localization": analysis["localization"]},
        sort_keys=True,
    )
    return _sha256(payload + "\n" + analysis["faultscore"].format_report())


def _blocks(registry: MetricsRegistry) -> float:
    return float(registry.execution_snapshot()["counters"]["analysis.blocks_total"])


def _span_totals(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["total_s"]
    return totals


def _spill_stats(directory: Path) -> Dict[str, float]:
    """Bytes and run count of every spill manifest under *directory*."""
    n_bytes = n_runs = 0
    for manifest_path in sorted(directory.rglob("spill.json")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in manifest["kinds"].values():
            for spill_run in entry["runs"]:
                n_runs += 1
                n_bytes += (manifest_path.parent / spill_run["file"]).stat().st_size
    return {"telemetry.spill_bytes": float(n_bytes), "telemetry.spill_runs": float(n_runs)}


def _min_runs_per_kind(directory: Path) -> int:
    manifest = json.loads((directory / "spill.json").read_text(encoding="utf-8"))
    return min(len(entry["runs"]) for entry in manifest["kinds"].values())


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _all_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_all_subclasses(sub))
    return found


def _count_misses(trace: Any):
    def hook(result: Any) -> Any:
        if result.status.value == "miss":
            trace.count("cdn.miss")
        return result

    return hook


def _timed_join(trace: Any):
    def hook(views: Any) -> Any:
        return trace.timed_iter(views, "telemetry.join")

    return hook


def simulation_patches(trace: Any) -> List[Patch]:
    """Entry points of the layers a simulated session runs through."""
    patches: List[Patch] = [
        (driver_module, "build_world", "workload.build", None),
        (CdnServer, "serve", "cdn.serve", _count_misses(trace)),
        (CdnServer, "prefetch", "cdn.prefetch", None),
        (NetworkPath, "sample_round", "net.path", None),
        (NetworkPath, "epoch_window", "net.path", None),
        (NetworkPath, "sample_rtt", "net.path", None),
        (TcpConnection, "transfer", "net.tcp.transfer", None),
        (TcpConnection, "state_sample", "net.tcp.state_sample", None),
        (PlaybackBuffer, "on_chunk_ready", "client.buffer", None),
        (PlaybackBuffer, "level_at", "client.buffer", None),
        (DownloadStackModel, "sample", "client.downloadstack", None),
        (RenderingModel, "render_chunk", "client.render", None),
        (TelemetryCollector, "dataset", "telemetry.dataset", None),
        (Dataset, "iter_sessions", "telemetry.join", None),
        (dataset_module, "iter_joined_sessions", "telemetry.join", _timed_join(trace)),
        (Dataset, "join_chunks", "telemetry.join", None),
        (SpilledDataset, "__init__", "telemetry.spill_open", None),
    ]
    for cls in _all_subclasses(AbrAlgorithm):
        for method in ("choose_bitrate", "observe"):
            if method in vars(cls):
                patches.append((cls, method, "client.abr", None))
    for method in sorted(vars(TelemetryCollector)):
        if method.startswith("add_"):
            patches.append((TelemetryCollector, method, "telemetry.collect", None))
    return patches


class Workload:
    """Base: a seeded workload with timed set-ups and fixed-work units."""

    name = ""
    #: False: peak RSS is read after the first unit, which is what one job
    #: of a user's process costs (later units only add allocator
    #: fragmentation, and forked workers inherit it); True: over the run
    peak_over_run = False
    #: True: units do identical work, and the rate is the median of the
    #: per-unit rates; False: units differ (serve rounds get dearer as the
    #: clock advances), and the rate is over the run's fixed set of units
    identical_units = True

    def __init__(self, seed: int, scale: Scale, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.root = root
        self.workdir = workdir
        self.digests: List[str] = []

    def patches(self, trace: Any) -> List[Patch]:
        raise NotImplementedError

    def setup(self, index: int, trace: Any, keep: bool) -> Dict[str, float]:
        """Time one set-up; returns ``{"setup_s": ..., <extras>}``.

        With *keep*, the set-up's state (a service, an input spill) is the
        one the units use; other set-ups are measured and thrown away.
        """
        raise NotImplementedError

    def unit(self, index: int, trace: Any, checks: Checks) -> Unit:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return _own_rss_mb()

    def finish(self, checks: Checks) -> Dict[str, Any]:
        """Run-level checks after the last unit; returns record fields."""
        raise NotImplementedError

    def _same_digest(self, digest: str, checks: Checks, what: str) -> None:
        self.digests.append(digest)
        checks.expect(digest == self.digests[0], f"{what} digest differs from unit 0")


class ImportSetup(Workload):
    """Set-up of the batch-style workloads: importing the program.

    A ``repro simulate``/``repro analyze`` user pays the import on every
    invocation, and nothing else happens before the first unit; world
    build and warmup stay inside the unit.  Each sample is a fresh
    interpreter that times its own import.
    """

    IMPORTS = (
        "repro.api, repro.core.columnar_analysis, repro.core.proxy_filter, "
        "repro.core.report"
    )

    def setup(self, index: int, trace: Any, keep: bool) -> Dict[str, float]:
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); "
            f"t = time.perf_counter(); import {self.IMPORTS}; "
            "print(time.perf_counter() - t)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(self.root / "src")],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return {"setup_s": float(done.stdout.strip().splitlines()[-1])}


class Batch(ImportSetup):
    name = "batch"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.findings: List[str] = []

    def patches(self, trace: Any) -> List[Patch]:
        return simulation_patches(trace)

    def unit(self, index: int, trace: Any, checks: Checks) -> Unit:
        n = self.scale.sessions
        config = SimulationConfig(n_sessions=n, warmup_sessions=n, seed=self.seed)
        registry = MetricsRegistry()
        with trace.span(ROOT):
            started = time.perf_counter()
            with trace.span("simulation"):
                result = run(config)
            with trace.span("core.analyze"):
                analysis = analyze_dataset(result.dataset, metrics=registry)
            with trace.span("core.filter"):
                filtered, _ = filter_proxies(result.dataset)
            with trace.span("core.findings"):
                findings = evaluate_key_findings(filtered)
            wall = time.perf_counter() - started

        self._same_digest(analysis_digest(analysis), checks, "analysis")
        self.findings.append(str(findings))
        checks.expect(self.findings[-1] == self.findings[0], "findings report differs from unit 0")
        total = sum(analysis["localization"].values())
        checks.expect(abs(total - 1.0) <= SUM_TOLERANCE, f"localization fractions sum to {total!r}")
        spans = _span_totals(result.metrics.spans_snapshot())
        return Unit(
            wall_s=wall,
            chunks=result.dataset.n_chunks,
            extras={
                "simulation.warmup_s": spans.get("driver.warmup", 0.0),
                "simulation.period_s": spans.get("driver.period", 0.0),
                "core.analyze_blocks": _blocks(registry),
            },
        )

    def finish(self, checks: Checks) -> Dict[str, Any]:
        return {
            "digest": self.digests[0],
            "findings_digest": _sha256(self.findings[0]),
        }


class Sharded(ImportSetup):
    name = "sharded"
    WORKERS = 2

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.worker_rss_mb: List[float] = []

    def patches(self, trace: Any) -> List[Patch]:
        # Parent-side entry points only: forked workers inherit every
        # patch and their counts never come back.
        return [
            (parallel_module, "build_world", "workload.build", None),
            (SpilledDataset, "__init__", "telemetry.spill_open", None),
        ]

    def unit(self, index: int, trace: Any, checks: Checks) -> Unit:
        n = self.scale.sessions
        spill_dir = self.workdir / f"spill-{index:03d}"
        config = SimulationConfig(
            n_sessions=n,
            warmup_sessions=n,
            seed=self.seed,
            workers=self.WORKERS,
            spill_dir=str(spill_dir),
        )
        registry = MetricsRegistry()
        with trace.span(ROOT):
            started = time.perf_counter()
            with trace.span("simulation"):
                result = run(config)
            run_wall = time.perf_counter() - started
            with trace.span("core.analyze"):
                analysis = analyze_dataset(result.dataset, metrics=registry)
            wall = time.perf_counter() - started

        self._same_digest(analysis_digest(analysis), checks, "analysis")
        reports = result.shard_reports
        checks.expect(len(reports) == self.WORKERS, f"{len(reports)} shard reports")
        for report in reports:
            checks.expect(
                report.succeeded and report.retries == 0,
                f"shard {report.shard_index}: succeeded={report.succeeded} "
                f"retries={report.retries}",
            )
        chunks = result.dataset.n_chunks
        extras = _spill_stats(spill_dir)
        shutil.rmtree(spill_dir)
        checks.expect(not spill_dir.exists(), f"{spill_dir} not removed")

        walls = [report.wall_time_s for report in reports]
        rss = [report.peak_rss_bytes / 2**20 for report in reports]
        self.worker_rss_mb.append(sum(rss))
        extras.update(
            {
                "parallel.shard_wall_max_s": max(walls),
                "parallel.shard_imbalance": max(walls) / (sum(walls) / len(walls)),
                "parallel.merge_s": run_wall - max(walls),
                "parallel.retries": float(sum(r.retries for r in reports)),
                "parallel.worker_rss_max_mb": max(rss),
                "core.analyze_blocks": _blocks(registry),
            }
        )
        return Unit(wall_s=wall, chunks=chunks, extras=extras)

    def peak_rss_mb(self) -> float:
        """The parent's peak plus the summed worker peaks of the last unit."""
        return _own_rss_mb() + self.worker_rss_mb[-1]

    def finish(self, checks: Checks) -> Dict[str, Any]:
        return {
            "digest": self.digests[0],
            "parent_rss_mb": _own_rss_mb(),
            "worker_rss_sum_mb": self.worker_rss_mb,
        }


class Serve(Workload):
    """``repro serve`` defaults with the live brownout spec.

    The set-up is ``LiveService(config)`` plus its first ``step()`` (world,
    fleet, warmup, round 0): the time to the first sealed window.  Units
    are the following rounds of the last set-up's service, a fixed count;
    the earlier set-ups build services that are measured and dropped.

    The checks at the run's seed are identities of the window stream, the
    fault scoreboard and the localization.  How well the detector finds
    the brownout depends on the seed (README.md, defect 4), so at the
    run's seed it is recorded, and it is checked against the full bar on
    the scenario the spec is calibrated for (``CALIBRATED_SEED``).
    """

    name = "serve"
    peak_over_run = True
    identical_units = False
    WINDOW_MS = 10_000.0
    #: the seed ``examples/fault_live_brownout.json`` is calibrated at
    CALIBRATED_SEED = 7
    #: rounds of the calibrated scenario (tests/test_serve.py's acceptance)
    CALIBRATED_ROUNDS = 8

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.service: Optional[LiveService] = None
        self.spec = FaultSpec.load(self.root / BROWNOUT_SPEC)
        (self.event,) = self.spec.events
        self._period_s = 0.0
        self._last_window = -1
        self._windows_seen = 0
        self._scorable_in_epoch = 0
        self._setup_problems: List[str] = []

    def _config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(
            seed=seed,
            n_sessions=self.scale.serve_sessions,
            warmup_sessions=self.scale.serve_warmup,
            trace_sample=0.05,
            faults=self.spec,
        )

    def patches(self, trace: Any) -> List[Patch]:
        return simulation_patches(trace) + [
            (Simulator, "run_round", "simulation", None),
            (service_module, "diagnose_session", "serve.diagnose", None),
            (RollingWindows, "fold", "serve.fold", None),
            (LocalizationAccumulator, "update", "serve.fold", None),
            (FaultScoreAccumulator, "update", "serve.fold", None),
            (RollingWindows, "seal_through", "serve.seal", None),
            (IncidentDetector, "observe", "serve.detect", None),
            (FaultScoreboard, "observe", "serve.detect", None),
        ]

    def _program_spans(self) -> Dict[str, float]:
        return _span_totals(obs.last_run()["spans"])

    def _scan_windows(self, windows: List[Dict[str, Any]]) -> List[str]:
        """Identities of newly sealed windows; returns what does not hold.

        Windows are sealed once each, in order, on the window grid; the
        verdicts, servers and orgs of a window each account for all of its
        chunks; and no window well clear of the epoch carries its
        ground-truth label (a chunk is labelled when the server handles
        it, which can be just after it was requested, hence one window of
        slack before the onset).
        """
        event, width = self.event, self.WINDOW_MS
        problems: List[str] = []
        for window in windows:
            index, n_chunks = window["index"], window["n_chunks"]
            where = f"window {index}"
            if index <= self._last_window:
                problems.append(f"{where} sealed after window {self._last_window}")
            self._last_window = index
            self._windows_seen += 1
            if (window["start_ms"], window["end_ms"]) != (index * width, (index + 1) * width):
                problems.append(f"{where} spans {window['start_ms']}..{window['end_ms']}")
            for part in ("bottlenecks", "servers", "orgs"):
                counts = window[part].values()
                total = sum(c if part == "bottlenecks" else c["chunks"] for c in counts)
                if total != n_chunks:
                    problems.append(f"{where}: {part} count {total} chunks of {n_chunks}")
            clear = window["start_ms"] >= event.end_ms or window["end_ms"] + width <= event.start_ms
            if clear and window["fault_labels"]:
                problems.append(f"{where} outside the epoch has labels {window['fault_labels']}")
            overlaps = window["start_ms"] < event.end_ms and window["end_ms"] > event.start_ms
            if overlaps and n_chunks >= MIN_SCORABLE_CHUNKS:
                self._scorable_in_epoch += 1
        return problems

    def _new_windows(self, service: LiveService, n_sealed: int) -> List[Dict[str, Any]]:
        return service.window_documents()[-n_sealed:] if n_sealed else []

    def setup(self, index: int, trace: Any, keep: bool) -> Dict[str, float]:
        config = self._config(self.seed)
        with trace.span("setup"):
            started = time.perf_counter()
            service = LiveService(config, window_ms=self.WINDOW_MS)
            summary = service.step()
            wall = time.perf_counter() - started
        spans = self._program_spans()
        if keep:
            self.service = service
            self._period_s = spans.get("driver.period", 0.0)
            self._setup_problems = self._scan_windows(
                self._new_windows(service, summary["windows_sealed"])
            )
        return {"setup_s": wall, "simulation.warmup_s": spans.get("driver.warmup", 0.0)}

    def unit(self, index: int, trace: Any, checks: Checks) -> Unit:
        service = self.service
        with trace.span(ROOT):
            started = time.perf_counter()
            summary = service.step()
            wall = time.perf_counter() - started
        period_s = self._program_spans().get("driver.period", 0.0)
        problems = self._scan_windows(self._new_windows(service, summary["windows_sealed"]))
        checks.expect(not problems, f"round {summary['round']}: {problems[:3]}")
        extras = {
            "simulation.period_s": period_s - self._period_s,
            "serve.windows_sealed": float(summary["windows_sealed"]),
        }
        self._period_s = period_s
        return Unit(wall_s=wall, chunks=summary["chunks"], extras=extras)

    def _detection(self, service: LiveService) -> Dict[str, Any]:
        """How the live detector did on the brownout epoch."""
        event = self.event
        score = service.health_document()["faultscore"]
        incidents = service.incident_documents()
        outside = [
            doc["incident_id"]
            for doc in incidents
            if not event.start_ms <= doc["start_ms"] <= event.end_ms
        ]
        return {
            "within_one_window": score["detected_within_one_window"],
            "recall": score["recall"],
            "incidents": len(incidents),
            "incidents_outside_epoch": outside,
            "blamed": [doc["blamed"] for doc in incidents],
        }

    def _check_calibrated(self, checks: Checks) -> Dict[str, Any]:
        """The brownout acceptance bar on the spec's calibrated scenario."""
        service = LiveService(self._config(self.CALIBRATED_SEED), window_ms=self.WINDOW_MS)
        service.run_rounds(self.CALIBRATED_ROUNDS)
        found = self._detection(service)
        what = f"seed {self.CALIBRATED_SEED}, {self.CALIBRATED_ROUNDS} rounds"
        checks.expect(found["within_one_window"], f"{what}: brownout not flagged within one window")
        checks.expect(found["recall"] == 1.0, f"{what}: live window recall {found['recall']} < 1.0")
        checks.expect(found["incidents"] > 0, f"{what}: no incident opened")
        checks.expect(
            not found["incidents_outside_epoch"],
            f"{what}: incidents {found['incidents_outside_epoch']} opened outside the epoch",
        )
        checks.expect(
            all(blamed.startswith("server:") for blamed in found["blamed"]),
            f"{what}: incidents blame {found['blamed']}",
        )
        return found

    def finish(self, checks: Checks) -> Dict[str, Any]:
        service = self.service
        health = service.health_document()
        checks.expect(not self._setup_problems, f"set-up round: {self._setup_problems[:3]}")
        checks.expect(
            health["windows_sealed"] == self._windows_seen,
            f"{health['windows_sealed']} windows sealed, {self._windows_seen} seen",
        )
        (scored,) = health["faultscore"]["events"]
        checks.expect(
            scored["windows_total"] == self._scorable_in_epoch,
            f"scoreboard counts {scored['windows_total']} epoch windows, "
            f"the stream has {self._scorable_in_epoch}",
        )
        total = sum(health["localization"].values())
        checks.expect(abs(total - 1.0) <= SUM_TOLERANCE, f"localization fractions sum to {total!r}")
        incidents = service.incident_documents()
        checks.expect(
            len({doc["incident_id"] for doc in incidents}) == len(incidents) == health["incidents"],
            f"{len(incidents)} incident documents, {health['incidents']} opened",
        )
        for doc in incidents:
            checks.expect(
                doc["windows"] >= 1 and (doc["open"] or doc["start_ms"] < doc["end_ms"]),
                f"incident {doc['incident_id']}: {doc['windows']} windows, "
                f"{doc['start_ms']}..{doc['end_ms']}",
            )
        windows = "\n".join(json.dumps(doc, sort_keys=True) for doc in service.window_documents())
        return {
            "digest": _sha256(windows),
            "windows_sealed": health["windows_sealed"],
            "clock_ms": health["clock_ms"],
            "detection": self._detection(service),
            "calibrated_detection": self._check_calibrated(checks),
        }


class Reanalyze(Workload):
    """Columnar analysis passes over a synthetic multi-run spill.

    The set-up synthesizes the 50k-session input (the last sample is the
    input the units read; earlier samples go to throwaway directories).
    """

    name = "reanalyze"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.input_dir = self.workdir / "input"
        self.spill_extras: Dict[str, float] = {}

    def patches(self, trace: Any) -> List[Patch]:
        return [(SpilledDataset, "__init__", "telemetry.spill_open", None)]

    def setup(self, index: int, trace: Any, keep: bool) -> Dict[str, float]:
        target = self.input_dir if keep else self.workdir / f"setup-{index}"
        scale = self.scale
        with trace.span("setup"):
            started = time.perf_counter()
            synthesize_spill(
                target,
                scale.reanalyze_sessions,
                seed=self.seed,
                threshold_rows=scale.reanalyze_threshold_rows,
            )
            wall = time.perf_counter() - started
        if keep:
            self.spill_extras = _spill_stats(target)
            self.min_runs = _min_runs_per_kind(target)
        else:
            shutil.rmtree(target)
        return {"setup_s": wall}

    def unit(self, index: int, trace: Any, checks: Checks) -> Unit:
        registry = MetricsRegistry()
        with trace.span(ROOT):
            started = time.perf_counter()
            dataset = SpilledDataset(self.input_dir)
            with trace.span("core.analyze"):
                analysis = analyze_dataset(dataset, metrics=registry)
            wall = time.perf_counter() - started
        self._same_digest(analysis_digest(analysis), checks, "analysis")
        extras = dict(self.spill_extras)
        extras["core.analyze_blocks"] = _blocks(registry)
        return Unit(wall_s=wall, chunks=dataset.n_chunks, extras=extras)

    def finish(self, checks: Checks) -> Dict[str, Any]:
        checks.expect(self.min_runs >= 4, f"a spill kind has only {self.min_runs} runs")
        spilled = SpilledDataset(self.input_dir)
        in_memory = analysis_digest(analyze_dataset(spilled.to_dataset()))
        checks.expect(
            in_memory == self.digests[0],
            "spilled analysis differs from analyze_dataset(spilled.to_dataset())",
        )
        return {"digest": self.digests[0], "min_runs_per_kind": self.min_runs}


_CLASSES = {cls.name: cls for cls in (Batch, Sharded, Serve, Reanalyze)}


def make_workload(name: str, seed: int, scale: Scale, root: Path, workdir: Path) -> Workload:
    return _CLASSES[name](seed, scale, root, workdir)


def unit_count(name: str, seconds: int, scale: Scale) -> int:
    """Fixed units per run: a function of ``--seconds`` and constants only."""
    if name == "serve":
        return scale.serve_rounds
    if name not in scale.unit_s:
        return 2
    return max(3, round(seconds / scale.unit_s[name]))
