"""The live service core: continuous rounds, windows, online localization.

:class:`LiveService` is what ``repro serve`` runs: it owns a
:class:`~repro.simulation.driver.Simulator` on the checkpointed clock
(:meth:`~repro.simulation.driver.Simulator.run_round`), feeds each
round's joined sessions into the rolling windows and the streaming
accumulators of :mod:`repro.core.streaming`, runs the online incident
detector over every window the round sealed, and scores detections live
against the injected FaultSpec epochs.

Thread model: one writer (the round loop calling :meth:`step`), any
number of HTTP readers.  A single lock serializes steps against snapshot
reads; rounds are short, so readers block for milliseconds.  Everything
a reader sees is a deterministic function of (config, rounds stepped) —
two same-seed services stepped the same number of rounds serve
byte-identical ``/metrics`` and ``/windows`` payloads regardless of
polling, the service-mode extension of the determinism contract.

Memory stays flat in run duration by construction: per-round telemetry
is dropped after folding, sealed windows live in a bounded deque, the
cumulative accumulators hold O(1) state, and the trace ring keeps only
the newest ``max_trace_events`` events (docs/TELEMETRY.md budget model).
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Any, Dict, List, Optional

from .. import __version__
from ..core.localization import diagnose_session
from ..core.streaming import FaultScoreAccumulator, LocalizationAccumulator
from ..obs.manifest import MANIFEST_SCHEMA, MANIFEST_SCHEMA_VERSION, config_hash
from ..obs.trace import TRACE_SCHEMA, TraceEvent, event_json_line
from ..simulation.config import SimulationConfig
from ..simulation.driver import Simulator
from .online import FaultScoreboard, IncidentDetector
from .windows import RollingWindows

__all__ = ["LiveService"]


class LiveService:
    """Continuous arrivals + rolling windows + online localization."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        *,
        window_ms: float = 10_000.0,
        sessions_per_round: Optional[int] = None,
        retain_windows: int = 256,
        threshold: float = 0.6,
        min_chunks: int = 64,
        max_trace_events: int = 4096,
    ) -> None:
        self.config = config or SimulationConfig()
        self.window_ms = float(window_ms)
        if not (math.isfinite(self.window_ms) and self.window_ms > 0):
            raise ValueError(
                f"window_ms must be finite and positive, got {window_ms!r}"
            )
        self.sessions_per_round = (
            sessions_per_round
            if sessions_per_round is not None
            else self.config.n_sessions
        )
        if self.sessions_per_round <= 0:
            raise ValueError(
                f"sessions_per_round must be positive, got {sessions_per_round!r}"
            )
        self._lock = threading.Lock()
        self._sim = Simulator(self.config)
        self._windows = RollingWindows(window_ms, retain=retain_windows)
        self._detector = IncidentDetector(threshold=threshold, min_chunks=min_chunks)
        self._scoreboard = FaultScoreboard(
            self.config.faults, window_ms, min_chunks=min_chunks
        )
        self._localization = LocalizationAccumulator()
        self._faultscore = FaultScoreAccumulator()
        self._max_trace_events = int(max_trace_events)
        self._trace_ring: List[TraceEvent] = []
        self._rounds = 0
        self._n_sessions = 0
        self._n_chunks = 0
        self._measured_s = 0.0  # wall time spent inside step()
        self._started = time.time()

    # -- the round loop ------------------------------------------------------

    def step(self) -> Dict[str, Any]:
        """Run one arrival round end to end; returns a round summary."""
        started = time.perf_counter()
        with self._lock:
            with self._sim.metrics.span("serve.round"):
                result = self._sim.run_round(
                    self._rounds, n_sessions=self.sessions_per_round
                )
                round_sessions = round_chunks = 0
                for view in result.dataset.iter_sessions():
                    diagnosis = diagnose_session(view)
                    self._windows.fold(view, diagnosis)
                    self._localization.update(view, diagnosis=diagnosis)
                    self._faultscore.update(view, diagnosis=diagnosis)
                    round_sessions += 1
                    round_chunks += view.n_chunks
                sealed = self._windows.seal_through(self._sim.clock_ms)
                incidents_before = self._detector.n_opened
                for window in sealed:
                    flagged = self._detector.observe(window)
                    self._scoreboard.observe(window, flagged)
                self._drain_trace()
                self._rounds += 1
                self._n_sessions += round_sessions
                self._n_chunks += round_chunks
                metrics = self._sim.metrics
                metrics.counter("serve.rounds_total").inc()
                metrics.counter("serve.windows_sealed_total").inc(len(sealed))
                metrics.counter("serve.incidents_total").inc(
                    self._detector.n_opened - incidents_before
                )
            self._measured_s += time.perf_counter() - started
            return {
                "round": self._rounds - 1,
                "sessions": round_sessions,
                "chunks": round_chunks,
                "windows_sealed": len(sealed),
                "clock_ms": round(self._sim.clock_ms, 6),
                "incidents_open": self._detector.n_open,
            }

    def _drain_trace(self) -> None:
        """Move this round's trace events into the bounded ring."""
        trace = self._sim.trace
        if trace is None or trace.n_events == 0:
            return
        self._trace_ring.extend(trace.events())
        trace.adopt_sorted([])
        if len(self._trace_ring) > self._max_trace_events:
            del self._trace_ring[: -self._max_trace_events]

    def run_rounds(self, n: int) -> List[Dict[str, Any]]:
        """Step *n* rounds; returns the per-round summaries."""
        return [self.step() for _ in range(n)]

    # -- snapshots (HTTP plane reads) ----------------------------------------

    def metrics_document(self) -> Dict[str, Any]:
        """The deterministic ``/metrics`` payload (identity + registry).

        Same shape as a batch run's ``--metrics-out`` document, so
        ``repro metrics diff`` compares two service snapshots directly.
        """
        with self._lock:
            return {
                "manifest": {
                    "schema": MANIFEST_SCHEMA,
                    "schema_version": MANIFEST_SCHEMA_VERSION,
                    "package_version": __version__,
                    "seed": self.config.seed,
                    "config_hash": config_hash(self.config),
                    "n_sessions": self._n_sessions,
                    "n_chunks": self._n_chunks,
                },
                "metrics": self._sim.metrics.snapshot(),
            }

    def window_documents(self) -> List[Dict[str, Any]]:
        """Retained sealed window documents, oldest first."""
        with self._lock:
            return self._windows.sealed

    def incident_documents(self) -> List[Dict[str, Any]]:
        """Closed + open incident documents in incident-id order."""
        with self._lock:
            return self._detector.incidents()

    def trace_events(self) -> List[str]:
        """NDJSON lines of the trace ring, meta line first."""
        with self._lock:
            ring = list(self._trace_ring)
        meta = json.dumps(
            {"schema": TRACE_SCHEMA, "sample": self.config.trace_sample},
            sort_keys=True,
        )
        return [meta] + [event_json_line(event) for event in ring]

    def health_document(self) -> Dict[str, Any]:
        """Liveness + progress + live fault scoring (``/health``).

        The only endpoint carrying wall-clock (nondeterministic) fields:
        ``uptime_s`` and ``sessions_per_s``.
        """
        with self._lock:
            sealed_total = self._windows.n_sealed_total
            open_windows = self._windows.n_open
            scoreboard = self._scoreboard.summary()
            localization = self._localization.result()
            measured_s = self._measured_s
            return {
                "status": "ok",
                "schema_window": self._windows.sealed[0]["schema"]
                if self._windows.sealed
                else "repro.serve.window/1",
                "seed": self.config.seed,
                "config_hash": config_hash(self.config),
                "window_ms": self.window_ms,
                "rounds": self._rounds,
                "sessions": self._n_sessions,
                "chunks": self._n_chunks,
                "clock_ms": round(self._sim.clock_ms, 6),
                "windows_sealed": sealed_total,
                "windows_open": open_windows,
                "incidents": self._detector.n_opened,
                "localization": localization,
                "faultscore": scoreboard,
                "uptime_s": round(time.time() - self._started, 3),
                "sessions_per_s": (
                    round(self._n_sessions / measured_s, 3) if measured_s > 0 else 0.0
                ),
            }

    def faultscore_report(self):
        """The cumulative batch-style report (CLI exit summary)."""
        with self._lock:
            return self._faultscore.result()
