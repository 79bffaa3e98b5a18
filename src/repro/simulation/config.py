"""Top-level simulation configuration.

One :class:`SimulationConfig` fully determines a simulated trace: the
catalog, client population, CDN deployment, server tuning, player policy,
and the operational extensions the paper proposes (pre-fetching,
first-chunk warming, popularity partitioning, server pacing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..cdn.mapping import VALID_STRATEGIES
from ..cdn.server import CdnServerConfig
from ..client.abr import ABR_NAMES
from ..faults.spec import FaultSpec
from ..workload.catalog import DEFAULT_BITRATE_LADDER_KBPS
from ..workload.clients import PopulationConfig
from .._execution import ENGINE_NAMES, EXECUTION_FIELD_NAMES, ExecutionOptions
from .shard import SHARD_MODES

__all__ = ["ExecutionOptions", "SimulationConfig"]


@dataclass
class SimulationConfig:
    """All knobs for one simulated collection period."""

    n_sessions: int = 2000
    #: sessions simulated before the measured window, telemetry discarded,
    #: to bring the CDN caches to steady state (the paper measures a
    #: long-running production system, not a cold fleet)
    warmup_sessions: int = 0
    seed: int = 7

    # -- workload -----------------------------------------------------------
    #: active catalog size.  The paper's full catalog is huge, but its
    #: *daily working set* (news clips) is small and request reuse is high;
    #: at simulation scale a compact active catalog is what reproduces the
    #: production cache-hit regime.  Popularity-only analyses (Fig. 3) use
    #: a full-size catalog directly via ``repro.workload.generate_catalog``.
    n_videos: int = 150
    zipf_alpha: float = 0.9
    bitrate_ladder_kbps: Tuple[int, ...] = DEFAULT_BITRATE_LADDER_KBPS
    arrival_rate_per_s: float = 30.0
    #: abandonment model (Fig. 11(a)): median and lognormal shape of the
    #: per-session watch-chunk draw.  The defaults reproduce the paper's
    #: session-length CDF; the skewed short-session workload shape
    #: (docs/SCENARIOS.md, after Grammenos et al.) pushes the median down.
    watch_median_chunks: float = 5.0
    watch_sigma_chunks: float = 0.9
    population: PopulationConfig = field(default_factory=PopulationConfig)

    # -- CDN ---------------------------------------------------------------
    n_servers: int = 85
    server: CdnServerConfig = field(default_factory=CdnServerConfig)
    mapping_strategy: str = "cache-focused"
    #: §4.1-2 extension: after a session's first miss, prefetch its
    #: subsequent chunks into the serving server's cache
    prefetch_after_miss: bool = False
    #: how many chunks ahead to prefetch when the extension is on
    prefetch_depth: int = 3
    #: §4.1-2 / §4.3-3 extension: pre-warm every server with the first
    #: chunk of each title it is responsible for
    warm_first_chunks: bool = False

    # -- player ---------------------------------------------------------------
    abr_name: str = "rate"
    abr_screen_outliers: bool = False
    max_buffer_ms: float = 18_000.0

    # -- network ---------------------------------------------------------------
    #: initial congestion window (segments); the pacing ablation (§4.2-3
    #: take-away) reduces slow-start burstiness by capping growth
    tcp_initial_cwnd: int = 10
    #: cap the slow-start doubling (paced server ≈ gentler ramp)
    tcp_paced: bool = False

    # -- telemetry ---------------------------------------------------------------
    record_ground_truth: bool = True

    # -- fault injection ---------------------------------------------------------
    #: seeded fault schedule applied inside the event loop; ground-truth
    #: labels are stamped into the telemetry (see docs/FAULTS.md).  Faults
    #: are workload-semantic: they change *what* is simulated, so they are
    #: part of the config hash, unlike the execution knobs below.
    faults: Optional[FaultSpec] = None

    # -- execution ---------------------------------------------------------------
    # These knobs choose *how* the trace is computed, never *what* it is:
    # under the default ``server`` sharding the telemetry is identical for
    # any worker count (see docs/PARALLEL.md for the determinism contract).
    #: worker processes; 1 = the classic in-process event loop
    workers: int = 1
    #: wall-clock budget per shard attempt (seconds); None = no timeout
    shard_timeout_s: Optional[float] = None
    #: shard partitioning mode: "server" (exact) or "session" (approximate)
    shard_by: str = "server"
    #: per-chunk causal tracing (docs/OBSERVABILITY.md, "Tracing"): the
    #: fraction of sessions traced, head-sampled by session-id hash so the
    #: sampled set is shard-independent.  0.0 (default) disables tracing
    #: entirely — no recorder is built and the hot path pays one ``is
    #: None`` check per chunk.  Observational, like the knobs above: the
    #: simulated workload and its telemetry are unchanged.
    trace_sample: float = 0.0
    #: telemetry memory mode (docs/TELEMETRY.md): None keeps records as
    #: in-memory Python objects (the classic Dataset); a directory path
    #: spills sorted columnar runs there and the run yields a
    #: bounded-memory SpilledDataset over identical records.  Sharded
    #: runs spill each worker into ``<spill_dir>/shard-<k>``.  Execution
    #: knob: the telemetry records themselves are byte-identical either
    #: way.
    spill_dir: Optional[str] = None
    #: rows buffered per record kind before the spill writer flushes one
    #: sorted run (the RSS-bound knob — see the budget model in
    #: docs/TELEMETRY.md)
    spill_threshold_rows: int = 262_144
    #: stepping engine (docs/PERFORMANCE.md, "Fleet engine"): "event" is
    #: the classic per-session event loop, "fleet" advances calm sessions
    #: in vectorized cohorts, "auto" (default) picks by session count.
    #: Execution knob: every engine emits byte-identical telemetry.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.n_sessions <= 0:
            raise ValueError("n_sessions must be positive")
        if self.warmup_sessions < 0:
            raise ValueError("warmup_sessions must be non-negative")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        if self.n_videos <= 0:
            raise ValueError("n_videos must be positive")
        if self.n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be non-negative")
        if self.max_buffer_ms <= 0:
            raise ValueError("max_buffer_ms must be positive")
        if self.watch_median_chunks <= 0:
            raise ValueError("watch_median_chunks must be positive")
        if self.watch_sigma_chunks < 0:
            raise ValueError("watch_sigma_chunks must be non-negative")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be within [0, 1]")
        if self.spill_threshold_rows <= 0:
            raise ValueError("spill_threshold_rows must be positive")
        # Stringly-typed knobs are validated against their registries here,
        # so a typo fails at construction with the valid values listed —
        # not hundreds of sessions into the run.
        if self.mapping_strategy not in VALID_STRATEGIES:
            raise ValueError(
                f"unknown mapping_strategy {self.mapping_strategy!r}; "
                f"choose from {VALID_STRATEGIES}"
            )
        if self.abr_name not in ABR_NAMES:
            raise ValueError(
                f"unknown abr_name {self.abr_name!r}; choose from {ABR_NAMES}"
            )
        if self.shard_by not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_by {self.shard_by!r}; choose from {SHARD_MODES}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec (or None), got {type(self.faults).__name__}"
            )

    @property
    def execution(self) -> ExecutionOptions:
        """The execution knobs as a typed immutable view.

        The fields are mirrored structurally from
        :class:`~repro.simulation.execution.ExecutionOptions`, which is
        also what the workload config hash excludes — adding an execution
        knob there keeps config, hash, and this view in sync by
        construction.
        """
        return ExecutionOptions(
            **{name: getattr(self, name) for name in EXECUTION_FIELD_NAMES}
        )

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """A copy with the given fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)
