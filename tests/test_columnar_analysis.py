"""Columnar analysis read path: byte identity with the record path.

The contract under test (docs/PERFORMANCE.md, "The read path"): for every
dataset shape the pipeline produces — in-memory, single spill with many
sorted runs per kind, sharded spill, multi-period layout (including an
empty period), one session, no sessions at all — the vectorized
``repro.core.columnar_analysis`` pass returns *identical* results to the
record-object path: the same dicts in the same insertion order (asserted
via JSON serialization), the same ``FaultScoreReport`` structure down to
Counter key order and the formatted report text.

Also pins the ``analysis`` knob itself: ``auto`` resolution thresholds,
the ValueError on unknown names, the CLI choices, and the docs mentions
(mirroring the engine-registry lint in ``tests/test_docs_contract.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro._execution import (
    ANALYSIS_MODES,
    AUTO_COLUMNAR_MIN_SESSIONS,
    resolve_analysis,
)
from repro.api import run
from repro.core import columnar_analysis as ca
from repro.core.faultscore import score_fault_localization
from repro.core.localization import diagnose_dataset
from repro.core.qoe import summarize
from repro.core.streaming import (
    FaultScoreAccumulator,
    LocalizationAccumulator,
    QoeAccumulator,
    consume,
)
from repro.faults import FaultEvent, FaultSpec
from repro.obs import registry as obs_registry
from repro.obs import spans as obs_spans
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import SimulationConfig
from repro.telemetry.columnar import SPILL_KINDS
from repro.telemetry.spill import SpilledDataset, SpillWriter
from repro.telemetry.synth import synthesize_sharded, synthesize_spill

REPO_ROOT = Path(__file__).resolve().parent.parent


def _mixed_spec() -> FaultSpec:
    return FaultSpec(
        name="mixed",
        events=(
            FaultEvent("deg", "server-degraded", 0.0, 1e12, 8.0, server_fraction=0.5),
            FaultEvent("lat", "network-latency", 0.0, 1e12, 5.0, orgs=("Comcast",)),
            FaultEvent("rend", "client-render", 0.0, 1e12, 0.5, platforms=("Windows",)),
        ),
    )


@pytest.fixture(scope="module")
def faulted_dataset():
    """A simulated in-memory dataset with ground-truth labels of all layers."""
    config = SimulationConfig(n_sessions=150, warmup_sessions=50, seed=11)
    return run(config, faults=_mixed_spec()).dataset.sorted()


def _assert_reports_identical(columnar, records) -> None:
    # dataclass equality covers counts, per-class tallies, confusion values
    assert columnar == records
    # ...but dict equality ignores insertion order, which is part of the
    # serialization contract — pin it explicitly, Counter keys included
    assert list(columnar.classes) == list(records.classes)
    assert list(columnar.confusion) == list(records.confusion)
    for category in records.confusion:
        assert list(columnar.confusion[category]) == list(
            records.confusion[category]
        ), category
    assert columnar.format_report() == records.format_report()


def _assert_paths_identical(dataset) -> None:
    """Record path (streaming consume) vs one columnar pass: identical."""
    q_rec, loc_rec, fs_rec = consume(
        dataset, QoeAccumulator(), LocalizationAccumulator(), FaultScoreAccumulator()
    )
    out = ca.analyze_dataset(dataset)
    assert json.dumps(out["qoe"]) == json.dumps(q_rec)
    assert json.dumps(out["localization"]) == json.dumps(loc_rec)
    _assert_reports_identical(out["faultscore"], fs_rec)


class TestByteIdentity:
    def test_in_memory_faulted(self, faulted_dataset):
        _assert_paths_identical(faulted_dataset)
        # the public knob reaches the same results through each entry point
        q_rec = summarize(faulted_dataset, analysis="records")
        assert json.dumps(summarize(faulted_dataset, analysis="columnar")) == (
            json.dumps(q_rec)
        )
        loc_rec = diagnose_dataset(faulted_dataset, analysis="records")
        assert json.dumps(diagnose_dataset(faulted_dataset, analysis="columnar")) == (
            json.dumps(loc_rec)
        )
        _assert_reports_identical(
            score_fault_localization(faulted_dataset, analysis="columnar"),
            score_fault_localization(faulted_dataset, analysis="records"),
        )

    def test_spilled_multi_run(self, tmp_path):
        # >4096 sessions => several sorted runs per kind, exercising the
        # merge-order reconstruction of the blockwise planner
        spilled = synthesize_spill(
            tmp_path / "s", 10_000, seed=5, threshold_rows=2048
        )
        assert len(spilled.run_arrays("player_chunks")) >= 3
        _assert_paths_identical(spilled)

    def test_sharded_spill(self, tmp_path):
        spilled = synthesize_sharded(
            tmp_path / "sh", 600, 2, seed=9, threshold_rows=256
        )
        assert len(spilled.directories) == 2
        _assert_paths_identical(spilled)

    def test_multi_period_with_empty_period(self, tmp_path):
        synthesize_spill(tmp_path / "period-a", 300, seed=3, threshold_rows=256)
        SpillWriter(tmp_path / "period-b", threshold_rows=128).finalize()
        spilled = SpilledDataset([tmp_path / "period-a", tmp_path / "period-b"])
        _assert_paths_identical(spilled)

    def test_single_session(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "one", 1, seed=2)
        _assert_paths_identical(spilled)

    def test_empty_spill(self, tmp_path):
        SpillWriter(tmp_path / "empty", threshold_rows=128).finalize()
        spilled = SpilledDataset(tmp_path / "empty")
        out = ca.analyze_dataset(spilled)
        assert out["qoe"] == {"n_sessions": 0}
        assert out["localization"] == {}
        assert out["faultscore"].n_chunks == 0
        _assert_paths_identical(spilled)

    def test_forced_small_blocks(self, tmp_path, monkeypatch):
        # shrink the block budget so the 600-session spill needs many
        # blocks; identity must not depend on where block cuts fall
        spilled = synthesize_spill(tmp_path / "s", 600, seed=6, threshold_rows=512)
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 97)
        registry = MetricsRegistry()
        out = ca.analyze_dataset(spilled, metrics=registry)
        counters = registry.execution_snapshot()["counters"]
        assert counters["analysis.blocks_total"] > 5
        assert counters["analysis.sessions_total"] == 600
        q_rec, loc_rec, fs_rec = consume(
            spilled,
            QoeAccumulator(),
            LocalizationAccumulator(),
            FaultScoreAccumulator(),
        )
        assert json.dumps(out["qoe"]) == json.dumps(q_rec)
        assert json.dumps(out["localization"]) == json.dumps(loc_rec)
        _assert_reports_identical(out["faultscore"], fs_rec)


#: the CDN-side kinds a session without a player beacon can still have
_CDN_KINDS = ("cdn_sessions", "cdn_chunks", "tcp_snapshots", "ground_truth")


@pytest.fixture(scope="module")
def interleaved_spill(tmp_path_factory):
    """A simulated multi-run spill whose runs interleave sessions.

    The collector flushes a run every 64 rows in emission (time) order, so
    each run holds pieces of many sessions and blocks that span runs reach
    the merge (``synthesize_spill`` writes session-contiguous runs, which
    mostly do not).  A second directory holds CDN-side rows that only a
    correct merge puts in place:

    * CDN-only sessions: every third session's CDN rows again, with
      changed values, under the id ``<player id>x``, which byte-sorts
      between two player session ids and shares its neighbour's chunk
      ids;
    * re-delivered log lines: chunk-0 CDN and TCP rows of some sessions
      again, with changed values.  They must sort before the session's
      later chunks; a copy with an equal key sorts after the original
      (stability), one with an earlier ``t_ms`` before it.
    """
    root = tmp_path_factory.mktemp("interleaved")
    config = SimulationConfig(
        n_sessions=120,
        seed=4,
        spill_dir=str(root / "sim"),
        spill_threshold_rows=64,
    )
    simulated = run(config, faults=_mixed_spec()).dataset
    ids = [s.session_id for s in simulated.player_sessions]
    twins, resent, backdated = set(ids[::3]), set(ids[::5]), set(ids[2::5])
    writer = SpillWriter(root / "cdn-late", threshold_rows=64)

    def twin(record):
        # changed values, so that rows taken for the neighbour's show
        changed = {"session_id": record.session_id + "x"}
        if hasattr(record, "d_wait_ms"):
            changed["d_wait_ms"] = record.d_wait_ms + 500.0
        if hasattr(record, "cwnd_segments"):
            changed["cwnd_segments"] = 1
        return dataclasses.replace(record, **changed)

    for kind in _CDN_KINDS:
        writer.add_many(
            kind, [twin(r) for r in getattr(simulated, kind) if r.session_id in twins]
        )
    writer.add_many(
        "cdn_chunks",
        [
            dataclasses.replace(r, d_wait_ms=r.d_wait_ms + 250.0)
            for r in simulated.cdn_chunks
            if r.session_id in resent and r.chunk_id == 0
        ],
    )
    writer.add_many(
        "tcp_snapshots",
        [
            dataclasses.replace(r, srtt_ms=r.srtt_ms + 40.0)
            for r in simulated.tcp_snapshots
            if r.session_id in resent and r.chunk_id == 0
        ]
        + [
            # a collapsed window: the chunk's verdict changes if this
            # earlier copy is wrongly taken as the chunk's last snapshot
            dataclasses.replace(r, t_ms=r.t_ms - 0.5, cwnd_segments=1)
            for r in simulated.tcp_snapshots
            if r.session_id in backdated and r.chunk_id == 0
        ],
    )
    writer.finalize()
    return SpilledDataset([root / "sim", root / "cdn-late"])


class TestThreadedBlocks:
    """The integer-keyed run merge and the threaded pass vs the oracle."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_forced_small_blocks_match_oracle(
        self, interleaved_spill, monkeypatch, workers
    ):
        # several sessions per block even with the budget divided by 3, so
        # CDN-only ids fall inside blocks rather than between them
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 400)
        monkeypatch.setattr(ca, "_usable_cores", lambda: workers)
        merged_kinds = set()
        block = ca._BlockPlan.block

        def recording_block(plan, kind, i, kept=None):
            parts = [run[a[i] : b[i]] for run, a, b in plan.slices[kind] if b[i] > a[i]]
            if len(parts) > 1 and any(
                sid.endswith(b"x") for part in parts for sid in part["session_id"]
            ):
                merged_kinds.add(kind)
            return block(plan, kind, i, kept)

        monkeypatch.setattr(ca._BlockPlan, "block", recording_block)
        registry = MetricsRegistry()
        out = ca.analyze_dataset(interleaved_spill, metrics=registry)
        counters = registry.execution_snapshot()["counters"]
        assert counters["analysis.blocks_total"] > 5
        assert counters["analysis.sessions_total"] == 120
        # CDN-only rows reached a block that merges runs, in every
        # CDN-side kind
        assert merged_kinds >= set(_CDN_KINDS)
        q_rec, loc_rec, fs_rec = consume(
            interleaved_spill,
            QoeAccumulator(),
            LocalizationAccumulator(),
            FaultScoreAccumulator(),
        )
        assert json.dumps(out["qoe"]) == json.dumps(q_rec)
        assert json.dumps(out["localization"]) == json.dumps(loc_rec)
        _assert_reports_identical(out["faultscore"], fs_rec)

    def test_workers_open_no_spans_and_touch_no_counters(
        self, interleaved_spill, monkeypatch
    ):
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 97)
        monkeypatch.setattr(ca, "_usable_cores", lambda: 3)
        compute_threads, obs_threads = set(), set()
        compute = ca._compute_block
        inc = obs_registry.Counter.inc
        enter = obs_spans._SpanHandle.__enter__

        def recording_compute(*args):
            compute_threads.add(threading.get_ident())
            return compute(*args)

        def recording_inc(counter, n=1):
            obs_threads.add(threading.get_ident())
            return inc(counter, n)

        def recording_enter(handle):
            obs_threads.add(threading.get_ident())
            return enter(handle)

        monkeypatch.setattr(ca, "_compute_block", recording_compute)
        monkeypatch.setattr(obs_registry.Counter, "inc", recording_inc)
        monkeypatch.setattr(obs_spans._SpanHandle, "__enter__", recording_enter)
        registry = MetricsRegistry()
        ca.analyze_dataset(interleaved_spill, metrics=registry)
        main = threading.get_ident()
        assert compute_threads - {main}, "no block was computed on a worker thread"
        assert obs_threads == {main}
        blocks = registry.execution_snapshot()["counters"]["analysis.blocks_total"]
        (block_span,) = [
            s for s in registry.spans_snapshot() if s["name"] == "analysis.block"
        ]
        assert block_span["parent"] == "analysis.read"
        assert block_span["count"] == blocks

    def test_budget_divided_only_when_several_blocks(self, tmp_path, monkeypatch):
        spilled = synthesize_spill(tmp_path / "s", 600, seed=6, threshold_rows=512)
        widest = max(sum(map(len, spilled.run_arrays(kind))) for kind in SPILL_KINDS)

        def blocks(budget, workers):
            monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", budget)
            monkeypatch.setattr(ca, "_usable_cores", lambda: workers)
            registry = MetricsRegistry()
            ca.analyze_dataset(spilled, metrics=registry)
            return registry.execution_snapshot()["counters"]["analysis.blocks_total"]

        # one block at the full budget: the pass stays serial and whole
        assert blocks(widest + 100, 3) == 1
        # several blocks: the budget is divided into more, smaller blocks
        assert 1 < blocks(widest // 2, 1) < blocks(widest // 2, 3)

    def test_thread_pool_imported_lazily(self):
        # a module-level concurrent.futures import costs every program
        # start, including the ones that never analyse several blocks
        code = (
            "import sys, repro.api, repro.core.columnar_analysis; "
            "assert 'concurrent.futures' not in sys.modules"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestResolveAnalysis:
    def test_auto_prefers_columnar_for_spills(self):
        assert resolve_analysis("auto", n_sessions=1, spilled=True) == "columnar"

    def test_auto_threshold_on_session_count(self):
        at = AUTO_COLUMNAR_MIN_SESSIONS
        assert resolve_analysis("auto", n_sessions=at) == "columnar"
        assert resolve_analysis("auto", n_sessions=at - 1) == "records"

    def test_explicit_modes_pass_through(self):
        for mode in ("records", "columnar"):
            assert resolve_analysis(mode, n_sessions=0) == mode
            assert resolve_analysis(mode, n_sessions=10**6, spilled=True) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis"):
            resolve_analysis("vectorized", n_sessions=100)

    def test_duck_typed_dataset_stays_on_records(self):
        class FakeDataset:
            n_sessions = 10**6

        assert ca.resolve_analysis_mode(FakeDataset(), "auto") == "records"

    def test_spilled_dataset_resolves_columnar(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "s", 10, seed=1)
        assert ca.resolve_analysis_mode(spilled, "auto") == "columnar"

    def test_unknown_analysis_kind_rejected(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "s", 10, seed=1)
        with pytest.raises(ValueError, match="unknown analys"):
            ca.analyze_dataset(spilled, analyses=("qoe", "bogus"))


class TestAnalysisKnobContractSync:
    """The analysis knob is user-facing API: names must stay documented."""

    def test_every_mode_documented(self):
        performance = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text(
            encoding="utf-8"
        )
        for name in ANALYSIS_MODES:
            assert f'"{name}"' in performance or f"`{name}`" in performance, (
                f"analysis mode {name!r} not documented in docs/PERFORMANCE.md"
            )

    def test_cli_analysis_choices_match(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in (["analyze", "x"], ["faultscore", "x"]):
            args = parser.parse_args(command)
            assert args.analysis == "auto"
            for name in ANALYSIS_MODES:
                parsed = parser.parse_args(command + ["--analysis", name])
                assert parsed.analysis == name
