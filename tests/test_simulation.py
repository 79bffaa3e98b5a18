"""Unit and integration tests for the simulation layer."""

import numpy as np
import pytest

from repro.cdn.cache import CacheStatus
from repro.simulation.config import SimulationConfig
from repro.simulation.controlled import run_controlled_rendering_experiment
from repro.simulation.driver import Simulator, simulate
from repro.simulation.engine import EventLoop


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(30.0, lambda t: order.append(("b", t)))
        loop.schedule(10.0, lambda t: order.append(("a", t)))
        loop.schedule(20.0, lambda t: order.append(("m", t)))
        end = loop.run()
        assert [name for name, _ in order] == ["a", "m", "b"]
        assert end == 30.0
        assert loop.events_processed == 3

    def test_ties_fifo(self):
        loop = EventLoop()
        order = []
        loop.schedule(5.0, lambda t: order.append("first"))
        loop.schedule(5.0, lambda t: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        seen = []

        def chain(t):
            seen.append(t)
            if len(seen) < 3:
                loop.schedule(t + 10.0, chain)

        loop.schedule(0.0, chain)
        loop.run()
        assert seen == [0.0, 10.0, 20.0]

    def test_scheduling_in_past_rejected(self):
        loop = EventLoop()

        def bad(t):
            loop.schedule(t - 1.0, lambda _: None)

        loop.schedule(10.0, bad)
        with pytest.raises(ValueError):
            loop.run()

    def test_until_bound(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda t: seen.append(t))
        loop.schedule(100.0, lambda t: seen.append(t))
        loop.run(until_ms=50.0)
        assert seen == [1.0]
        assert len(loop) == 1


class TestConfig:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.n_sessions > 0

    def test_with_overrides(self):
        config = SimulationConfig().with_overrides(n_sessions=5, seed=99)
        assert config.n_sessions == 5
        assert config.seed == 99

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_sessions=0)
        with pytest.raises(ValueError):
            SimulationConfig(n_videos=0)
        with pytest.raises(ValueError):
            SimulationConfig(prefetch_depth=-1)
        with pytest.raises(ValueError):
            SimulationConfig(max_buffer_ms=0.0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_sessions"):
            SimulationConfig(warmup_sessions=-1)
        assert SimulationConfig(warmup_sessions=0).warmup_sessions == 0


class TestEmptyPeriodClock:
    """A period without sessions leaves the checkpointed clock where it was."""

    @pytest.mark.parametrize("engine", ["event", "fleet"])
    def test_empty_run_keeps_clock(self, engine):
        sim = Simulator(SimulationConfig(n_sessions=40, seed=3, engine=engine))
        sim.run()
        end_ms = sim.clock_ms
        assert end_ms > 0
        sim.run(n_sessions=0)
        assert sim.clock_ms == end_ms

    @pytest.mark.parametrize("engine", ["event", "fleet"])
    def test_empty_round_keeps_clock(self, engine):
        sim = Simulator(SimulationConfig(n_sessions=40, seed=3, engine=engine))
        sim.run_round(0)
        end_ms = sim.clock_ms
        sim.run_round(1, n_sessions=0)
        assert sim.clock_ms == end_ms
        sim.run_round(2)
        assert sim.clock_ms > end_ms


class TestDriver:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return simulate(SimulationConfig(n_sessions=150, warmup_sessions=150, seed=21))

    def test_all_sessions_recorded(self, tiny_result):
        assert tiny_result.dataset.n_sessions == 150

    def test_every_session_has_both_sides(self, tiny_result):
        player_ids = {s.session_id for s in tiny_result.dataset.player_sessions}
        cdn_ids = {s.session_id for s in tiny_result.dataset.cdn_sessions}
        assert player_ids == cdn_ids

    def test_chunk_counts_match_plan(self, tiny_result):
        sessions = tiny_result.dataset.sessions()
        assert all(s.n_chunks >= 1 for s in sessions)
        assert sum(s.n_chunks for s in sessions) == tiny_result.dataset.n_chunks

    def test_chunk_ids_contiguous(self, tiny_result):
        for session in tiny_result.dataset.sessions():
            ids = [c.chunk_id for c in session.chunks]
            assert ids == list(range(len(ids)))

    def test_every_chunk_has_tcp_snapshot(self, tiny_result):
        for session in tiny_result.dataset.sessions():
            for chunk in session.chunks:
                assert len(chunk.tcp) >= 1  # §2.1: at least one per chunk

    def test_timing_decomposition_consistent(self, tiny_result):
        """Player D_FB must exceed the CDN's recorded server latency."""
        for chunk in tiny_result.dataset.join_chunks():
            assert chunk.player.dfb_ms > chunk.cdn.total_server_ms

    def test_ground_truth_parallel_to_chunks(self, tiny_result):
        truth_keys = {(t.session_id, t.chunk_id) for t in tiny_result.dataset.ground_truth}
        chunk_keys = {
            (c.session_id, c.chunk_id) for c in tiny_result.dataset.player_chunks
        }
        assert truth_keys == chunk_keys

    def test_reproducible(self):
        config = SimulationConfig(n_sessions=40, seed=33)
        a = simulate(config).dataset
        b = simulate(config).dataset
        assert [c.dfb_ms for c in a.player_chunks] == [c.dfb_ms for c in b.player_chunks]
        assert [c.cache_status for c in a.cdn_chunks] == [
            c.cache_status for c in b.cdn_chunks
        ]

    def test_seed_changes_output(self):
        a = simulate(SimulationConfig(n_sessions=40, seed=1)).dataset
        b = simulate(SimulationConfig(n_sessions=40, seed=2)).dataset
        assert [c.dfb_ms for c in a.player_chunks] != [c.dfb_ms for c in b.player_chunks]

    def test_warmup_improves_hit_ratio(self):
        cold = simulate(SimulationConfig(n_sessions=200, warmup_sessions=0, seed=5))
        warm = simulate(SimulationConfig(n_sessions=200, warmup_sessions=1000, seed=5))

        def miss_fraction(result):
            chunks = result.dataset.cdn_chunks
            return np.mean([c.cache_status == "miss" for c in chunks])

        assert miss_fraction(warm) < miss_fraction(cold)

    def test_warm_first_chunks_reduces_first_chunk_misses(self):
        base = SimulationConfig(n_sessions=200, warmup_sessions=0, seed=6)
        plain = simulate(base)
        warmed = simulate(base.with_overrides(warm_first_chunks=True))

        def first_chunk_miss(result):
            return np.mean(
                [
                    c.cache_status == "miss"
                    for c in result.dataset.cdn_chunks
                    if c.chunk_id == 0
                ]
            )

        assert first_chunk_miss(warmed) < first_chunk_miss(plain)

    def test_prefetch_reduces_followup_misses(self):
        base = SimulationConfig(n_sessions=300, warmup_sessions=0, seed=7)
        plain = simulate(base)
        prefetching = simulate(
            base.with_overrides(prefetch_after_miss=True, prefetch_depth=4)
        )

        def later_chunk_miss(result):
            return np.mean(
                [
                    c.cache_status == "miss"
                    for c in result.dataset.cdn_chunks
                    if c.chunk_id > 0
                ]
            )

        assert later_chunk_miss(prefetching) < later_chunk_miss(plain)

    def test_mapping_strategy_plumbs(self):
        config = SimulationConfig(
            n_sessions=100, seed=8, mapping_strategy="popularity-partitioned"
        )
        result = simulate(config)
        assert result.dataset.n_sessions == 100

    def test_fleet_miss_ratio_in_range(self, tiny_result):
        assert 0.0 <= tiny_result.fleet_miss_ratio <= 1.0

    def test_run_continues_cache_state(self):
        simulator = Simulator(SimulationConfig(n_sessions=100, seed=9))
        first = simulator.run()
        second = simulator.run()

        def miss_fraction(result):
            return np.mean(
                [c.cache_status == "miss" for c in result.dataset.cdn_chunks]
            )

        # the second period reuses warmed caches
        assert miss_fraction(second) < miss_fraction(first)


class TestSessionActorBehaviour:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(SimulationConfig(n_sessions=400, warmup_sessions=400, seed=13))

    def test_abr_adapts_upwards(self, result):
        """Sessions should not stay at the startup rung when bandwidth allows."""
        bitrates = [
            c.bitrate_kbps for c in result.dataset.player_chunks if c.chunk_id >= 2
        ]
        assert np.mean([b >= 1750 for b in bitrates]) > 0.3

    def test_first_chunk_dfb_higher(self, result):
        first = [c.dfb_ms for c in result.dataset.player_chunks if c.chunk_id == 0]
        later = [c.dfb_ms for c in result.dataset.player_chunks if c.chunk_id == 2]
        assert np.median(first) > np.median(later)

    def test_request_pacing_respects_buffer(self, result):
        """Requests should be roughly chunk-duration-spaced in steady state."""
        for session in result.dataset.sessions():
            if session.n_chunks < 6:
                continue
            sends = [c.player.request_sent_ms for c in session.chunks]
            gaps = np.diff(sends)
            # after the buffer fills, gaps approach the 6 s chunk duration
            assert np.median(gaps[3:]) > 2000.0
            break

    def test_rebuffering_exists_but_rare(self, result):
        sessions = result.dataset.sessions()
        fraction = np.mean([s.total_rebuffer_ms > 0 for s in sessions])
        assert 0.0 < fraction < 0.15

    def test_cache_statuses_all_present(self, result):
        statuses = {c.cache_status for c in result.dataset.cdn_chunks}
        assert statuses == {"hit_ram", "hit_disk", "miss"}

    def test_visibility_recorded(self, result):
        flags = [c.visible for c in result.dataset.player_chunks]
        assert 0.8 < np.mean(flags) <= 1.0


class TestControlledExperiment:
    def test_gpu_then_increasing_cpu_levels(self):
        result = run_controlled_rendering_experiment(n_trials=10, seed=1)
        assert result.labels[0] == "GPU"
        assert len(result.dropped_pct) == len(result.labels)
        assert result.dropped_pct[0] < 1.5

    def test_load_monotonic_trend(self):
        result = run_controlled_rendering_experiment(n_trials=20, seed=2)
        software = result.dropped_pct[1:]
        assert software[-1] > software[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_controlled_rendering_experiment(n_cores=0)
        with pytest.raises(ValueError):
            run_controlled_rendering_experiment(n_chunks=0)
