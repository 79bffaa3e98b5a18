"""Live service mode: rounds, rolling windows, online localization, HTTP plane.

The headline contracts under test (docs/OBSERVABILITY.md "Service mode"):

* **Exact sealing** — each round's engine drain leaves the clock past
  every chunk it produced, so every window ending before the round-end
  clock is final when it seals; late data hitting a sealed window is a
  hard error, never silent miscounting.
* **Deterministic plane** — two same-seed services stepped the same
  number of rounds serve byte-identical ``/metrics`` and ``/windows``
  payloads, regardless of polling, engine choice, or a concurrent reader
  mid-rollover.
* **Online localization** — the calibrated detector stays quiet on a
  healthy warmed-up fleet and flags the canned mid-run cache brownout
  (examples/fault_live_brownout.json) within one window of onset with
  window recall >= 0.8, blaming a concrete server.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.faults.spec import FaultSpec
from repro.obs.manifest import dump_json
from repro.obs.trace import TRACE_SCHEMA
from repro.serve import (
    INCIDENT_DOC_FIELDS,
    INCIDENT_SCHEMA,
    SERVE_ENDPOINTS,
    WINDOW_DOC_FIELDS,
    WINDOW_SCHEMA,
    FaultScoreboard,
    IncidentDetector,
    LiveService,
    RollingWindows,
    expected_group,
    format_health_line,
    format_incident_line,
    incident_json_line,
    start_plane,
    window_json_line,
)
from repro.simulation.config import SimulationConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BROWNOUT_SPEC = REPO_ROOT / "examples" / "fault_live_brownout.json"

#: small-but-real service config for plumbing/determinism tests
SMALL = dict(n_sessions=60, warmup_sessions=200, seed=11, n_videos=15)


def small_service(*, seed=11, engine="auto", trace_sample=0.0, **kwargs):
    config = SimulationConfig(
        **{**SMALL, "seed": seed, "engine": engine, "trace_sample": trace_sample}
    )
    return LiveService(config, window_ms=10_000.0, sessions_per_round=60, **kwargs)


def windows_bytes(service) -> str:
    return "\n".join(window_json_line(w) for w in service.window_documents())


class TestServiceValidation:
    """Bad knobs fail at construction, naming the field."""

    def test_sessions_per_round_must_be_positive(self):
        with pytest.raises(ValueError, match="sessions_per_round"):
            LiveService(SimulationConfig(**SMALL), sessions_per_round=0)

    @pytest.mark.parametrize("window_ms", [float("nan"), float("inf")])
    def test_window_ms_must_be_finite_and_positive(self, window_ms):
        with pytest.raises(ValueError, match="window_ms"):
            LiveService(SimulationConfig(**SMALL), window_ms=window_ms)


# ---------------------------------------------------------------------------
# rolling windows


class TestRollingWindows:
    def test_sealing_invariant_is_enforced(self):
        rw = RollingWindows(1000.0)
        rw._bucket(500.0)
        assert [w["index"] for w in rw.seal_through(2000.0)] == [0]
        with pytest.raises(RuntimeError, match="sealed"):
            rw._bucket(800.0)

    def test_seal_boundary_is_exclusive(self):
        # a clock sitting exactly on a window edge must NOT seal that
        # window: data at t == edge belongs to it
        rw = RollingWindows(1000.0)
        rw._bucket(500.0)
        rw._bucket(1500.0)
        sealed = rw.seal_through(1500.0)
        assert [w["index"] for w in sealed] == [0]
        assert rw.n_open == 1

    def test_window_documents_carry_the_contract_fields(self):
        service = small_service()
        service.step()
        docs = service.window_documents()
        assert docs, "one round must seal at least one window"
        for doc in docs:
            assert tuple(doc) == WINDOW_DOC_FIELDS
            assert doc["schema"] == WINDOW_SCHEMA
            assert doc["end_ms"] - doc["start_ms"] == pytest.approx(10_000.0)
            assert sum(doc["bottlenecks"].values()) == doc["n_chunks"]
            assert sum(e["chunks"] for e in doc["servers"].values()) == doc["n_chunks"]

    def test_retain_bounds_the_deque(self):
        service = small_service(retain_windows=4)
        service.run_rounds(2)
        assert len(service.window_documents()) <= 4
        health = service.health_document()
        assert health["windows_sealed"] > 4  # total is not truncated

    def test_sessions_and_chunks_accumulate(self):
        service = small_service()
        summaries = service.run_rounds(2)
        assert [s["round"] for s in summaries] == [0, 1]
        assert all(s["sessions"] == 60 for s in summaries)
        health = service.health_document()
        assert health["sessions"] == 120
        assert health["chunks"] == sum(s["chunks"] for s in summaries)


# ---------------------------------------------------------------------------
# determinism: the service-mode extension of the byte-identity contract


class TestServiceDeterminism:
    def test_windows_byte_identical_across_two_runs(self):
        a, b = small_service(), small_service()
        a.run_rounds(3)
        b.run_rounds(3)
        assert windows_bytes(a) == windows_bytes(b)

    def test_metrics_byte_identical_across_two_runs(self):
        a, b = small_service(), small_service()
        a.run_rounds(3)
        b.run_rounds(3)
        assert dump_json(a.metrics_document()) == dump_json(b.metrics_document())

    def test_windows_independent_of_engine_choice(self):
        event = small_service(engine="event")
        fleet = small_service(engine="fleet")
        event.run_rounds(2)
        fleet.run_rounds(2)
        assert windows_bytes(event) == windows_bytes(fleet)

    def test_seed_changes_the_stream(self):
        a, b = small_service(seed=11), small_service(seed=12)
        a.step()
        b.step()
        assert windows_bytes(a) != windows_bytes(b)

    def test_snapshot_determinism_under_concurrent_rollover(self):
        """A mid-run /metrics snapshot taken while the round loop is live
        equals the snapshot rebuilt from a fresh service stepped to the
        same round — concurrent readers never see a half-folded state."""
        live = small_service()
        snapshots = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                snapshots.append(live.metrics_document())

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            live.run_rounds(4)
        finally:
            done.set()
            thread.join()
        snapshots.append(live.metrics_document())

        rebuilt: dict = {}
        for snap in snapshots:
            rounds = snap["manifest"]["n_sessions"] // 60
            assert snap["manifest"]["n_sessions"] == rounds * 60
            if rounds not in rebuilt:
                fresh = small_service()
                fresh.run_rounds(rounds)
                rebuilt[rounds] = dump_json(fresh.metrics_document())
            assert dump_json(snap) == rebuilt[rounds]

    def test_windows_stable_under_concurrent_reader(self):
        live = small_service()
        seen: dict = {}
        done = threading.Event()

        def reader():
            while not done.is_set():
                for doc in live.window_documents():
                    line = window_json_line(doc)
                    prior = seen.setdefault(doc["index"], line)
                    assert prior == line, "a sealed window document mutated"

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            live.run_rounds(3)
        finally:
            done.set()
            thread.join()
        assert seen  # the reader actually observed sealed windows


# ---------------------------------------------------------------------------
# incident detector + scoreboard (synthetic windows)


def make_window(index, n_chunks, server=0, network=0, servers=None, orgs=None):
    bottlenecks = {
        "none": n_chunks - server - network,
        "server": server,
        "network-latency": network,
        "network-throughput": 0,
        "client-download-stack": 0,
        "client-rendering": 0,
    }
    return {
        "schema": WINDOW_SCHEMA,
        "index": index,
        "start_ms": index * 1000.0,
        "end_ms": (index + 1) * 1000.0,
        "n_chunks": n_chunks,
        "bottlenecks": bottlenecks,
        "servers": servers or {},
        "orgs": orgs or {},
    }


class TestIncidentDetector:
    def test_open_extend_close_cycle(self):
        det = IncidentDetector(threshold=0.5, min_chunks=10)
        servers = {"srv-a": {"chunks": 90, "server_chunks": 80}}
        assert det.observe(make_window(0, 100, server=10)) == set()
        assert det.observe(make_window(1, 100, server=80, servers=servers)) == {
            "server"
        }
        assert det.observe(make_window(2, 100, server=70, servers=servers)) == {
            "server"
        }
        assert det.observe(make_window(3, 100, server=5)) == set()
        (incident,) = det.incidents()
        assert tuple(incident) == INCIDENT_DOC_FIELDS
        assert incident["schema"] == INCIDENT_SCHEMA
        assert incident["group"] == "server"
        assert incident["open"] is False
        assert incident["start_ms"] == 1000.0
        assert incident["end_ms"] == 3000.0
        assert incident["windows"] == 2
        assert incident["confidence"] == pytest.approx(0.75)
        assert incident["blamed"] == "server:srv-a"

    def test_small_windows_are_neutral(self):
        # the drain tail between arrival bursts yields tiny windows;
        # they must neither flag nor close an open incident
        det = IncidentDetector(threshold=0.5, min_chunks=10)
        det.observe(make_window(0, 100, server=80))
        assert det.n_open == 1
        assert det.observe(make_window(1, 4, server=4)) == set()
        assert det.n_open == 1  # still open: no scorable evidence either way
        det.observe(make_window(2, 100, server=0))
        assert det.n_open == 0

    def test_network_group_blames_the_modal_org(self):
        det = IncidentDetector(threshold=0.5, min_chunks=10)
        orgs = {
            "isp-a": {"chunks": 50, "network_chunks": 45},
            "isp-b": {"chunks": 50, "network_chunks": 15},
        }
        det.observe(make_window(0, 100, network=60, orgs=orgs))
        (incident,) = det.incidents()
        assert incident["group"] == "network"
        assert incident["open"] is True
        assert incident["end_ms"] is None
        assert incident["blamed"] == "org:isp-a"

    def test_expected_group_mapping(self):
        assert expected_group("cache-brownout") == "server"
        assert expected_group("origin-slowdown") == "server"
        assert expected_group("network-latency") == "network"
        assert expected_group("network-loss") == "network"
        assert expected_group("client-render") == "client-rendering"
        assert expected_group("not-a-fault") is None


class TestFaultScoreboard:
    def _spec(self, tmp_path, start_ms, end_ms):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "events": [
                        {
                            "id": "ev-1",
                            "class": "cache-brownout",
                            "start_ms": start_ms,
                            "end_ms": end_ms,
                            "magnitude": 1.0,
                        }
                    ]
                }
            )
        )
        return FaultSpec.load(path)

    def test_counts_only_scorable_overlapping_windows(self, tmp_path):
        board = FaultScoreboard(
            self._spec(tmp_path, 1000.0, 4000.0), 1000.0, min_chunks=10
        )
        board.observe(make_window(0, 100), set())  # before the epoch
        board.observe(make_window(1, 4), {"server"})  # too small to score
        board.observe(make_window(2, 100), {"server"})
        board.observe(make_window(3, 100), set())
        board.observe(make_window(4, 100), {"server"})  # after the epoch
        summary = board.summary()
        (event,) = summary["events"]
        assert event["windows_total"] == 2
        assert event["windows_flagged"] == 1
        assert summary["recall"] == pytest.approx(0.5)

    def test_delay_measured_from_first_scorable_window(self, tmp_path):
        board = FaultScoreboard(
            self._spec(tmp_path, 1000.0, 5000.0), 1000.0, min_chunks=10
        )
        board.observe(make_window(1, 4), set())  # onset window: unscorable
        board.observe(make_window(2, 100), set())  # first scorable: clean
        board.observe(make_window(3, 100), {"server"})
        (event,) = board.summary()["events"]
        assert event["detection_delay_windows"] == 1
        assert event["within_one_window"] is True

    def test_no_faults_scores_empty(self):
        board = FaultScoreboard(None, 1000.0)
        board.observe(make_window(0, 100), {"server"})
        summary = board.summary()
        assert summary["events"] == []
        assert summary["detected_within_one_window"] is False


# ---------------------------------------------------------------------------
# the acceptance bar: canned brownout epoch, live detection


@pytest.fixture(scope="module")
def brownout_service():
    """The serve defaults against examples/fault_live_brownout.json."""
    config = SimulationConfig(
        n_sessions=150,
        warmup_sessions=2000,
        seed=7,
        faults=FaultSpec.load(BROWNOUT_SPEC),
    )
    service = LiveService(config, window_ms=10_000.0, sessions_per_round=150)
    service.run_rounds(8)
    return service


class TestBrownoutAcceptance:
    def test_exactly_one_incident_and_it_is_the_brownout(self, brownout_service):
        (incident,) = brownout_service.incident_documents()
        assert incident["group"] == "server"
        assert incident["blamed"].startswith("server:")
        assert incident["open"] is False, "incident must close after the epoch"

    def test_incident_brackets_the_epoch(self, brownout_service):
        spec = json.loads(BROWNOUT_SPEC.read_text())
        (epoch,) = spec["events"]
        (incident,) = brownout_service.incident_documents()
        # opened within one window of onset, closed after the epoch end
        assert abs(incident["start_ms"] - epoch["start_ms"]) <= 10_000.0
        assert incident["end_ms"] >= epoch["end_ms"]

    def test_live_recall_meets_the_bar(self, brownout_service):
        score = brownout_service.health_document()["faultscore"]
        assert score["detected_within_one_window"] is True
        assert score["recall"] >= 0.8
        (event,) = score["events"]
        assert event["detection_delay_windows"] <= 1

    def test_healthy_baseline_stays_quiet(self):
        config = SimulationConfig(n_sessions=150, warmup_sessions=2000, seed=7)
        service = LiveService(config, window_ms=10_000.0, sessions_per_round=150)
        service.run_rounds(6)
        assert service.incident_documents() == []
        assert service.health_document()["incidents"] == 0


# ---------------------------------------------------------------------------
# HTTP plane


@pytest.fixture(scope="module")
def plane():
    service = LiveService(
        SimulationConfig(**SMALL, trace_sample=0.5),
        window_ms=10_000.0,
        sessions_per_round=60,
    )
    service.run_rounds(2)
    plane = start_plane(service, port=0)
    yield service, plane
    plane.close()


def fetch(plane, path):
    with urllib.request.urlopen(f"{plane.url}{path}", timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


class TestHttpPlane:
    def test_health(self, plane):
        service, server = plane
        status, ctype, body = fetch(server, "/health")
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["rounds"] == 2
        assert payload["sessions"] == 120

    def test_metrics_matches_the_inprocess_document(self, plane):
        service, server = plane
        _, _, body = fetch(server, "/metrics")
        assert body.decode("utf-8") == dump_json(service.metrics_document())

    def test_windows_ndjson(self, plane):
        service, server = plane
        _, ctype, body = fetch(server, "/windows")
        assert ctype == "application/x-ndjson"
        lines = body.decode("utf-8").splitlines()
        docs = service.window_documents()
        assert len(lines) == len(docs)
        assert [json.loads(line)["index"] for line in lines] == [
            d["index"] for d in docs
        ]

    def test_incidents_ndjson(self, plane):
        service, server = plane
        _, _, body = fetch(server, "/incidents")
        for line in body.decode("utf-8").splitlines():
            assert json.loads(line)["schema"] == INCIDENT_SCHEMA

    def test_events_leads_with_the_trace_meta_line(self, plane):
        service, server = plane
        _, _, body = fetch(server, "/events")
        first, *rest = body.decode("utf-8").splitlines()
        meta = json.loads(first)
        assert meta["schema"] == TRACE_SCHEMA
        assert "name" not in meta
        assert rest, "trace_sample=0.5 must trace some sessions"
        assert all("name" in json.loads(line) for line in rest)

    def test_unknown_path_is_404(self, plane):
        _, server = plane
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server, "/nope")
        assert err.value.code == 404

    def test_endpoint_table_is_exhaustive(self, plane):
        _, server = plane
        for path in SERVE_ENDPOINTS:
            status, _, _ = fetch(server, path)
            assert status == 200


# ---------------------------------------------------------------------------
# watch formatting + CLI


class TestWatch:
    def test_health_line(self):
        line = format_health_line(
            {
                "rounds": 3,
                "sessions": 450,
                "chunks": 2700,
                "clock_ms": 123456.0,
                "windows_sealed": 12,
                "incidents": 1,
                "sessions_per_s": 500.0,
            }
        )
        assert "round=3" in line and "clock=123.5s" in line

    def test_incident_line_open_and_closed(self):
        doc = {
            "incident_id": "inc-00001-server",
            "group": "server",
            "start_ms": 10_000.0,
            "end_ms": None,
            "open": True,
            "windows": 2,
            "confidence": 0.75,
            "blamed": "server:srv-a",
        }
        assert "[OPEN]" in format_incident_line(doc)
        closed = dict(doc, open=False, end_ms=30_000.0)
        assert "[closed]" in format_incident_line(closed)

    def test_watch_once_against_a_live_plane(self, plane, capsys):
        _, server = plane
        assert cli_main(["watch", server.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "sessions/s" in out

    def test_watch_unreachable_exits_nonzero(self, capsys):
        assert (
            cli_main(["watch", "http://127.0.0.1:9", "--once", "--interval", "0"])
            == 1
        )


class TestCliServe:
    def test_serve_rounds_writes_artifacts(self, tmp_path, capsys):
        argv = [
            "serve",
            "--sessions", "60",
            "--warmup", "200",
            "--seed", "11",
            "--rounds", "2",
            "--port", "0",
            "--out", str(tmp_path / "out"),
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "serving on http://" in out
        assert "served 2 rounds" in out
        windows = (tmp_path / "out" / "windows.jsonl").read_text().splitlines()
        assert windows
        assert all(json.loads(w)["schema"] == WINDOW_SCHEMA for w in windows)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["rounds"] == 2
        assert (tmp_path / "out" / "incidents.jsonl").exists()

    def test_serve_canned_scenario_resolves(self, capsys):
        argv = [
            "serve",
            "--scenario", "flash-crowd",
            "--sessions", "40",
            "--warmup", "100",
            "--rounds", "1",
            "--port", "0",
        ]
        assert cli_main(argv) == 0
        assert "served 1 rounds" in capsys.readouterr().out

    def test_json_line_helpers_are_sorted(self):
        doc = {"b": 1, "a": 2}
        assert window_json_line(doc) == '{"a": 2, "b": 1}'
        assert incident_json_line(doc) == '{"a": 2, "b": 1}'
