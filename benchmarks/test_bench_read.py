"""Read-path gate: the columnar analysis pass must hold its speedup.

Not a paper artifact — the CI ``perf-smoke`` job runs this bench on every
push.  It synthesizes the 50k-session spill tier
(``repro.telemetry.synth``, low threshold so every kind has many sorted
runs), drives the three headline analyses once through the record path
(one streaming ``consume`` pass — the fastest record-object spelling) and
once through ``repro.core.columnar_analysis``, asserts the outputs are
*identical* (JSON serialization and report text, the byte-identity
contract of docs/PERFORMANCE.md "The read path"), and then requires the
columnar pass to be at least ``MIN_SPEEDUP`` times faster.  The ratio is
machine-independent to first order — both paths scale with the same row
volume on the same interpreter — so the gate catches a lost vectorized
path or an accidentally quadratic planner, not percent-level drift.
Wall times land in the ``read-path`` trajectory of ``BENCH_perf.json``.
"""

from __future__ import annotations

import json
import time

import pytest

from bench_util import write_perf_record
from repro.core import columnar_analysis as ca
from repro.core.streaming import (
    FaultScoreAccumulator,
    LocalizationAccumulator,
    QoeAccumulator,
    consume,
)
from repro.telemetry.synth import synthesize_spill

pytestmark = pytest.mark.bench

N_SESSIONS = 50_000
SEED = 7
#: low threshold => many sorted runs per kind (the planner's stress regime)
THRESHOLD_ROWS = 32_768
#: measured 20x on a 2-core host (the columnar pass threads its blocks
#: over the usable cores); 10x is the contract floor
MIN_SPEEDUP = 10.0


def test_read_path_speedup_and_identity(tmp_path):
    dataset = synthesize_spill(
        tmp_path / "spill", N_SESSIONS, seed=SEED, threshold_rows=THRESHOLD_ROWS
    )
    assert dataset.n_sessions == N_SESSIONS

    start = time.perf_counter()
    q_rec, loc_rec, fs_rec = consume(
        dataset, QoeAccumulator(), LocalizationAccumulator(), FaultScoreAccumulator()
    )
    records_wall_s = time.perf_counter() - start

    # columnar last, so the recorded obs spans are the analysis.* breakdown
    start = time.perf_counter()
    out = ca.analyze_dataset(dataset)
    columnar_wall_s = time.perf_counter() - start

    assert json.dumps(out["qoe"]) == json.dumps(q_rec)
    assert json.dumps(out["localization"]) == json.dumps(loc_rec)
    assert out["faultscore"] == fs_rec
    assert out["faultscore"].format_report() == fs_rec.format_report()

    speedup = records_wall_s / columnar_wall_s
    record = write_perf_record(
        "read-path",
        columnar_wall_s,
        n_sessions=N_SESSIONS,
        n_chunks=dataset.n_chunks,
        extra={
            "records_wall_s": round(records_wall_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"\n  read-path: records {records_wall_s:.2f}s vs columnar "
        f"{columnar_wall_s:.2f}s = {speedup:.1f}x "
        f"({record['chunks_per_s']} chunks/s columnar)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar read path only {speedup:.1f}x faster than the record "
        f"path (contract floor {MIN_SPEEDUP}x, docs/PERFORMANCE.md)"
    )
