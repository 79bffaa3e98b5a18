"""Vectorized columnar read path for the headline analyses.

The classic analysis spellings (``qoe.summarize``,
``localization.diagnose_dataset``, ``faultscore.score_fault_localization``)
re-materialize one Python record object per telemetry row and join them
into per-session ``SessionView`` objects.  This module computes the same
three results directly on the numpy structured arrays of
:mod:`repro.telemetry.columnar` — the join, the Eq. 2/4/5 chunk math, and
the per-session reductions all run as whole-column numpy operations, with
sessions coded by their position in the byte-ordered session universe
instead of per-session object graphs.

Two invariants drive every line here:

* **Byte identity.**  Results are bit-for-bit equal to the record-object
  path (pinned by ``tests/test_columnar_analysis.py``).  Sums that the
  classic path performs sequentially (``Python sum``, ``ndarray.mean/std``
  over axis 0) are reproduced with the stepped group accumulator
  :func:`_grouped_seq_sum` — never ``np.add.reduceat``/``np.sum``, whose
  pairwise summation regroups float additions.
* **Bounded memory.**  Datasets are consumed in session-aligned blocks
  sized by :data:`~repro.telemetry.columnar.ITER_BLOCK_ROWS`; spilled runs
  stay memory-mapped and only the blocks in flight are materialized (one,
  or one per worker thread at a divided budget).
  Works for in-memory :class:`~repro.telemetry.dataset.Dataset` objects,
  single-directory spills, sharded spills, and multi-period
  ``period-<label>/`` layouts alike.

See docs/PERFORMANCE.md ("The read path") for when this engine is chosen
and docs/TELEMETRY.md for the columnar layout it consumes.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from contextlib import closing
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.columnar import COLUMN_SCHEMAS, ITER_BLOCK_ROWS, records_to_array, sort_array
from .downstack import RTO_FLOOR_MS
from .faultscore import EXPECTED_BOTTLENECK, ClassScore, FaultScoreReport, parse_fault_labels
from .localization import BAD_RENDER_FRACTION, BAD_SCORE, TAIL_RTT_MS, Bottleneck

__all__ = [
    "ANALYSIS_KINDS",
    "analyze_dataset",
    "resolve_analysis_mode",
]

#: the analyses this engine can compute in one blockwise pass
ANALYSIS_KINDS = ("qoe", "localization", "faultscore")

#: Bottleneck verdicts by integer code; ``np.select`` below emits these
#: codes, and enum order fixes the code <-> member mapping.
_BOTTLENECKS: Tuple[Bottleneck, ...] = tuple(Bottleneck)
_CODE_OF = {b: i for i, b in enumerate(_BOTTLENECKS)}
#: per fault class, the expected-bottleneck codes (same order as the
#: ``EXPECTED_BOTTLENECK`` tuples, which ClassScore.expected mirrors)
_EXPECTED_CODES = {
    fault_class: tuple(_CODE_OF[b] for b in expected)
    for fault_class, expected in EXPECTED_BOTTLENECK.items()
}

#: Eq. 4 needs at least this many TCP-qualified chunks per session
_MIN_EQ4_CHUNKS = 5


def resolve_analysis_mode(dataset: Any, analysis: str = "auto") -> str:
    """Resolve the ``analysis`` knob for *dataset* to ``records|columnar``.

    Mirrors the engine registry (:func:`repro._execution.resolve_engine`):
    ``auto`` prefers the columnar pass whenever the dataset is spilled (the
    record path would materialize every row as an object) or large enough
    for vectorization to win; explicit ``records``/``columnar`` always
    obey.  Unknown names raise ``ValueError``.
    """
    from .._execution import resolve_analysis
    from ..telemetry.dataset import Dataset
    from ..telemetry.spill import SpilledDataset

    spilled = isinstance(dataset, SpilledDataset)
    if analysis == "auto" and not spilled and not isinstance(dataset, Dataset):
        # duck-typed dataset (tests, adapters): the record path is the
        # only one guaranteed to understand it
        return "records"
    n_sessions = int(getattr(dataset, "n_sessions", 0))
    return resolve_analysis(analysis, n_sessions=n_sessions, spilled=spilled)


# ---------------------------------------------------------------------------
# sequential (non-pairwise) grouped float accumulation


def _grouped_seq_sum(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group sums that add elements *sequentially*, like the record path.

    ``values`` holds the rows of every group back to back (group ``g``
    occupies ``values[starts[g]:starts[g]+counts[g]]``).  A plain
    ``np.add.reduceat`` would sum each slice pairwise — a different float
    regrouping than ``sum(list)`` / ``matrix.mean(axis=0)`` — so instead
    the k-th element of every group is added in step k, vectorized across
    groups.  Cost is O(max group size) numpy calls, which the blockwise
    driver keeps small relative to the rows processed.
    """
    out_shape = (len(starts),) + values.shape[1:]
    acc = np.zeros(out_shape, dtype=np.float64)
    if len(starts) == 0 or len(values) == 0:
        return acc
    max_count = int(counts.max())
    for k in range(max_count):
        live = counts > k
        acc[live] += values[starts[live] + k]
    return acc


# ---------------------------------------------------------------------------
# run access + block planning


def _dataset_runs(dataset: Any, kinds: Sequence[str]) -> Dict[str, List[np.ndarray]]:
    """Sorted per-kind run arrays for *dataset* (spilled or in-memory).

    Spilled datasets expose their memory-mapped runs directly
    (:meth:`~repro.telemetry.spill.SpilledDataset.run_arrays`); in-memory
    datasets encode each kind into one sorted array.  Run order matters:
    the blockwise assembly relies on stable re-sorts of
    run-enumeration-ordered concatenations reproducing the k-way merge.
    """
    runs: Dict[str, List[np.ndarray]] = {}
    if hasattr(dataset, "run_arrays"):
        for kind in kinds:
            runs[kind] = [a for a in dataset.run_arrays(kind) if len(a)]
        return runs
    for kind in kinds:
        records = list(getattr(dataset, kind))
        if records:
            runs[kind] = [sort_array(kind, records_to_array(kind, records))]
        else:
            runs[kind] = []
    return runs


class _BlockPlan:
    """Session-aligned block boundaries precomputed per run.

    The player-session runs give the session universe (the byte-ordered
    unique session ids); a block is a slice of it, its :meth:`names`.
    For every run of every other kind the session-id column is extracted
    *once*, both block boundary vectors are computed with two
    ``searchsorted`` calls, and the column is dropped — peak transient
    memory is one run's session-id column, not the whole kind's.

    Blocks hold ``ITER_BLOCK_ROWS`` rows of the widest kind.  When that
    budget needs more than one block and *workers* > 1, the budget is
    divided by *workers*, so the ``workers`` blocks in flight at once
    together stay within one block's rows; otherwise :attr:`workers` is 1
    and the pass stays serial.
    """

    def __init__(
        self, runs: Dict[str, List[np.ndarray]], kinds: Sequence[str], workers: int = 1
    ):
        ps_runs = runs.get("player_sessions", ())
        if ps_runs:
            universe = np.unique(
                np.concatenate([np.asarray(r["session_id"]) for r in ps_runs])
            )
        else:
            universe = np.empty(0, dtype=COLUMN_SCHEMAS["player_sessions"].dtype["session_id"])
        self.universe = universe
        self.n_sids = len(universe)
        self.workers = 1
        if self.n_sids == 0:
            self.n_blocks = 0
            self.slices: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
            return
        total_rows = max(sum(len(r) for r in runs.get(kind, ())) for kind in kinds)
        rows_per_session = max(1.0, total_rows / self.n_sids)
        block_sessions = max(1, int(ITER_BLOCK_ROWS / rows_per_session))
        if workers > 1 and self.n_sids > block_sessions:
            self.workers = workers
            block_sessions = max(1, int(ITER_BLOCK_ROWS / workers / rows_per_session))
        self.block_sessions = block_sessions
        bounds = list(range(0, self.n_sids, block_sessions))
        self.n_blocks = len(bounds)
        los = universe[np.asarray(bounds, dtype=np.int64)]
        his = universe[
            np.minimum(np.asarray(bounds, dtype=np.int64) + block_sessions, self.n_sids) - 1
        ]
        self.slices = {}
        for kind in kinds:
            if kind == "player_sessions":
                continue  # read only for the universe: each block's names
            entries = []
            for run in runs.get(kind, ()):
                col = np.ascontiguousarray(run["session_id"])
                a = np.searchsorted(col, los, side="left")
                b = np.searchsorted(col, his, side="right")
                del col
                entries.append((run, a, b))
            self.slices[kind] = entries

    def names(self, i: int) -> np.ndarray:
        """Block *i*'s slice of the byte-ordered session universe."""
        start = i * self.block_sessions
        return self.universe[start : start + self.block_sessions]

    def block(
        self, kind: str, i: int, kept: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of *kind* for block *i*, in canonical merge order.

        Returns ``(rows, codes)``: only rows whose session is in
        :meth:`names` (and, given the boolean mask *kept* over those
        names, is kept), with ``codes[j]`` the index of row j's session
        among the names (among the kept names).
        """
        names = self.names(i)
        parts = [
            np.asarray(run[a[i] : b[i]]) for run, a, b in self.slices[kind] if b[i] > a[i]
        ]
        if not parts:
            empty = np.empty(0, dtype=COLUMN_SCHEMAS[kind].dtype)
            return empty, np.empty(0, dtype=np.int64)
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # Runs are session-sorted, so each part is coded by locating the
        # names in it.  A session id absent from the universe (a
        # CDN-only session) gets the code of the name before it, so its
        # rows may share a neighbour's code.  That is safe only because
        # the exact-match test drops them here, before the merge sorts
        # by code: on the rows kept, codes order like the byte keys.
        code = np.concatenate([_part_codes(names, p["session_id"]) for p in parts])
        member = names[code] == rows["session_id"]
        if kept is not None:
            member &= kept[code]
        sel = np.flatnonzero(member)
        if len(parts) > 1:
            # runs were stable-sorted at flush, and heapq.merge resolves
            # ties to the earlier stream — which is exactly run
            # enumeration order — so a stable sort of the
            # enumeration-ordered concatenation reproduces the global
            # merge order bit-for-bit.
            sel = sel[_merge_order(kind, rows, sel, code[sel])]
        code = code[sel]
        if kept is not None:
            code = (np.cumsum(kept) - 1)[code]
        return rows[sel], code


def _part_codes(names: np.ndarray, sids: np.ndarray) -> np.ndarray:
    """Per row of the session-sorted *sids*, the index of the last name <= it.

    Every row of a block part sorts at or after the block's first name,
    so each row gets a code.
    """
    starts = np.searchsorted(sids, names)
    counts = np.diff(starts, append=len(sids))
    return np.repeat(np.arange(len(names), dtype=np.int64), counts)


def _merge_order(
    kind: str, rows: np.ndarray, sel: np.ndarray, code: np.ndarray
) -> np.ndarray:
    """Stable canonical-order permutation of ``rows[sel]``, coded *code*.

    Equal to ``sort_array``'s structured argsort of those rows at
    integer-sort cost: the session code, which orders like the byte-ordered
    session id, is fused with ``chunk_id`` (non-negative, as the join's
    fused keys require); the remaining sort keys (``t_ms``) follow as
    ``lexsort`` keys.
    """
    sort_keys = COLUMN_SCHEMAS[kind].sort_keys
    if len(sort_keys) == 1:
        return np.argsort(code, kind="stable")
    chunk = rows["chunk_id"][sel]
    fused = code * (int(chunk.max(initial=0)) + 1) + chunk
    # lexsort's last key is the primary one
    minor = tuple(rows[name][sel] for name in reversed(sort_keys[2:]))
    return np.lexsort(minor + (fused,))


def _last_wins_match(keys: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Last-wins lookup of *queries* in sorted *keys*.

    Returns ``(matched, j)``: ``matched[i]`` iff ``queries[i]`` occurs in
    *keys*, and ``j[i]`` the index of its *last* occurrence — the same row
    a ``dict[(sid, chunk_id)] = record`` rebuild would keep.
    """
    if len(keys) == 0:
        return np.zeros(len(queries), dtype=bool), np.zeros(len(queries), dtype=np.int64)
    j = np.searchsorted(keys, queries, side="right") - 1
    matched = j >= 0
    matched &= keys[np.maximum(j, 0)] == queries
    return matched, j


# ---------------------------------------------------------------------------
# per-analysis accumulation state


class _QoeState:
    """Blockwise twin of ``streaming.QoeAccumulator`` (bit-identical)."""

    def __init__(self) -> None:
        self.n = 0
        self._startups: List[np.ndarray] = []
        self._rates: List[np.ndarray] = []
        self._bitrates: List[np.ndarray] = []
        self._dropped: List[np.ndarray] = []
        self._chunks: List[np.ndarray] = []

    def update(self, block: "_JoinedBlock") -> None:
        n_kept = block.n_kept
        self.n += n_kept
        counts = block.counts
        starts = block.starts
        # the record path folds these three per-chunk columns left to
        # right with Python sum(); _grouped_seq_sum replays that exact
        # addition order across all sessions at once
        triple = np.stack(
            [block.rebuffer_ms, block.chunk_duration_ms, block.bitrate_kbps], axis=1
        )
        sums = _grouped_seq_sum(triple, starts, counts)
        rebuffer_sum, media_sum, bitrate_sum = sums[:, 0], sums[:, 1], sums[:, 2]
        rates = np.divide(
            rebuffer_sum, media_sum, out=np.zeros(n_kept), where=media_sum > 0
        )
        avg_bitrate = np.divide(
            bitrate_sum, counts, out=np.zeros(n_kept), where=counts > 0
        )
        # integer frame totals are exact in f8 (< 2**53), so any order works
        total_f = np.bincount(block.jcode, weights=block.total_frames, minlength=n_kept)
        dropped_f = np.bincount(block.jcode, weights=block.dropped_frames, minlength=n_kept)
        dropped_pct = np.divide(
            100.0 * dropped_f, total_f, out=np.zeros(n_kept), where=total_f != 0
        )
        nonempty = counts > 0
        first_rows = starts[nonempty]
        first_ids = block.chunk_id[first_rows]
        startups = block.download_ms[first_rows[first_ids == 0]]
        if len(startups):
            self._startups.append(startups)
        self._rates.append(rates)
        self._bitrates.append(avg_bitrate)
        self._dropped.append(dropped_pct)
        self._chunks.append(counts)

    def result(self) -> Dict[str, float]:
        if self.n == 0:
            return {"n_sessions": 0}
        startups = (
            np.concatenate(self._startups) if self._startups else np.empty(0, dtype=np.float64)
        )
        rates = np.concatenate(self._rates)
        bitrates = np.concatenate(self._bitrates)
        dropped = np.concatenate(self._dropped)
        chunks = np.concatenate(self._chunks)
        return {
            "n_sessions": self.n,
            "median_startup_ms": float(np.median(startups)) if len(startups) else float("nan"),
            "p90_startup_ms": (
                float(np.percentile(startups, 90)) if len(startups) else float("nan")
            ),
            "rebuffer_session_fraction": float(np.mean(rates > 0)),
            "mean_rebuffer_rate_pct": float(np.mean(100.0 * rates)),
            "median_bitrate_kbps": float(np.median(bitrates)),
            "mean_dropped_frame_pct": float(np.mean(dropped)),
            "median_session_chunks": float(np.median(chunks)),
        }


class _LocalizationState:
    """Blockwise twin of ``streaming.LocalizationAccumulator``."""

    def __init__(self) -> None:
        self._counts = np.zeros(len(_BOTTLENECKS), dtype=np.int64)
        self._total = 0

    def update(self, block: "_JoinedBlock") -> None:
        self._counts += np.bincount(block.verdict, minlength=len(_BOTTLENECKS))
        self._total += len(block.verdict)

    def result(self) -> Dict[str, float]:
        if self._total == 0:
            return {}
        return {
            b.value: int(self._counts[i]) / self._total
            for i, b in enumerate(_BOTTLENECKS)
        }


class _LabelMeta:
    """Parsed, cached view of one distinct ``fault_labels`` byte string."""

    __slots__ = (
        "classes",
        "known",
        "categories",
        "labeled",
        "spurious",
        "expected_codes",
    )

    def __init__(self, raw: bytes) -> None:
        pairs = parse_fault_labels(raw.decode("utf-8"))
        self.classes = sorted({fault_class for fault_class, _ in pairs})
        self.labeled = bool(self.classes)
        self.known = [fc for fc in self.classes if fc in EXPECTED_BOTTLENECK]
        self.categories = self.classes or ["none"]
        self.expected_codes = {fc: frozenset(_EXPECTED_CODES[fc]) for fc in self.known}
        layer_codes = frozenset(
            code for fc in self.known for code in _EXPECTED_CODES[fc]
        )
        self.spurious = frozenset(range(1, len(_BOTTLENECKS))) - layer_codes


class _FaultScoreState:
    """Blockwise twin of ``streaming.FaultScoreAccumulator``.

    The only order-dependent part of the record path is the
    false-positive rule: a spurious verdict increments every class *that
    already exists*.  Global chunk positions let us replay that exactly —
    class ``c`` collects a false positive from each spurious event with a
    matching code at position >= the class's first occurrence (the
    creating chunk itself can never be spurious *for its own class*:
    carrying label ``c`` puts ``expected(c)`` inside its expected-layer
    union).  Dict insertion orders are reconstructed from first-occurrence
    positions the same way.
    """

    def __init__(self) -> None:
        self.n_chunks = 0
        self.n_labeled = 0
        self.n_unscored = 0
        self._offset = 0
        self._meta_cache: Dict[bytes, _LabelMeta] = {}
        self._cat_first: Dict[str, int] = {}
        self._catv_count: Dict[Tuple[str, int], int] = {}
        self._catv_first: Dict[Tuple[str, int], int] = {}
        self._class_first: Dict[str, int] = {}
        self._tp: Dict[str, int] = {}
        self._fn: Dict[str, int] = {}
        self._spurious: Dict[int, List[np.ndarray]] = {
            code: [] for code in range(1, len(_BOTTLENECKS))
        }

    def update(self, block: "_JoinedBlock") -> None:
        n = len(block.verdict)
        self.n_chunks += n
        has_truth = block.has_truth
        n_truth = int(has_truth.sum())
        self.n_unscored += n - n_truth
        if n_truth == 0:
            self._offset += n
            return
        pos = self._offset + np.flatnonzero(has_truth)
        verdicts = block.verdict[has_truth]
        labels = block.fault_labels[has_truth]
        unique_labels, first_idx, inverse, label_counts = np.unique(
            labels, return_index=True, return_inverse=True, return_counts=True
        )
        metas = []
        for raw in unique_labels:
            raw_b = bytes(raw)
            meta = self._meta_cache.get(raw_b)
            if meta is None:
                meta = self._meta_cache[raw_b] = _LabelMeta(raw_b)
            metas.append(meta)
        label_first_pos = pos[first_idx]
        for i, meta in enumerate(metas):
            if meta.labeled:
                self.n_labeled += int(label_counts[i])
            first = int(label_first_pos[i])
            for category in meta.categories:
                prev = self._cat_first.get(category)
                if prev is None or first < prev:
                    self._cat_first[category] = first
            for fault_class in meta.known:
                prev = self._class_first.get(fault_class)
                if prev is None or first < prev:
                    self._class_first[fault_class] = first
        # one pass over the distinct (label, verdict) pairs covers the
        # confusion matrix and the TP/FN tallies
        n_codes = len(_BOTTLENECKS)
        fused = inverse.astype(np.int64) * n_codes + verdicts
        fused_u, fused_first, fused_counts = np.unique(
            fused, return_index=True, return_counts=True
        )
        fused_first_pos = pos[fused_first]
        for f, first_p, count in zip(fused_u, fused_first_pos, fused_counts):
            label_i = int(f) // n_codes
            code = int(f) % n_codes
            count = int(count)
            first_p = int(first_p)
            meta = metas[label_i]
            for category in meta.categories:
                key = (category, code)
                self._catv_count[key] = self._catv_count.get(key, 0) + count
                prev = self._catv_first.get(key)
                if prev is None or first_p < prev:
                    self._catv_first[key] = first_p
            for fault_class in meta.known:
                if code in meta.expected_codes[fault_class]:
                    self._tp[fault_class] = self._tp.get(fault_class, 0) + count
                else:
                    self._fn[fault_class] = self._fn.get(fault_class, 0) + count
        # spurious-event positions, per verdict code (ascending: blocks
        # arrive in order and pos is ascending within a block)
        spurious_table = np.zeros((len(unique_labels), n_codes), dtype=bool)
        for i, meta in enumerate(metas):
            for code in meta.spurious:
                spurious_table[i, code] = True
        row_spurious = spurious_table[inverse, verdicts]
        if row_spurious.any():
            for code in range(1, n_codes):
                sel = row_spurious & (verdicts == code)
                if sel.any():
                    self._spurious[code].append(pos[sel])
        self._offset += n

    def result(self) -> FaultScoreReport:
        report = FaultScoreReport()
        report.n_chunks = self.n_chunks
        report.n_labeled = self.n_labeled
        report.n_unscored = self.n_unscored
        spurious = {
            code: (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
            for code, chunks in self._spurious.items()
        }
        for fault_class in sorted(
            self._class_first, key=lambda fc: (self._class_first[fc], fc)
        ):
            first = self._class_first[fault_class]
            false_positives = 0
            for code in _EXPECTED_CODES[fault_class]:
                arr = spurious[code]
                false_positives += len(arr) - int(np.searchsorted(arr, first, side="left"))
            report.classes[fault_class] = ClassScore(
                fault_class,
                tuple(b.value for b in EXPECTED_BOTTLENECK[fault_class]),
                true_positives=self._tp.get(fault_class, 0),
                false_negatives=self._fn.get(fault_class, 0),
                false_positives=false_positives,
            )
        for category in sorted(
            self._cat_first, key=lambda c: (self._cat_first[c], c)
        ):
            counter: Counter = Counter()
            codes = [
                code
                for (cat, code) in self._catv_count
                if cat == category
            ]
            codes.sort(key=lambda code: self._catv_first[(category, code)])
            for code in codes:
                counter[_BOTTLENECKS[code].value] = self._catv_count[(category, code)]
            report.confusion[category] = counter
        return report


# ---------------------------------------------------------------------------
# the blockwise join + chunk math


class _JoinedBlock:
    """One session-aligned block after the player<->CDN join.

    Field arrays are aligned with the joined chunk rows (canonical order:
    session, then chunk id, then original row order for duplicates —
    exactly the order ``iter_joined_sessions`` yields chunks in).
    """

    __slots__ = (
        "n_kept",
        "jcode",
        "counts",
        "starts",
        "chunk_id",
        "rebuffer_ms",
        "chunk_duration_ms",
        "bitrate_kbps",
        "dropped_frames",
        "total_frames",
        "download_ms",
        "verdict",
        "has_truth",
        "fault_labels",
    )


def _compute_block(
    plan: _BlockPlan,
    index: int,
    want_cascade: bool,
    want_truth: bool,
) -> Optional[_JoinedBlock]:
    # the universe is the player session ids, so every name has a player
    # session; a session is analysed when it also has a CDN session
    _, cs_code = plan.block("cdn_sessions", index)
    kept = np.zeros(len(plan.names(index)), dtype=bool)
    kept[cs_code] = True
    n_kept = int(np.count_nonzero(kept))
    if n_kept == 0:
        return None
    pc, pc_code = plan.block("player_chunks", index, kept)
    cc, cc_code = plan.block("cdn_chunks", index, kept)
    loaded = [pc, cc]
    if want_cascade:
        tm, tm_code = plan.block("tcp_snapshots", index, kept)
        loaded.append(tm)
    if want_truth:
        gt, gt_code = plan.block("ground_truth", index, kept)
        loaded.append(gt)
    max_id = 0
    for arr in loaded:
        if len(arr):
            ids = arr["chunk_id"]
            low = int(ids.min())
            if low < 0:
                raise ValueError("columnar analysis requires non-negative chunk ids")
            max_id = max(max_id, int(ids.max()))
    fuse = np.int64(max_id + 1)

    pkey = pc_code * fuse + pc["chunk_id"]
    ckey = cc_code * fuse + cc["chunk_id"]
    matched, j = _last_wins_match(ckey, pkey)
    joined = pc[matched]
    jcode = pc_code[matched]
    jkey = pkey[matched]
    cdn = cc[j[matched]]
    n = len(joined)

    block = _JoinedBlock()
    block.n_kept = n_kept
    block.jcode = jcode
    counts = np.bincount(jcode, minlength=n_kept)
    block.counts = counts
    block.starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]]
    )
    block.chunk_id = np.ascontiguousarray(joined["chunk_id"])
    block.rebuffer_ms = np.ascontiguousarray(joined["rebuffer_ms"])
    block.chunk_duration_ms = np.ascontiguousarray(joined["chunk_duration_ms"])
    block.bitrate_kbps = np.ascontiguousarray(joined["bitrate_kbps"])
    block.dropped_frames = np.ascontiguousarray(joined["dropped_frames"])
    block.total_frames = np.ascontiguousarray(joined["total_frames"])
    dfb = np.ascontiguousarray(joined["dfb_ms"])
    dlb = np.ascontiguousarray(joined["dlb_ms"])
    block.download_ms = dfb + dlb
    if not want_cascade:
        block.verdict = np.zeros(n, dtype=np.int64)
        block.has_truth = np.zeros(n, dtype=bool)
        block.fault_labels = np.zeros(n, dtype=COLUMN_SCHEMAS["ground_truth"].dtype["fault_labels"])
        return block

    # -- per-chunk TCP aggregates (keyed by distinct (session, chunk)) ------
    ukeys, uinv = np.unique(jkey, return_inverse=True)
    nu = len(ukeys)
    tkey = tm_code * fuse + tm["chunk_id"]
    t_lo = np.searchsorted(tkey, ukeys, side="left")
    t_hi = np.searchsorted(tkey, ukeys, side="right")
    has_tcp_u = t_hi > t_lo
    if len(tm):
        last_i = np.maximum(t_hi - 1, 0)
        last_srtt_u = np.where(has_tcp_u, tm["srtt_ms"][last_i], 0.0)
        last_cwnd_u = np.where(has_tcp_u, tm["cwnd_segments"][last_i], 0)
        last_mss_u = np.where(has_tcp_u, tm["mss"][last_i], 0)
    else:
        last_srtt_u = np.zeros(nu)
        last_cwnd_u = np.zeros(nu, dtype=np.int64)
        last_mss_u = np.zeros(nu, dtype=np.int64)
    srtt_min_u = np.full(nu, np.inf)
    rto_u = np.zeros(nu)
    has_pos_u = np.zeros(nu, dtype=bool)
    if len(tm) and nu:
        gi = np.minimum(np.searchsorted(ukeys, tkey), nu - 1)
        valid = ukeys[gi] == tkey
        srtt_all = tm["srtt_ms"]
        sub = valid & (srtt_all > 0)
        if sub.any():
            groups = gi[sub]
            srtt_s = srtt_all[sub]
            rto_s = RTO_FLOOR_MS + srtt_s + 4.0 * tm["rttvar_ms"][sub]
            group_u, group_start = np.unique(groups, return_index=True)
            srtt_min_u[group_u] = np.minimum.reduceat(srtt_s, group_start)
            rto_u[group_u] = np.maximum.reduceat(rto_s, group_start)
            has_pos_u[group_u] = True

    has_tcp = has_tcp_u[uinv]
    last_srtt = last_srtt_u[uinv]
    last_cwnd = last_cwnd_u[uinv]
    last_mss = last_mss_u[uinv]
    srtt_min = srtt_min_u[uinv]
    rto = rto_u[uinv]
    has_pos = has_pos_u[uinv]

    # -- elementwise chunk math (bit-exact record-path associations) --------
    d_wait = np.ascontiguousarray(cdn["d_wait_ms"])
    d_open = np.ascontiguousarray(cdn["d_open_ms"])
    d_read = np.ascontiguousarray(cdn["d_read_ms"])
    d_be = np.ascontiguousarray(cdn["d_be_ms"])
    chunk_bytes = np.ascontiguousarray(cdn["chunk_bytes"])
    d_cdn = d_wait + d_open + d_read
    server_ms = d_cdn + d_be
    total_dl = block.download_ms
    score = np.divide(
        block.chunk_duration_ms, total_dl, out=np.full(n, np.inf), where=total_dl > 0
    )
    latency_share = np.divide(dfb, total_dl, out=np.zeros(n), where=total_dl > 0)
    throughput_share = 1.0 - latency_share
    rtt0 = np.maximum(dfb - server_ms, 0.1)
    baseline = np.minimum(rtt0, srtt_min)
    ds_bound = np.where(
        has_pos, np.maximum(dfb - d_cdn - d_be - rto, 0.0), 0.0
    )
    drops = np.divide(
        block.dropped_frames,
        block.total_frames,
        out=np.zeros(n),
        where=block.total_frames > 0,
    )
    tp_inst = np.divide(
        chunk_bytes * 8.0, dlb, out=np.full(n, np.inf), where=dlb > 0
    )
    connection_tp = np.divide(
        (last_cwnd * last_mss) * 8.0, last_srtt, out=np.zeros(n), where=last_srtt > 0
    )
    transient_sig = (
        has_tcp & (last_srtt > 0) & (connection_tp > 0) & (tp_inst > 2.5 * connection_tp)
    )

    # -- Eq. 4 per-session outlier statistics -------------------------------
    qualified = has_tcp & (last_srtt > 0)
    idx_q = np.flatnonzero(qualified)
    transient_flag = np.zeros(n, dtype=bool)
    if len(idx_q):
        qcode = jcode[idx_q]
        _, q_inv, q_counts = np.unique(qcode, return_inverse=True, return_counts=True)
        q_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(q_counts)[:-1]]
        )
        features = np.stack(
            [
                dfb[idx_q],
                tp_inst[idx_q],
                last_srtt[idx_q],
                server_ms[idx_q],
                last_cwnd[idx_q].astype(np.float64),
            ],
            axis=1,
        )
        # inf TP_inst rows propagate nan through mean/std exactly like the
        # record path; nan comparisons are False either way
        with np.errstate(invalid="ignore"):
            mu = _grouped_seq_sum(features, q_starts, q_counts) / q_counts[:, None]
            diff = features - mu[q_inv]
            sigma = np.sqrt(
                _grouped_seq_sum(diff * diff, q_starts, q_counts) / q_counts[:, None]
            )
            mu_r = mu[q_inv]
            sg_r = sigma[q_inv]
            eligible = q_counts[q_inv] >= _MIN_EQ4_CHUNKS
            high_dfb = (features[:, 0] > mu_r[:, 0] + 2.0 * sg_r[:, 0]) & (sg_r[:, 0] > 0)
            high_tp = (features[:, 1] > mu_r[:, 1] + 2.0 * sg_r[:, 1]) & (sg_r[:, 1] > 0)
            normal_net = (
                (features[:, 2] < mu_r[:, 2] + sg_r[:, 2])
                & (features[:, 3] < mu_r[:, 3] + sg_r[:, 3])
                & (features[:, 4] < mu_r[:, 4] + sg_r[:, 4])
            )
        flagged = eligible & high_dfb & high_tp & normal_net
        flagged_keys = np.unique(jkey[idx_q][flagged])
        if len(flagged_keys):
            # the Eq. 4 flag set holds chunk *ids*, so every joined row
            # sharing a flagged (session, chunk) key is flagged
            fi = np.minimum(np.searchsorted(flagged_keys, jkey), len(flagged_keys) - 1)
            transient_flag = flagged_keys[fi] == jkey

    # -- the attribution cascade, as one np.select --------------------------
    with np.errstate(invalid="ignore"):
        c_transient = transient_flag | transient_sig
        c_ds_bound = (ds_bound > np.maximum(server_ms, baseline)) & (ds_bound > 100.0)
        c_server = (server_ms > baseline) & (server_ms > 40.0)
        c_bad = score < BAD_SCORE
        c_bad_tp = throughput_share >= 0.5
        c_tail = (baseline > TAIL_RTT_MS) & (
            np.ascontiguousarray(joined["rebuffer_count"]) > 0
        )
        c_render = (
            np.ascontiguousarray(joined["visible"])
            & ~np.ascontiguousarray(joined["hw_rendered"])
            & (drops > BAD_RENDER_FRACTION)
            & (score >= 1.5)
        )
    cds = _CODE_OF[Bottleneck.CLIENT_DOWNLOAD_STACK]
    block.verdict = np.select(
        [c_transient, c_ds_bound, c_server, c_bad & c_bad_tp, c_bad, c_tail, c_render],
        [
            cds,
            cds,
            _CODE_OF[Bottleneck.SERVER],
            _CODE_OF[Bottleneck.NETWORK_THROUGHPUT],
            _CODE_OF[Bottleneck.NETWORK_LATENCY],
            _CODE_OF[Bottleneck.NETWORK_LATENCY],
            _CODE_OF[Bottleneck.CLIENT_RENDERING],
        ],
        default=_CODE_OF[Bottleneck.NONE],
    ).astype(np.int64)

    # -- ground truth (last-wins, like the record path's dict rebuild) ------
    if want_truth:
        gkey = gt_code * fuse + gt["chunk_id"]
        has_truth, jt = _last_wins_match(gkey, jkey)
        labels = np.zeros(n, dtype=COLUMN_SCHEMAS["ground_truth"].dtype["fault_labels"])
        if has_truth.any():
            labels[has_truth] = gt["fault_labels"][jt[has_truth]]
        block.has_truth = has_truth
        block.fault_labels = labels
    else:
        block.has_truth = np.zeros(n, dtype=bool)
        block.fault_labels = np.zeros(
            n, dtype=COLUMN_SCHEMAS["ground_truth"].dtype["fault_labels"]
        )
    return block


# ---------------------------------------------------------------------------
# driver


_STATE_FACTORIES = {
    "qoe": _QoeState,
    "localization": _LocalizationState,
    "faultscore": _FaultScoreState,
}


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where available)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _computed_blocks(
    plan: _BlockPlan, want_cascade: bool, want_truth: bool
) -> Iterator[Optional[_JoinedBlock]]:
    """Every block of *plan*, computed, in block order.

    With ``plan.workers`` > 1 the blocks are computed on a thread pool
    (``_compute_block`` reads the plan and shares no mutable state), at
    most ``plan.workers`` at a time: the next block is submitted only
    once the caller has consumed the previous one.  Yielding in block
    order keeps every accumulator fold exactly as in the serial pass.
    """
    if plan.workers == 1:
        for i in range(plan.n_blocks):
            yield _compute_block(plan, i, want_cascade, want_truth)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(plan.workers, thread_name_prefix="analysis-block") as pool:
        def submit(i: int):
            return pool.submit(_compute_block, plan, i, want_cascade, want_truth)

        pending = deque(submit(i) for i in range(min(plan.workers, plan.n_blocks)))
        next_index = len(pending)
        while pending:
            yield pending.popleft().result()
            if next_index < plan.n_blocks:
                pending.append(submit(next_index))
                next_index += 1


def analyze_dataset(
    dataset: Any,
    analyses: Iterable[str] = ANALYSIS_KINDS,
    metrics: Optional[Any] = None,
) -> Dict[str, Any]:
    """One vectorized blockwise pass computing *analyses* over *dataset*.

    Returns ``{name: result}`` with each result bit-identical to its
    record-path spelling.  QoE-only passes skip loading TCP and
    ground-truth columns entirely.  Inputs that need more than one block
    are computed on one thread per usable core (see :class:`_BlockPlan`);
    spans and counters are only touched on the calling thread.
    """
    from .. import obs

    requested = tuple(analyses)
    for name in requested:
        if name not in ANALYSIS_KINDS:
            raise ValueError(
                f"unknown analysis {name!r}; choose from {ANALYSIS_KINDS}"
            )
    registry = metrics if metrics is not None else obs.MetricsRegistry()
    blocks_total = registry.counter("analysis.blocks_total")
    sessions_total = registry.counter("analysis.sessions_total")
    chunks_total = registry.counter("analysis.chunks_total")

    want_truth = "faultscore" in requested
    want_cascade = want_truth or "localization" in requested
    kinds = ["player_sessions", "cdn_sessions", "player_chunks", "cdn_chunks"]
    if want_cascade:
        kinds.append("tcp_snapshots")
    if want_truth:
        kinds.append("ground_truth")

    states = {name: _STATE_FACTORIES[name]() for name in requested}
    with registry.span("analysis.read"):
        runs = _dataset_runs(dataset, kinds)
        plan = _BlockPlan(runs, kinds, _usable_cores())
        with closing(_computed_blocks(plan, want_cascade, want_truth)) as blocks:
            for _ in range(plan.n_blocks):
                # the span covers this thread's wait for the block plus
                # its accumulator updates
                with registry.span("analysis.block"):
                    block = next(blocks)
                    blocks_total.inc()
                    if block is None:
                        continue
                    sessions_total.inc(block.n_kept)
                    chunks_total.inc(len(block.verdict))
                    for state in states.values():
                        state.update(block)
    if metrics is None:
        obs.publish_last_run(registry)
    return {name: states[name].result() for name in requested}
