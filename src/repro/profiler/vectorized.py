"""Vectorized dependence detection: segmented address-group scans.

The loop detector (:class:`~repro.profiler.serial.SerialProfiler`) walks
every memory event in Python against dict-backed shadow state.  This
module replaces that per-event interpreter with a **batched detection
core** that processes packed event rows with numpy segment scans:

1. incoming :class:`~repro.runtime.events.EventChunk` batches are
   buffered (chunk boundaries carry no detection semantics — unlike VM
   quanta — so fusing chunks into one batch is exact) and each batch's
   memory rows are stable-sorted by ``(addr, position)``: within one
   address the rows keep execution order, so each sorted run is one
   address's timeline;
2. FREE events (variable-lifetime eviction, §2.3.5) are counted per
   address with a merged searchsorted pass; rows of the same address
   with equal *free counts* form one **live epoch** — no eviction
   intervenes — and epoch boundaries cut the dependence chains exactly
   where ``shadow.evict`` would;
3. the last-write predecessor of every row is a segmented cumulative
   maximum over write positions; RAW and WAW sink→source pairs fall out
   directly, and the reads-since-last-write sets (the WAR sources, one
   entry per distinct source line, bounded by
   :data:`~repro.profiler.shadow.MAX_READS_PER_SLOT`) come from grouping
   read rows by ``(write-interval, line)`` with first-occurrence ranking
   replicating the insertion cap;
4. loop carriers are classified by comparing pre-decoded per-signature
   packed ``(region, iteration)`` matrices column-wise — the sentinel
   padding makes depth mismatches self-terminating — with a per-pair
   Python fallback for the rare nests deeper than
   :data:`SIG_DEPTH_CAP`;
5. occurrences are deduplicated with one packed-int64 sort over the
   identity columns and merged into the :class:`DependenceStore` in
   bulk — one dict update per *merged* dependence instead of one per
   event.

Cross-batch correctness comes from a compact :class:`ShadowFrontier`
carried between batches: flat sorted arrays holding, per live address,
the last write and the bounded read set.  Virtual rows synthesized from
the frontier are prepended to each address's timeline, so the in-batch
scans see exactly the state the loop detector's persistent shadow
would.

With ``signature_slots`` the same scans run keyed on ``addr % slots`` —
the paper's Formula-2.1 modulo hash vectorized over the address column —
including the collision counter and the approximate eviction semantics
of :class:`~repro.profiler.shadow.SignatureShadow`.

The resulting store is **bit-identical** to the loop detector's on every
workload (the three-way equivalence matrix in ``tests/test_detect.py``
is the tripwire); the detect bench suite
(``python -m benchmarks.suites detect``) tracks the throughput ratio.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

import numpy as np

from repro.profiler.deps import Dependence, DependenceStore, DepType
from repro.profiler.serial import ControlRecord, ProfileStats, classify_carrier
from repro.profiler.shadow import MAX_READS_PER_SLOT
from repro.runtime.events import (
    COL_ADDR,
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_SIG,
    COL_TID,
    COL_TS,
    EventChunk,
    K_BGN,
    K_END,
    K_FREE,
    K_READ,
    K_WRITE,
    SignatureTable,
    StringTable,
)

#: loop-context depth covered by the vectorized signature matrices;
#: deeper nests (rare) classify through the per-pair Python fallback
SIG_DEPTH_CAP = 8

#: bits reserved for the iteration number inside one packed signature
#: cell; regions/iterations beyond the packable range fall back too
_SIG_ITER_BITS = 40

#: events buffered before one segmented-scan pass (detection semantics
#: are chunk-boundary free, so batches amortize the fixed numpy costs).
#: A pass's scan temporaries grow with the batch; 16k rows hold them at
#: a few MB and ran faster than 8k, 32k or 64k (docs/DETECT.md)
DEFAULT_BATCH_EVENTS = 1 << 14

#: occurrence type codes, index-aligned with DepType strings
_TYPE_NAMES = (DepType.RAW, DepType.WAR, DepType.WAW)

_EMPTY = np.empty(0, dtype=np.int64)


def _multiarange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` blocks, fully vectorized."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    reps = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.cumsum(counts) - counts
    return starts[reps] + np.arange(total) - offsets[reps]


def _widened(arr: np.ndarray, rows: int, width: int, pad: int) -> np.ndarray:
    """``arr`` copied into a ``(rows, width)`` int64 matrix padded with
    ``pad``."""
    out = np.full((rows, width), pad, dtype=np.int64)
    out[: arr.shape[0], : arr.shape[1]] = arr
    return out


def _bits(arr: np.ndarray, lo: int = 0) -> int:
    """Bit width needed for ``arr``'s maximum (at least ``lo``)."""
    if arr.shape[0] == 0:
        return max(lo, 1)
    return max(int(arr.max()).bit_length(), lo, 1)


def shard_rows(rows: np.ndarray, n_shards: int, shards,
               overrides: Optional[dict[int, int]] = None) -> list[np.ndarray]:
    """The rows each entry of ``shards`` consumes, in trace order.

    The one address partition of both §2.3.3 profilers
    (:class:`~repro.profiler.parallel.ParallelProfiler` and
    :class:`~repro.profiler.sharded.ShardedDetector`): a memory row goes
    to shard ``addr % n_shards`` (Formula 2.1), or to ``overrides[addr]``
    for a redistributed hot address; a FREE row goes to every shard at
    its place in the trace, so each shard evicts a dead block exactly
    where the serial shadow would; no other row goes to any shard.  An
    entry of ``shards`` is one shard id or an array of them (a union of
    shard classes is itself a cell of the partition).
    """
    kinds = rows[:, COL_KIND]
    addrs = rows[:, COL_ADDR]
    owner = addrs % n_shards
    for addr, shard in (overrides or {}).items():
        owner[addrs == addr] = shard
    mem = kinds <= K_WRITE
    free = kinds == K_FREE
    return [
        rows[((np.isin(owner, s) if np.ndim(s) else owner == s) & mem) | free]
        for s in shards
    ]


def track_control_rows(control, cols, kinds, names) -> None:
    """Fold a batch's BGN/END rows into ``control`` records.

    Module-level so producer-side aggregators (the sharded detection
    parent and the parallel profiler, whose workers never receive
    control rows) reuse the exact segmented reduction the vectorized
    detector applies; ``cols`` is any column-major int64 view
    (``rows.T`` works).
    """
    cmask = (kinds == K_BGN) | (kinds == K_END)
    if not cmask.any():
        return
    c_idx = np.nonzero(cmask)[0]
    creg = cols[COL_ADDR, c_idx]
    # stable region sort: the first row of each segment is the
    # region's earliest occurrence (record-creation semantics)
    order = c_idx[np.argsort(creg, kind="stable")]
    sreg = cols[COL_ADDR, order]
    starts = np.nonzero(
        np.concatenate((np.ones(1, dtype=bool), sreg[1:] != sreg[:-1]))
    )[0]
    skind = kinds[order]
    sline = cols[COL_LINE, order]
    is_bgn = (skind == K_BGN).astype(np.int64)
    is_end = skind == K_END
    end_line = np.where(is_end, sline, -1)
    end_iters = np.where(is_end, cols[COL_AUX, order], 0)
    bgn_counts = np.add.reduceat(is_bgn, starts)
    max_end_line = np.maximum.reduceat(end_line, starts)
    iter_sums = np.add.reduceat(end_iters, starts)
    first = order[starts]
    first_nid = cols[COL_NAME, first]
    first_line = sline[starts]
    for region, nid, fline, execs, eline, iters in zip(
        sreg[starts].tolist(),
        first_nid.tolist(),
        first_line.tolist(),
        bgn_counts.tolist(),
        max_end_line.tolist(),
        iter_sums.tolist(),
    ):
        rec = control.get(region)
        if rec is None:
            rec = control[region] = ControlRecord(
                region, names[nid], fline, fline
            )
        rec.executions += execs
        if eline >= 0:
            rec.end_line = max(rec.end_line, eline)
        rec.total_iterations += iters


class ShadowFrontier:
    """Array-backed cross-batch shadow state.

    One row per live key (address, or slot in signature mode), sorted by
    key: the last write's ``(line, sig, tid, ts, addr)`` — ``line == -1``
    marks a key with pending reads but no write — plus a ragged read set
    (``r_off`` offsets into flat per-field arrays), at most
    :data:`MAX_READS_PER_SLOT` entries per key, mirroring the loop
    shadow's per-line latest-read dict.
    """

    __slots__ = (
        "keys", "w_line", "w_sig", "w_tid", "w_ts", "w_addr",
        "r_off", "r_line", "r_sig", "r_tid", "r_ts",
    )

    def __init__(self) -> None:
        self.keys = _EMPTY
        self.w_line = _EMPTY
        self.w_sig = _EMPTY
        self.w_tid = _EMPTY
        self.w_ts = _EMPTY
        self.w_addr = _EMPTY
        self.r_off = np.zeros(1, dtype=np.int64)
        self.r_line = _EMPTY
        self.r_sig = _EMPTY
        self.r_tid = _EMPTY
        self.r_ts = _EMPTY

    def __len__(self) -> int:
        return self.keys.shape[0]

    def read_counts(self) -> np.ndarray:
        return np.diff(self.r_off)

    def filter(self, keep: np.ndarray) -> None:
        """Drop the entries where ``keep`` is False (bulk eviction)."""
        if keep.all():
            return
        counts = self.read_counts()
        flat = _multiarange(self.r_off[:-1][keep], counts[keep])
        self.keys = self.keys[keep]
        self.w_line = self.w_line[keep]
        self.w_sig = self.w_sig[keep]
        self.w_tid = self.w_tid[keep]
        self.w_ts = self.w_ts[keep]
        self.w_addr = self.w_addr[keep]
        self.r_line = self.r_line[flat]
        self.r_sig = self.r_sig[flat]
        self.r_tid = self.r_tid[flat]
        self.r_ts = self.r_ts[flat]
        self.r_off = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts[keep]))
        )

    def lookup(self, key: int) -> int:
        """Index of ``key`` or -1."""
        i = int(np.searchsorted(self.keys, key))
        if i < self.keys.shape[0] and int(self.keys[i]) == key:
            return i
        return -1

    def memory_bytes(self) -> int:
        scalar = (
            self.keys.nbytes + self.w_line.nbytes + self.w_sig.nbytes
            + self.w_tid.nbytes + self.w_ts.nbytes + self.w_addr.nbytes
        )
        ragged = (
            self.r_off.nbytes + self.r_line.nbytes + self.r_sig.nbytes
            + self.r_tid.nbytes + self.r_ts.nbytes
        )
        return scalar + ragged


class VectorizedProfiler:
    """Batched dependence detection over packed event chunks.

    Drop-in peer of :class:`~repro.profiler.serial.SerialProfiler`
    (same ``stats``/``store``/``control`` surface and chunk-sink call
    convention) producing a bit-identical
    :class:`DependenceStore`.  ``signature_slots=None``
    keys the frontier on exact addresses (the PerfectShadow semantics);
    an integer keys it on ``addr % slots`` with the SignatureShadow's
    collision counting and approximate eviction.

    Chunks are buffered until ``batch_events`` rows are staged (pass 0
    to detect each chunk immediately); call :meth:`flush` — or
    :meth:`result`, which flushes — before reading ``store``/``stats``/
    ``control`` or the scalar shadow queries.
    """

    def __init__(
        self,
        signature_slots: Optional[int] = None,
        *,
        batch_events: int = DEFAULT_BATCH_EVENTS,
    ) -> None:
        if signature_slots is not None and signature_slots <= 0:
            raise ValueError("signature must have a positive number of slots")
        self.signature_slots = signature_slots
        self.store = DependenceStore()
        self.batch_events = batch_events
        self.stats = ProfileStats()
        self.control: dict[int, ControlRecord] = {}
        self.frontier = ShadowFrontier()
        #: Formula-2.2 hash conflicts observed (signature mode only)
        self.collisions = 0
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self._buffer_strings: Optional[StringTable] = None
        #: the stream's signature table, decoded into the matrices below
        self._sigs: Optional[SignatureTable] = None
        self._sig_n = 0
        self._sig_regs = np.zeros((0, 0), dtype=np.int64)
        self._sig_pack = np.zeros((0, 0), dtype=np.int64)
        self._sig_deep = np.zeros(0, dtype=bool)

    # -- signature matrices --------------------------------------------

    def _bind_sigs(self, sigs: SignatureTable) -> None:
        if self._sigs is None:
            self._sigs = sigs
        elif sigs is not self._sigs:
            raise ValueError(
                "vectorized detection requires one signature table per "
                "run (the frontier holds ids of the first)"
            )

    def _ensure_sigs(self, max_a: int, max_b: int = -1) -> None:
        max_id = max_a if max_a >= max_b else max_b
        return self._ensure_sigs_to(max_id)

    def _ensure_sigs_to(self, max_id: int) -> None:
        """Decode signature ids up to ``max_id`` into the flat matrices.

        Matrix cells pack ``(region << ITER_BITS) | iteration``; padding
        beyond a signature's depth is -1 in the packed matrix (equal
        padding self-terminates the column compare) and -2 in the region
        matrix (never equal to a real region, so a depth mismatch at the
        first differing column reads as "different loops" — exactly the
        reference scan's stop-at-exhaustion).

        The matrices have one row per signature the bound table holds
        when they grow, and one column per level of the deepest signature
        decoded so far (at most :data:`SIG_DEPTH_CAP`): a whole-trace
        run interns tens of thousands of shallow signatures.
        """
        if max_id < self._sig_n:
            return
        values = self._sigs.values
        if max_id >= len(values):
            raise IndexError(f"signature id {max_id} is not in the table")
        start = self._sig_n
        decoded = values[start: max_id + 1]
        counts = np.fromiter(map(len, decoded), np.int64, len(decoded))
        flat = np.array(
            [value for pairs in decoded for pair in pairs for value in pair],
            dtype=np.int64,
        ).reshape(-1, 2)
        sids = np.arange(start, max_id + 1)
        easy = counts <= SIG_DEPTH_CAP
        if flat.shape[0]:
            bad_vals = (
                (flat[:, 0] < 0)
                | (flat[:, 0] >= (1 << (62 - _SIG_ITER_BITS)))
                | (flat[:, 1] < 0)
                | (flat[:, 1] >= (1 << _SIG_ITER_BITS))
            )
            if bad_vals.any():  # pragma: no cover - pathological values
                easy = easy.copy()
                easy[np.repeat(
                    np.arange(len(decoded)), counts
                )[bad_vals]] = False
        rows, width = self._sig_regs.shape
        depth = int(counts[easy].max()) if easy.any() else 0
        if max_id >= rows or depth > width:
            rows = len(values) if max_id >= rows else rows
            width = max(width, depth)
            # one matrix at a time, so only one old copy is alive
            self._sig_regs = _widened(self._sig_regs, rows, width, -2)
            self._sig_pack = _widened(self._sig_pack, rows, width, -1)
            deep = np.zeros(rows, dtype=bool)
            deep[: self._sig_deep.shape[0]] = self._sig_deep
            self._sig_deep = deep
        self._sig_deep[sids[~easy]] = True
        fill = np.repeat(easy, counts)
        rows_idx = np.repeat(sids, counts)[fill]
        cols_idx = _multiarange(
            np.zeros(len(decoded), dtype=np.int64), counts
        )[fill]
        regions = flat[fill, 0]
        self._sig_regs[rows_idx, cols_idx] = regions
        self._sig_pack[rows_idx, cols_idx] = (
            (regions << _SIG_ITER_BITS) | flat[fill, 1]
        )
        self._sig_n = max_id + 1

    def _classify(self, src_ids: np.ndarray, snk_ids: np.ndarray) -> np.ndarray:
        """Carrier codes (region + 1, or 0 when not loop-carried)."""
        n = src_ids.shape[0]
        code = np.zeros(n, dtype=np.int64)
        if n == 0:
            return code
        # equal ids mean equal loop contexts: never carried; they are
        # the majority (same-iteration dependences), so drop them before
        # touching the matrices
        differs = src_ids != snk_ids
        if not differs.any():
            return code
        cand = np.nonzero(differs)[0]
        # occurrences repeat the same (source, sink) context pair many
        # times (merged WAR sets, rejoined loop exits): classify each
        # distinct pair once and scatter the verdicts back
        pair = (src_ids[cand] << np.int64(32)) | snk_ids[cand]
        p_order = np.argsort(pair)  # unstable: dedup only needs grouping
        sp = pair[p_order]
        p_new = np.ones(sp.shape[0], dtype=bool)
        p_new[1:] = sp[1:] != sp[:-1]
        inv = np.empty(sp.shape[0], dtype=np.int64)
        inv[p_order] = np.cumsum(p_new) - 1
        upair = sp[p_new]
        a = upair >> np.int64(32)
        b = upair & np.int64(0xFFFFFFFF)
        ucode = np.zeros(upair.shape[0], dtype=np.int64)
        self._ensure_sigs(int(a.max()), int(b.max()))
        deep = self._sig_deep
        deep_pair = deep[a] | deep[b]
        any_deep = bool(deep_pair.any())
        if any_deep:
            easy = np.nonzero(~deep_pair)[0]
            ea = a[easy]
            eb = b[easy]
        else:
            easy = None
            ea = a
            eb = b
        # first differing column of the packed (region, iteration) rows:
        # equal padding self-terminates, so no depth mask is needed
        neq = self._sig_pack[ea] != self._sig_pack[eb]
        hit = np.nonzero(neq.any(axis=1))[0]
        if hit.shape[0]:
            dpos = neq[hit].argmax(axis=1)
            regs = self._sig_regs
            ra = regs[ea[hit], dpos]
            rb = regs[eb[hit], dpos]
            carried = ra == rb  # same loop, differing iteration
            rows = hit[carried]
            if easy is not None:
                rows = easy[rows]
            ucode[rows] = ra[carried] + 1
        if any_deep:
            decode = self._sigs.values
            for i in np.nonzero(deep_pair)[0].tolist():
                carrier = classify_carrier(
                    decode[int(a[i])], decode[int(b[i])]
                )
                if carrier is not None:
                    ucode[i] = carrier + 1
        code[cand] = ucode[inv]
        return code

    # -- chunk ingestion / batching ------------------------------------

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk: EventChunk) -> None:
        """Stage one packed chunk."""
        rows = chunk.rows
        if rows.shape[0] == 0:
            return
        self._bind_sigs(chunk.sigs)
        if self.batch_events <= 0:
            self._run(rows, chunk.strings.values)
            return
        if (
            self._buffer_strings is not None
            and chunk.strings is not self._buffer_strings
        ):
            # a new string table invalidates buffered name ids
            self.flush()
        self._buffer_strings = chunk.strings
        self._buffer.append(rows)
        self._buffered += rows.shape[0]
        if self._buffered >= self.batch_events:
            self.flush()

    def flush(self) -> None:
        """Run the detection core over every buffered chunk."""
        if not self._buffer:
            return
        if len(self._buffer) == 1:
            rows = self._buffer[0]
        else:
            rows = np.concatenate(self._buffer)
        names = self._buffer_strings.values
        self._buffer = []
        self._buffered = 0
        self._buffer_strings = None
        self._run(rows, names)

    # -- free coverage helpers -----------------------------------------

    def _free_cover_keys(
        self, keys: np.ndarray, fbase: np.ndarray, fsize: np.ndarray,
        fpos: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(key_index, free_position) pairs for every covered sorted key."""
        slots = self.signature_slots
        if slots is None:
            lo = np.searchsorted(keys, fbase)
            hi = np.searchsorted(keys, fbase + fsize)
            counts = hi - lo
            return _multiarange(lo, counts), np.repeat(fpos, counts)
        parts_i: list[np.ndarray] = []
        parts_q: list[np.ndarray] = []
        for base, size, pos in zip(
            fbase.tolist(), fsize.tolist(), fpos.tolist()
        ):
            if size >= slots:
                idx = np.arange(keys.shape[0])
            else:
                idx = np.nonzero((keys - base) % slots < size)[0]
            if idx.shape[0]:
                parts_i.append(idx)
                parts_q.append(np.full(idx.shape[0], pos, dtype=np.int64))
        if not parts_i:
            return _EMPTY, _EMPTY
        return np.concatenate(parts_i), np.concatenate(parts_q)

    def _free_cover_mask(
        self, keys: np.ndarray, fbase: np.ndarray, fsize: np.ndarray
    ) -> np.ndarray:
        """Which sorted keys any of the frees covers (order-free evict)."""
        covered = np.zeros(keys.shape[0], dtype=bool)
        slots = self.signature_slots
        if slots is None:
            lo = np.searchsorted(keys, fbase)
            hi = np.searchsorted(keys, fbase + fsize)
            for a, b in zip(lo.tolist(), hi.tolist()):
                if a < b:
                    covered[a:b] = True
        else:
            for base, size in zip(fbase.tolist(), fsize.tolist()):
                if size >= slots:
                    covered[:] = True
                    break
                covered |= (keys - base) % slots < size
        return covered

    # -- bulk store merge ----------------------------------------------

    def _bulk_merge(
        self, typ, snk_line, src_line, nid, snk_tid, src_tid, code, race,
        names,
    ) -> None:
        """Dedup occurrences on one packed key; one dict op per group."""
        b_line = _bits(snk_line, _bits(src_line))
        b_nid = _bits(nid)
        b_code = _bits(code)
        b_tid = _bits(snk_tid, _bits(src_tid))
        if 2 * b_line + b_nid + b_code + 2 * b_tid + 2 <= 62:
            packed = (
                (((((((snk_line << b_line) | src_line) << b_nid) | nid)
                   << b_code | code) << b_tid | snk_tid) << b_tid
                 | src_tid) << 2 | typ
            )
            # unstable: groups are aggregated, order inside is irrelevant
            order = np.argsort(packed)
            sorted_key = packed[order]
            new_group = np.ones(order.shape[0], dtype=bool)
            new_group[1:] = sorted_key[1:] != sorted_key[:-1]
        else:  # pragma: no cover - gigantic line numbers only
            order = np.lexsort(
                (code, src_tid, snk_tid, nid, src_line, snk_line, typ)
            )
            new_group = np.ones(order.shape[0], dtype=bool)
            new_group[1:] = False
            for arr in (typ, snk_line, src_line, nid, snk_tid, src_tid, code):
                srt = arr[order]
                new_group[1:] |= srt[1:] != srt[:-1]
        starts = np.nonzero(new_group)[0]
        counts = np.diff(np.concatenate((starts, [order.shape[0]])))
        if race.any():
            race_any = np.logical_or.reduceat(race[order], starts).tolist()
        else:
            race_any = repeat(False)
        rep = order[starts]
        deps = self.store._deps
        for kl, ty, sl, nv, kt, st, cd, cnt, rc in zip(
            snk_line[rep].tolist(),
            typ[rep].tolist(),
            src_line[rep].tolist(),
            nid[rep].tolist(),
            snk_tid[rep].tolist(),
            src_tid[rep].tolist(),
            code[rep].tolist(),
            counts.tolist(),
            race_any,
        ):
            carried = cd != 0
            key = (kl, _TYPE_NAMES[ty], sl, names[nv], carried, kt, st)
            dep = deps.get(key)
            if dep is None:
                dep = Dependence(*key, count=0)
                deps[key] = dep
            dep.count += cnt
            if carried:
                dep.carriers.add(cd - 1)
            if rc:
                dep.maybe_race = True

    # -- the segmented detection core ----------------------------------

    def _run(self, rows: np.ndarray, names: list) -> None:
        # column-major copy: every downstream per-column gather is then
        # a contiguous 1D fancy index instead of a strided 2D row copy
        cols = np.empty((rows.shape[1], rows.shape[0]), dtype=np.int64)
        cols[:] = rows.T
        kinds = cols[COL_KIND]
        track_control_rows(self.control, cols, kinds, names)
        stats = self.stats
        kind_counts = np.bincount(kinds, minlength=K_FREE + 1)
        stats.reads += int(kind_counts[K_READ])
        stats.writes += int(kind_counts[K_WRITE])
        n_free = int(kind_counts[K_FREE])
        stats.evictions += n_free
        mem_idx = np.nonzero(kinds <= K_WRITE)[0]
        m = mem_idx.shape[0]
        frontier = self.frontier
        if n_free:
            f_idx = np.nonzero(kinds == K_FREE)[0]
            fbase = cols[COL_ADDR, f_idx]
            fsize = cols[COL_AUX, f_idx]
        if m == 0:
            # no memory traffic: frees can still evict frontier state
            if n_free and len(frontier):
                frontier.filter(
                    ~self._free_cover_mask(frontier.keys, fbase, fsize)
                )
            return

        addr = cols[COL_ADDR, mem_idx]
        slots = self.signature_slots
        key = addr % slots if slots is not None else addr

        # ---- sort by (key, position); derive per-key segments --------
        order = np.argsort(key, kind="stable")
        s_idx = mem_idx[order]
        s_key = key[order] if slots is not None else cols[COL_ADDR][s_idx]
        new_key = np.ones(m, dtype=bool)
        new_key[1:] = s_key[1:] != s_key[:-1]
        uniq_keys = s_key[new_key]
        nu = uniq_keys.shape[0]

        # ---- frontier lookup + virtual rows --------------------------
        n_virtual = 0
        if len(frontier):
            floc = np.searchsorted(frontier.keys, uniq_keys)
            safe_floc = np.minimum(floc, len(frontier) - 1)
            fhit = frontier.keys[safe_floc] == uniq_keys
            hit_u = np.nonzero(fhit)[0]
            hit_loc = safe_floc[hit_u]
            has_write = frontier.w_line[hit_loc] >= 0
            vw_u = hit_u[has_write]
            vw_loc = hit_loc[has_write]
            r_counts = frontier.read_counts()[hit_loc]
            vr_flat = _multiarange(frontier.r_off[:-1][hit_loc], r_counts)
            vr_u = np.repeat(hit_u, r_counts)
            n_vw = vw_u.shape[0]
            n_vr = vr_u.shape[0]
            n_virtual = n_vw + n_vr
        if n_virtual:
            # combined rows: [virtual writes, virtual reads, real rows]
            # — a stable key sort groups per key with exactly that
            # order, so frontier state precedes the batch's accesses
            c_key = np.concatenate((uniq_keys[vw_u], uniq_keys[vr_u], s_key))
            c_order = np.argsort(c_key, kind="stable")
            cat = np.concatenate
            c_key = c_key[c_order]
            c_pos = cat((
                np.full(n_vw, -2, dtype=np.int64),
                np.full(n_vr, -1, dtype=np.int64),
                s_idx,
            ))[c_order]
            c_line = cat((
                frontier.w_line[vw_loc],
                frontier.r_line[vr_flat],
                cols[COL_LINE, s_idx],
            ))[c_order]
            c_sig = cat((
                frontier.w_sig[vw_loc],
                frontier.r_sig[vr_flat],
                cols[COL_SIG, s_idx],
            ))[c_order]
            c_tid = cat((
                frontier.w_tid[vw_loc],
                frontier.r_tid[vr_flat],
                cols[COL_TID, s_idx],
            ))[c_order]
            c_ts = cat((
                frontier.w_ts[vw_loc],
                frontier.r_ts[vr_flat],
                cols[COL_TS, s_idx],
            ))[c_order]
            c_nid = cat((
                np.zeros(n_virtual, dtype=np.int64),
                cols[COL_NAME, s_idx],
            ))[c_order]
            c_write = cat((
                np.ones(n_vw, dtype=bool),
                np.zeros(n_vr, dtype=bool),
                cols[COL_KIND, s_idx] == K_WRITE,
            ))[c_order]
            c_real = c_pos >= 0
            if slots is not None:
                c_addr = cat((
                    frontier.w_addr[vw_loc],
                    np.zeros(n_vr, dtype=np.int64),
                    cols[COL_ADDR, s_idx],
                ))[c_order]
            else:
                c_addr = c_key
        else:
            c_key = s_key
            c_pos = s_idx
            c_line = cols[COL_LINE, s_idx]
            c_sig = cols[COL_SIG, s_idx]
            c_tid = cols[COL_TID, s_idx]
            c_ts = cols[COL_TS, s_idx]
            c_nid = cols[COL_NAME, s_idx]
            c_write = cols[COL_KIND, s_idx] == K_WRITE
            c_real = None
            c_addr = cols[COL_ADDR, s_idx]
        total = c_key.shape[0]
        first_of_key = np.ones(total, dtype=bool)
        first_of_key[1:] = c_key[1:] != c_key[:-1]
        uidx = np.cumsum(first_of_key) - 1

        # ---- free epochs: count covering frees before every row ------
        cov_u = _EMPTY
        if n_free:
            cov_u, cov_q = self._free_cover_keys(
                uniq_keys, fbase, fsize, f_idx
            )
        if cov_u.shape[0]:
            # merged key space: (key index) << 32 | (position + 2); all
            # virtual rows sit below every free, as they must.  Only the
            # rows of covered keys can see a nonzero count, so the scan
            # runs on that subset (frees usually touch few live keys)
            cov_sorted = np.sort((cov_u << np.int64(32)) | (cov_q + 2))
            covered_key = np.zeros(nu, dtype=bool)
            covered_key[cov_u] = True
            sub = np.nonzero(covered_key[uidx])[0]
            sub_keys = uidx[sub] << np.int64(32)
            sub_cnt = (
                np.searchsorted(cov_sorted, sub_keys | (c_pos[sub] + 2))
                - np.searchsorted(cov_sorted, sub_keys)
            )
            u_range = np.arange(nu + 1, dtype=np.int64) << np.int64(32)
            free_total = np.diff(np.searchsorted(cov_sorted, u_range))
            epochs = True
            if sub_cnt.any():
                fcnt = np.zeros(total, dtype=np.int64)
                fcnt[sub] = sub_cnt
                new_grp = first_of_key.copy()
                new_grp[1:] |= fcnt[1:] != fcnt[:-1]
                grp = np.cumsum(new_grp) - 1
            else:
                # every free lands after its keys' last access: epoch
                # cuts collapse and only end-of-batch survival is left
                fcnt = None
                new_grp = first_of_key
                grp = uidx
        else:
            new_grp = first_of_key
            grp = uidx
            epochs = False

        # ---- live-epoch groups + previous-write chain ----------------
        idx = np.arange(total, dtype=np.int64)
        w_at = np.where(c_write, idx, -1)
        grp_off = grp * np.int64(total + 1)
        incl = np.maximum.accumulate(w_at + grp_off) - grp_off
        prev_w = np.empty(total, dtype=np.int64)
        prev_w[0] = -1
        prev_w[1:] = np.where(new_grp[1:], -1, incl[:-1])
        # write-interval id: the preceding write row, or a per-group
        # sentinel for reads before the group's first write
        interval = np.where(prev_w >= 0, prev_w, total + grp)

        # ---- RAW: every real read against its last write -------------
        read_rows = ~c_write
        if c_real is None:
            raw_snk = np.nonzero(read_rows & (prev_w >= 0))[0]
        else:
            raw_snk = np.nonzero(read_rows & c_real & (prev_w >= 0))[0]
        raw_src = prev_w[raw_snk]

        # ---- read sets per write interval (cap + latest per line) ----
        rd_idx = np.nonzero(read_rows)[0]
        if rd_idx.shape[0]:
            r_int = interval[rd_idx]
            r_line = c_line[rd_idx]
            b_pos = _bits(c_pos[rd_idx] + 2)
            b_line = _bits(r_line)
            # rows arrive position-ordered and interval-grouped, so a
            # stable sort on (interval, line) alone leaves each group
            # position-sorted — and timsort exploits the long runs
            if _bits(r_int) + b_line <= 62:
                rs_order = np.argsort(
                    (r_int << b_line) | r_line, kind="stable"
                )
            else:  # pragma: no cover - enormous batches only
                rs_order = np.lexsort((r_line, r_int))
            rs = rd_idx[rs_order]
            si = r_int[rs_order]
            sl = r_line[rs_order]
            g_new = np.ones(rs.shape[0], dtype=bool)
            g_new[1:] = (si[1:] != si[:-1]) | (sl[1:] != sl[:-1])
            g_first = np.nonzero(g_new)[0]
            g_last = np.empty(g_first.shape[0], dtype=np.int64)
            g_last[:-1] = g_first[1:] - 1
            g_last[-1] = rs.shape[0] - 1
            g_int = si[g_first]
            # insertion order = first occurrence; the cap keeps only the
            # first MAX_READS_PER_SLOT distinct lines of an interval
            # ties are only possible among one interval's frontier
            # groups, which the cap keeps wholesale — unstable is safe
            g_pos = c_pos[rs[g_first]] + 2
            g_order = np.argsort((g_int << b_pos) | g_pos)
            gi = g_int[g_order]
            gi_new = np.ones(gi.shape[0], dtype=bool)
            gi_new[1:] = gi[1:] != gi[:-1]
            gi_starts = np.nonzero(gi_new)[0]
            rank = (
                np.arange(gi.shape[0])
                - gi_starts[np.cumsum(gi_new) - 1]
            )
            kept_mask = rank < MAX_READS_PER_SLOT
            kept_int = gi[kept_mask]
            kept_row = rs[g_last][g_order][kept_mask]
        else:
            kept_int = _EMPTY
            kept_row = _EMPTY

        # ---- real writes: INIT / WAR fan-out / WAW -------------------
        if c_real is None:
            wr_rows = np.nonzero(c_write)[0]
        else:
            wr_rows = np.nonzero(c_write & c_real)[0]
        wr_prev = prev_w[wr_rows]
        init_rows = wr_rows[wr_prev < 0]
        if init_rows.shape[0]:
            self.store.init_lines.update(
                np.unique(c_line[init_rows]).tolist()
            )
        dep_w = wr_rows[wr_prev >= 0]
        dep_prev = wr_prev[wr_prev >= 0]
        if slots is not None and dep_w.shape[0]:
            self.collisions += int(
                (c_addr[dep_w] != c_addr[dep_prev]).sum()
            )
        lo = np.searchsorted(kept_int, dep_prev, side="left")
        hi = np.searchsorted(kept_int, dep_prev, side="right")
        n_war = hi - lo
        war_snk = np.repeat(dep_w, n_war)
        war_src = kept_row[_multiarange(lo, n_war)]
        waw_mask = n_war == 0
        waw_snk = dep_w[waw_mask]
        waw_src = dep_prev[waw_mask]

        # ---- occurrence assembly, carriers, bulk merge ---------------
        snk = np.concatenate((raw_snk, war_snk, waw_snk))
        built = snk.shape[0]
        if built:
            src = np.concatenate((raw_src, war_src, waw_src))
            typ = np.zeros(built, dtype=np.int64)
            typ[raw_snk.shape[0]: raw_snk.shape[0] + war_snk.shape[0]] = 1
            typ[raw_snk.shape[0] + war_snk.shape[0]:] = 2
            code = self._classify(c_sig[src], c_sig[snk])
            race = c_ts[src] > c_ts[snk]
            self._bulk_merge(
                typ, c_line[snk], c_line[src], c_nid[snk], c_tid[snk],
                c_tid[src], code, race, names,
            )
            stats.deps_built += built
            self.store.raw_occurrences += built

        # ---- frontier update -----------------------------------------
        last_of_key = np.empty(total, dtype=bool)
        last_of_key[:-1] = first_of_key[1:]
        last_of_key[-1] = True
        last_rows = idx[last_of_key]
        state_w = incl[last_rows]
        if epochs:
            if fcnt is None:
                survive = free_total == 0
            else:
                survive = free_total == fcnt[last_rows]
            touched = np.nonzero(survive)[0]
            state_int = np.where(
                state_w >= 0, state_w, total + grp[last_rows]
            )
            t_w = state_w[touched]
        else:
            survive = None
            touched = np.arange(nu)
            state_int = np.where(state_w >= 0, state_w, total + grp[last_rows])
            t_w = state_w
        safe_w = np.maximum(t_w, 0)
        has_w = t_w >= 0
        new_w_line = np.where(has_w, c_line[safe_w], -1)
        new_w_sig = np.where(has_w, c_sig[safe_w], 0)
        new_w_tid = np.where(has_w, c_tid[safe_w], 0)
        new_w_ts = np.where(has_w, c_ts[safe_w], 0)
        new_w_addr = np.where(has_w, c_addr[safe_w], 0)
        # the surviving read set: kept groups of each key's final interval
        if kept_row.shape[0]:
            k_u = uidx[kept_row]
            live_g = state_int[k_u] == kept_int
            if survive is not None:
                live_g &= survive[k_u]
            live_rows = kept_row[live_g]
            live_u = k_u[live_g]
            r_order = np.argsort(live_u, kind="stable")
            live_rows = live_rows[r_order]
            new_r_counts = np.bincount(live_u, minlength=nu)[touched]
        else:
            live_rows = _EMPTY
            new_r_counts = np.zeros(touched.shape[0], dtype=np.int64)

        # old entries survive when untouched and not covered by a free
        if len(frontier):
            old_loc = np.searchsorted(uniq_keys, frontier.keys)
            safe_old = np.minimum(old_loc, nu - 1)
            keep_old = uniq_keys[safe_old] != frontier.keys
            if n_free:
                keep_old &= ~self._free_cover_mask(
                    frontier.keys, fbase, fsize
                )
            n_old = int(keep_old.sum())
        else:
            keep_old = np.zeros(0, dtype=bool)
            n_old = 0

        out = ShadowFrontier()
        if n_old == 0:
            # common fast path: the frontier is rebuilt from this batch
            out.keys = uniq_keys[touched]
            out.w_line = new_w_line
            out.w_sig = new_w_sig
            out.w_tid = new_w_tid
            out.w_ts = new_w_ts
            out.w_addr = new_w_addr
            out.r_off = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(new_r_counts))
            )
            out.r_line = c_line[live_rows]
            out.r_sig = c_sig[live_rows]
            out.r_tid = c_tid[live_rows]
            out.r_ts = c_ts[live_rows]
        else:
            old_counts = frontier.read_counts()[keep_old]
            old_flat = _multiarange(frontier.r_off[:-1][keep_old], old_counts)
            all_keys = np.concatenate(
                (frontier.keys[keep_old], uniq_keys[touched])
            )
            merge_order = np.argsort(all_keys, kind="stable")

            def merged(old_vals, new_vals):
                return np.concatenate((old_vals, new_vals))[merge_order]

            out.keys = all_keys[merge_order]
            out.w_line = merged(frontier.w_line[keep_old], new_w_line)
            out.w_sig = merged(frontier.w_sig[keep_old], new_w_sig)
            out.w_tid = merged(frontier.w_tid[keep_old], new_w_tid)
            out.w_ts = merged(frontier.w_ts[keep_old], new_w_ts)
            out.w_addr = merged(frontier.w_addr[keep_old], new_w_addr)
            counts_cat = np.concatenate((old_counts, new_r_counts))
            counts_all = counts_cat[merge_order]
            out.r_off = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(counts_all))
            )
            # flat reads in concat order, then permuted entry-block-wise
            flat_line = np.concatenate(
                (frontier.r_line[old_flat], c_line[live_rows])
            )
            flat_sig = np.concatenate(
                (frontier.r_sig[old_flat], c_sig[live_rows])
            )
            flat_tid = np.concatenate(
                (frontier.r_tid[old_flat], c_tid[live_rows])
            )
            flat_ts = np.concatenate(
                (frontier.r_ts[old_flat], c_ts[live_rows])
            )
            src_off = np.concatenate((
                np.zeros(1, dtype=np.int64),
                np.cumsum(counts_cat),
            ))
            gather = _multiarange(
                src_off[:-1][merge_order], counts_all
            )
            out.r_line = flat_line[gather]
            out.r_sig = flat_sig[gather]
            out.r_tid = flat_tid[gather]
            out.r_ts = flat_ts[gather]
        self.frontier = out

    # -- scalar shadow queries (parallel redistribution, debugging) ----

    def _key_of(self, addr: int) -> int:
        slots = self.signature_slots
        return addr % slots if slots is not None else addr

    def last_write(self, addr: int) -> Optional[tuple]:
        i = self.frontier.lookup(self._key_of(addr))
        if i < 0 or int(self.frontier.w_line[i]) < 0:
            return None
        fr = self.frontier
        return (
            int(fr.w_line[i]), int(fr.w_sig[i]), int(fr.w_tid[i]),
            int(fr.w_ts[i]),
        )

    def reads_since_write(self, addr: int) -> list[tuple]:
        fr = self.frontier
        i = fr.lookup(self._key_of(addr))
        if i < 0:
            return []
        lo, hi = int(fr.r_off[i]), int(fr.r_off[i + 1])
        return [
            (
                int(fr.r_line[j]), int(fr.r_sig[j]), int(fr.r_tid[j]),
                int(fr.r_ts[j]),
            )
            for j in range(lo, hi)
        ]

    def pop_address_state(self, addr: int):
        """Remove and return ``(last_write, reads)`` for one address."""
        self.flush()
        state = (self.last_write(addr), self.reads_since_write(addr))
        i = self.frontier.lookup(self._key_of(addr))
        if i >= 0:
            keep = np.ones(len(self.frontier), dtype=bool)
            keep[i] = False
            self.frontier.filter(keep)
        return state

    def put_address_state(self, addr: int, state) -> None:
        """Install ``(last_write, reads)`` for one address (state move)."""
        self.flush()
        lw, reads = state
        if lw is None and not reads:
            return
        key = self._key_of(addr)
        fr = self.frontier
        i = fr.lookup(key)
        if i >= 0:
            keep = np.ones(len(fr), dtype=bool)
            keep[i] = False
            fr.filter(keep)
        pos = int(np.searchsorted(fr.keys, key))
        line, sig, tid, ts = lw if lw is not None else (-1, 0, 0, 0)
        fr.keys = np.insert(fr.keys, pos, key)
        fr.w_line = np.insert(fr.w_line, pos, line)
        fr.w_sig = np.insert(fr.w_sig, pos, sig)
        fr.w_tid = np.insert(fr.w_tid, pos, tid)
        fr.w_ts = np.insert(fr.w_ts, pos, ts)
        fr.w_addr = np.insert(fr.w_addr, pos, addr)
        reads = reads[:MAX_READS_PER_SLOT]
        flat_pos = int(fr.r_off[pos])
        fr.r_off = np.concatenate((
            fr.r_off[: pos + 1],
            fr.r_off[pos:] + len(reads),
        ))
        for field, col in (
            ("r_line", 0), ("r_sig", 1), ("r_tid", 2), ("r_ts", 3)
        ):
            arr = getattr(fr, field)
            vals = np.array([r[col] for r in reads], dtype=np.int64)
            setattr(
                fr, field,
                np.concatenate((arr[:flat_pos], vals, arr[flat_pos:])),
            )

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        sig_bytes = (
            self._sig_regs.nbytes + self._sig_pack.nbytes
            + self._sig_deep.nbytes
        )
        buffered = sum(block.nbytes for block in self._buffer)
        return (
            self.frontier.memory_bytes() + sig_bytes + buffered
            + self.store.memory_bytes()
        )

    def result(self) -> DependenceStore:
        self.flush()
        return self.store

