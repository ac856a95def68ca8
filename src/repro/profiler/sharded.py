"""Sharded multi-process detection: out-of-core dependence analysis.

The vectorized detector (:mod:`repro.profiler.vectorized`) removed the
per-event Python interpreter from detection, but one process still runs
every segmented scan under the GIL — the scalability ceiling §2.3.3
attacks with address sharding.  This module lifts that design across
*process* boundaries:

* the parent partitions incoming event rows by ``addr % n_shards``
  with :func:`~repro.profiler.vectorized.shard_rows`, the Formula-2.1
  partition :class:`ParallelProfiler` uses too: FREE events go to every
  shard in trace order (lifetime eviction must reach every worker
  holding state for a freed range);
* each shard's rows travel through ``multiprocessing.shared_memory``
  slabs: the parent blits packed ``(n, N_COLS)`` int64 rows into a
  pooled slab and publishes ``("rows", slab, n, ...)`` to every worker;
  a worker copies out its shard with one boolean gather and acks the
  slab for reuse.  No event data is ever pickled;
* every worker runs the unmodified vectorized segment scans over its
  shard; at :meth:`ShardedDetector.finalize` the per-shard
  :class:`DependenceStore`\\ s are streamed into one store
  (:meth:`DependenceStore.merge_from`, the §2.3.5 runtime merge — its
  ``to_dict`` ordering is merge-order independent) and the per-shard
  :class:`ShadowFrontier`\\ s are merged with one sorted gather
  (:func:`merge_frontiers`; ``addr % n_shards`` makes the key sets
  disjoint, so the merge is a permutation).

Because each address's full timeline lands in exactly one worker and
frees reach all of them, the exact mode (perfect shadow) is
**bit-identical** to the single-process vectorized detector — same
store, control records, and stats; the frontier matches up to the
intra-key ordering of ragged read sets, which is batch-boundary
dependent even in the serial detector (:func:`canonical_frontier`
normalizes it).  The registry-wide sweep in ``tests/test_detect.py``
is the tripwire.  With
``signature_slots`` set, per-shard hashing loses the cross-shard slot
collisions the serial signature shadow would see (the same documented
approximation §2.3.3 accepts).

The interned tables ride along incrementally: the string and
loop-signature tables only ever grow, so the parent ships only the
*suffix* of newly interned entries with each slab message and every
worker grows a local mirror — a few tuples per message instead of
event data.

**Sampling mode** (``sampling=rate``) is the accuracy-gated lossy path:
the parent forwards every write / control / FREE row but only a
deterministic hash-selected fraction of the reads — stratified per
``(loop signature, line, tid)`` so the first read of every access
context in every loop iteration always ships (see
:class:`ShardSampler` for why that asymmetry preserves precision).
The detect bench suite (``python -m benchmarks.suites detect``)
measures the resulting precision/recall against the exact store (:func:`repro.profiler.deps.store_accuracy`)
and gates on it.

**Supervision** (``policy=RetryPolicy(...)``): every dispatched batch is
journaled to disk, worker messages carry a per-shard generation tag, and
the blocking waits poll with liveness checks instead of hanging on the
queue.  A dead or hung worker is recovered by replaying *only its shard's
partition* from the journal — ``addr % n_shards`` keeps shard state
disjoint, so a re-run + re-merge is bit-identical — escalating
retry shard → restart pool → degrade to in-process serial vectorized
detection (warn + ``resilience.degraded`` metric) rather than raising.
Without a policy the detector keeps the legacy contract: any worker
failure raises :class:`ShardedDetectionError`.  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue as queue_mod
import tempfile
import time
import traceback
import warnings
from multiprocessing import shared_memory
from typing import Optional, Union

import numpy as np

from repro.resilience import FaultPlan, RetryPolicy, WorkerFaultInjector

from repro.profiler.deps import DependenceStore
from repro.profiler.serial import ControlRecord, ProfileStats
from repro.profiler.vectorized import (
    ShadowFrontier,
    VectorizedProfiler,
    _multiarange,
    shard_rows,
    track_control_rows,
)
from repro.runtime.events import (
    COL_ADDR,
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
    N_COLS,
    SignatureTable,
    StringTable,
)

#: worker processes when ``detect_workers`` is not given
DEFAULT_SHARD_WORKERS = 4

#: rows per shared-memory slab (and the parent's staging batch): 128k
#: rows x 9 int64 columns = 9 MiB per slab, amortizing the per-message
#: fixed costs while keeping the slab pool bounded
DEFAULT_SLAB_ROWS = 1 << 17

_EMPTY = np.empty(0, dtype=np.int64)

#: per-process run counter: slab names become ``repro<pid>d<run>s<i>``
#: so a leak scan of /dev/shm can anchor on one run's prefix
_RUN_SEQ = itertools.count()

# splitmix64 finalizer constants (deterministic event-sampling hash)
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)


class ShardedDetectionError(RuntimeError):
    """A worker process failed; carries the remote traceback.

    When the run had observability on, the failing worker ships what it
    had alongside the traceback: ``worker_metrics`` is its
    metrics-registry snapshot and ``worker_spans`` its span-lane bundle
    (:meth:`repro.obs.trace.Tracer.ship` format) — so a crashed shard
    still reports what it was doing.  Both stay ``None`` when obs was
    off or the failure predates instrumentation.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: Optional[int] = None,
        worker_metrics: Optional[dict] = None,
        worker_spans: Optional[list] = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.worker_metrics = worker_metrics
        self.worker_spans = worker_spans


# ---------------------------------------------------------------------------
# frontier merging (shared by the parent and the in-process tests)
# ---------------------------------------------------------------------------


def merge_frontiers(frontiers) -> ShadowFrontier:
    """Merge per-shard frontiers into one sorted frontier.

    ``addr % n_shards`` partitions the key space, so the inputs' key
    sets are disjoint (exact mode) and the merge is a permutation: one
    stable sort over the concatenated keys, scalar columns gathered
    directly, the ragged read sets re-gathered entry-block-wise with
    the same offset arithmetic the in-batch frontier rebuild uses.
    Associativity/commutativity — any merge order yields bit-identical
    arrays — follows from the sort; ``tests/test_sharded.py`` checks it
    property-style.
    """
    parts = [f for f in frontiers if len(f)]
    out = ShadowFrontier()
    if not parts:
        return out
    if len(parts) == 1:
        src = parts[0]
        for slot in ShadowFrontier.__slots__:
            setattr(out, slot, getattr(src, slot).copy())
        return out
    all_keys = np.concatenate([f.keys for f in parts])
    order = np.argsort(all_keys, kind="stable")
    out.keys = all_keys[order]
    for slot in ("w_line", "w_sig", "w_tid", "w_ts", "w_addr"):
        out_col = np.concatenate([getattr(f, slot) for f in parts])
        setattr(out, slot, out_col[order])
    counts = np.concatenate([f.read_counts() for f in parts])[order]
    out.r_off = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    # per-entry source offsets into the concatenated flat read arrays
    bases = np.cumsum([0] + [f.r_line.shape[0] for f in parts[:-1]])
    src_starts = np.concatenate(
        [f.r_off[:-1] + base for f, base in zip(parts, bases)]
    )
    gather = _multiarange(src_starts[order], counts)
    for slot in ("r_line", "r_sig", "r_tid", "r_ts"):
        flat = np.concatenate([getattr(f, slot) for f in parts])
        setattr(out, slot, flat[gather])
    return out


def canonical_frontier(frontier: ShadowFrontier) -> ShadowFrontier:
    """Copy with each key's read set in canonical order.

    The order *within* one key's ragged read set depends on where batch
    boundaries fell (true of the serial vectorized detector too — it is
    not part of the detector contract; the set contents are).  Sorting
    each read block by ``(line, sig, tid, ts)`` makes frontiers from
    different batchings / shardings directly comparable.
    """
    out = ShadowFrontier()
    for slot in ShadowFrontier.__slots__:
        setattr(out, slot, getattr(frontier, slot).copy())
    counts = out.read_counts()
    entry = np.repeat(np.arange(counts.shape[0]), counts)
    order = np.lexsort((out.r_ts, out.r_tid, out.r_sig, out.r_line, entry))
    for slot in ("r_line", "r_sig", "r_tid", "r_ts"):
        setattr(out, slot, getattr(out, slot)[order])
    return out


def _frontier_arrays(frontier: ShadowFrontier) -> dict:
    """Picklable array bundle (the worker->parent frontier transport)."""
    return {slot: getattr(frontier, slot) for slot in ShadowFrontier.__slots__}


def _frontier_from_arrays(arrays: dict) -> ShadowFrontier:
    frontier = ShadowFrontier()
    for slot, arr in arrays.items():
        setattr(frontier, slot, arr)
    return frontier


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------


def _worker_obs_payload(tracer, registry) -> dict:
    """The observability fields a worker ships home (possibly empty)."""
    payload: dict = {}
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if tracer is not None and tracer.enabled:
        payload["spans"] = tracer.ship()
    return payload


def _shard_worker(
    shard: int,
    n_shards: int,
    slab_names: list,
    slab_rows: int,
    task_q,
    result_q,
    signature_slots: Optional[int],
    obs_mode: str = "off",
    gen: int = 0,
    heartbeat: bool = False,
    fault_events: Optional[list] = None,
) -> None:
    """Worker main: consume slab/replay messages, detect one shard.

    Module-level (not a closure) so the spawn start method can pickle
    it; the interned string and signature tables arrive as incremental
    suffixes and grow local mirrors.

    With ``obs_mode`` on, the worker keeps its own tracer / metrics
    registry and ships them in the final ``done`` payload (or alongside
    the traceback on failure) — one span per consumed message, counters
    for rows seen/kept, and the peak RSS this process reached.

    Every message back to the parent carries ``gen``, the attempt
    generation this worker was spawned at — the supervisor discards
    stale-generation messages from workers it has already replaced.
    With ``heartbeat`` on (supervised runs) the worker reports a
    liveness ``("hb", shard, gen)`` on receipt of every task message,
    before any processing, so the parent can tell hung from slow.
    ``fault_events`` carries this attempt's slice of a test-only
    :class:`~repro.resilience.FaultPlan`; production runs pass None.
    """
    slabs = []
    tracer = registry = None
    faults = WorkerFaultInjector(fault_events or [])
    batch = 0
    try:
        if obs_mode != "off":
            from repro.obs import MetricsRegistry, Tracer

            registry = MetricsRegistry()
            tracer = Tracer(
                enabled=(obs_mode == "trace"),
                process_label=f"detect.shard{shard}",
            )
        slabs = [
            shared_memory.SharedMemory(name=name) for name in slab_names
        ]
        views = [
            np.ndarray((slab_rows, N_COLS), dtype=np.int64, buffer=s.buf)
            for s in slabs
        ]
        strings = StringTable()
        sigs = SignatureTable()
        profiler = VectorizedProfiler(signature_slots)
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "finish":
                break
            # faults fire before any queue traffic: an injected kill
            # must not die holding the result queue's write lock (a
            # poisoned lock silences every worker — the pool-restart
            # rung rebuilds the queue to recover from the real thing)
            drop_ack = faults.on_message(batch) if faults else False
            batch += 1
            if heartbeat:
                result_q.put(("hb", shard, gen))
            if tracer is not None and tracer.enabled:
                tracer.begin("shard.batch", "detect")
            if kind == "rows":
                _, idx, n, names_sfx, sigs_sfx = msg
                rows = views[idx][:n]
                mine = shard_rows(rows, n_shards, [shard])[0]
                # the gather above copied out of the slab: ack first so
                # the parent can refill it while this shard detects
                if not drop_ack:
                    result_q.put(("ack", idx, shard, gen))
                seen = n
            else:  # "npy": replay one journaled batch, mapped read-only
                _, path, names_sfx, sigs_sfx = msg
                seg = np.load(path, mmap_mode="r")
                seen = seg.shape[0]
                mine = shard_rows(seg, n_shards, [shard])[0]
                del seg
            if names_sfx:
                # ids align by construction: the parent ships each
                # interned value exactly once, in id order
                strings.values.extend(names_sfx)
            if sigs_sfx:
                sigs.values.extend(sigs_sfx)
            if mine.shape[0]:
                profiler.process_chunk(EventChunk(mine, strings, sigs))
            if registry is not None:
                registry.counter(
                    "batches", "messages this shard consumed"
                ).inc()
                registry.counter(
                    "rows_seen", "rows offered to this shard"
                ).inc(int(seen))
                registry.counter(
                    "rows_processed", "rows this shard detected on"
                ).inc(int(mine.shape[0]))
            if tracer is not None and tracer.enabled:
                tracer.end()
        if tracer is not None and tracer.enabled:
            tracer.begin("shard.finalize", "detect")
        profiler.flush()
        if tracer is not None and tracer.enabled:
            tracer.end()
        if registry is not None:
            registry.counter(
                "deps_built", "dependences built by this shard"
            ).inc(profiler.stats.deps_built)
            registry.gauge(
                "frontier_keys", "live shadow-frontier addresses"
            ).set(len(profiler.frontier))
            registry.gauge(
                "memory_bytes", "detector-resident bytes"
            ).set(profiler.memory_bytes())
            try:
                import resource

                registry.gauge(
                    "peak_rss_kb", "peak resident set of this worker"
                ).set(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                )
            except ImportError:  # pragma: no cover - non-POSIX
                pass
        payload = {
            "store": profiler.store,
            "frontier": _frontier_arrays(profiler.frontier),
            "deps_built": profiler.stats.deps_built,
            "collisions": profiler.collisions,
            "memory_bytes": profiler.memory_bytes(),
        }
        payload.update(_worker_obs_payload(tracer, registry))
        if faults:
            payload = faults.on_done(payload)
        result_q.put(("done", shard, gen, payload))
    except BaseException:  # pragma: no cover - exercised via error test
        result_q.put((
            "error",
            shard,
            gen,
            traceback.format_exc(),
            _worker_obs_payload(tracer, registry),
        ))
    finally:
        for slab in slabs:
            slab.close()


# ---------------------------------------------------------------------------
# the replay journal
# ---------------------------------------------------------------------------


class _ReplayJournal:
    """Disk journal of every dispatched batch, in dispatch order.

    Supervised runs journal each slab piece (post-sampler, so replays
    never re-flip sampling coins) as a raw ``.npy`` file.  A restarted
    shard worker replays the whole journal as ``("npy", ...)`` messages
    — its ``addr % n_shards`` gather re-derives exactly the partition
    the failed attempt held, with no slab/ack bookkeeping.
    """

    def __init__(self) -> None:
        self._dir = tempfile.mkdtemp(prefix="repro-journal-")
        self.entries: list[str] = []

    def record_rows(self, rows: np.ndarray) -> None:
        path = os.path.join(self._dir, f"batch{len(self.entries):06d}.npy")
        np.save(path, rows)
        self.entries.append(path)

    def close(self) -> None:
        for path in self.entries:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        try:
            os.rmdir(self._dir)
        except OSError:  # pragma: no cover - non-empty/missing
            pass
        self.entries = []


# ---------------------------------------------------------------------------
# the accuracy-gated sampler
# ---------------------------------------------------------------------------


#: slots of the sampler's last-kind read guard (uint32 each, 32 MiB):
#: a slot eviction by a colliding address only forces an extra keep,
#: and the 31-bit tag makes trusting a stale state — the one failure
#: that could fabricate a WAW — a ~2^-54 per-pair event
READ_GUARD_SLOTS = 1 << 23


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= _MIX_B
    x ^= x >> np.uint64(27)
    x *= _MIX_C
    x ^= x >> np.uint64(31)
    return x


class ShardSampler:
    """Deterministic stratified read sampling (the lossy mode).

    Writes (and control, FREE, allocation rows) always ship: a dropped
    write would leave stale state in the shadow frontier and bind later
    accesses to the wrong source — fabricated dependences, a
    *precision* loss with no bound.  Reads keep with probability
    ``rate`` under a splitmix64 hash of ``(addr, ts)`` — deterministic,
    so a sampled run is exactly reproducible — with two classes of
    reads exempt from the coin flip:

    * the first occurrence of every ``(loop signature, line, tid)``
      stratum.  The detector classifies a dependence as loop-carried
      from the *latest* read per line; dropping a repeat read would
      leave an older iteration's read as latest and flip the carried
      bit.  Keeping each context's first read per iteration signature
      keeps that state fresh.
    * the first read after every write per address (tracked in a
      last-kind signature table of :data:`READ_GUARD_SLOTS` byte
      slots).  The §2.5.2 consecutive-write rule suppresses a WAW
      whenever *any* read intervenes, so one surviving read per write
      interval preserves WAW suppression exactly; without it, dropped
      reads resurrect WAWs the exact run never reports.

    What remains sampled are repeat reads within a write interval and
    iteration — exactly the reads whose dependences are already merged
    into existing identities, so the loss lands on *recall* of rare
    access patterns rather than precision.  On a short trace nearly
    every read is exempt and the sampled run converges to the exact
    one; on a long trace the strata saturate and the hash keeps
    roughly ``rate`` of the repeat reads.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError("sampling rate must be in (0, 1]")
        self.rate = rate
        self.threshold = np.uint64(min(int(rate * 2.0**64), 2**64 - 1))
        self.kept_events = 0
        self.total_events = 0
        self._seen: set[int] = set()
        # last-kind guard, one uint32 per slot: bit 0 = a read already
        # shipped since the last write, bits 1-31 = address tag.  A tag
        # mismatch means another address evicted this one's state; the
        # guard then errs toward force-keeping (see _guarded_reads), so
        # slot collisions cost shipped volume, never precision.
        self._guard = np.zeros(READ_GUARD_SLOTS, dtype=np.uint32)

    def _guarded_reads(
        self, kinds: np.ndarray, mem_idx: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Boolean (over ``mem_idx``): reads the WAW guard force-keeps.

        Replays the batch's memory accesses per (slot, tag) pseudo
        address (stable sort preserves trace order within a group) and
        marks each read whose previous same-address access is a write —
        plus the group's first read unless the carried-in state proves
        a read already shipped since this address's last write.
        """
        mixed = _mix64(rows[mem_idx, COL_ADDR].astype(np.uint64) * _MIX_A)
        slots = (mixed & np.uint64(READ_GUARD_SLOTS - 1)).astype(np.int64)
        tags = (
            (mixed >> np.uint64(24)) & np.uint64(0x7FFF_FFFF)
        ).astype(np.uint32)
        # group by slot AND tag so two colliding addresses replay as
        # separate sequences instead of interleaving into one
        key = (slots << np.int64(31)) | tags.astype(np.int64)
        order = np.argsort(key, kind="stable")
        s = slots[order]
        t = tags[order]
        ky = key[order]
        k = kinds[mem_idx][order]
        grp_start = np.empty(s.shape[0], dtype=bool)
        grp_start[0] = True
        np.not_equal(ky[1:], ky[:-1], out=grp_start[1:])
        prev_is_write = np.empty(s.shape[0], dtype=bool)
        prev_is_write[0] = False
        np.equal(k[:-1], K_WRITE, out=prev_is_write[1:])
        prev_is_write &= ~grp_start
        # carried-in: skip the force-keep only when the slot provably
        # holds THIS address's state and a read already shipped
        stored = self._guard[s]
        read_shipped = (stored >> np.uint32(1) == t) & (
            stored & np.uint32(1)
        ).astype(bool)
        forced = (k == K_READ) & (
            prev_is_write | (grp_start & ~read_shipped)
        )
        grp_end = np.empty(s.shape[0], dtype=bool)
        grp_end[:-1] = grp_start[1:]
        grp_end[-1] = True
        self._guard[s[grp_end]] = (t[grp_end] << np.uint32(1)) | (
            k[grp_end] == K_READ
        ).astype(np.uint32)
        out = np.empty(mem_idx.shape[0], dtype=bool)
        out[order] = forced
        return out

    def filter(self, rows: np.ndarray) -> np.ndarray:
        """Rows that ship, order preserved."""
        kinds = rows[:, COL_KIND]
        mem_idx = np.nonzero(kinds <= K_WRITE)[0]
        self.total_events += rows.shape[0]
        if mem_idx.shape[0] == 0:
            self.kept_events += rows.shape[0]
            return rows
        keep = self._guarded_reads(kinds, mem_idx, rows)
        is_read = kinds[mem_idx] == K_READ
        keep |= ~is_read  # writes always ship
        read_idx = mem_idx[is_read]
        if read_idx.shape[0]:
            x = _mix64(
                rows[read_idx, COL_ADDR].astype(np.uint64) * _MIX_A
                ^ rows[read_idx, COL_TS].astype(np.uint64) * _MIX_B
            )
            keep[is_read] |= x < self.threshold
            # stratum key: splitmix-mixed (sig, line, tid); a hash
            # collision merely treats a new stratum as seen
            # (deterministically), so correctness never depends on the
            # packing being injective
            strat = _mix64(
                rows[read_idx, COL_SIG].astype(np.uint64) * _MIX_A
                ^ rows[read_idx, COL_LINE].astype(np.uint64) * _MIX_B
                ^ rows[read_idx, COL_TID].astype(np.uint64) * _MIX_C
            )
            uniq, first = np.unique(strat, return_index=True)
            seen = self._seen
            fresh = [
                i for i, key in enumerate(uniq.tolist()) if key not in seen
            ]
            if fresh:
                seen.update(uniq[fresh].tolist())
                read_pos = np.nonzero(is_read)[0]
                keep[read_pos[first[fresh]]] = True
        mask = np.ones(rows.shape[0], dtype=bool)
        mask[mem_idx] = keep
        self.kept_events += int(mask.sum())
        return rows[mask]


# ---------------------------------------------------------------------------
# the parent-side detector
# ---------------------------------------------------------------------------


class ShardedDetector:
    """Multi-process detection front end with the vectorized surface.

    Drop-in peer of :class:`VectorizedProfiler` for the backend layer:
    same chunk-sink call convention and ``store``/``stats``/``control``/
    ``collisions``/``memory_bytes`` surface, plus
    :meth:`finalize`, which joins the workers and merges their stores
    and frontiers (idempotent; :meth:`~SerialBackend.finish` calls it).

    The parent does only O(rows) bookkeeping per batch — kind counts
    for :class:`ProfileStats`, producer-side BGN/END control records,
    interned-suffix watermarks, the optional sampler — then one memcpy
    into a shared-memory slab.  All segmented scanning happens in the
    workers.
    """

    def __init__(
        self,
        signature_slots: Optional[int] = None,
        *,
        n_shards: int = DEFAULT_SHARD_WORKERS,
        sampling: Optional[float] = None,
        batch_events: int = DEFAULT_SLAB_ROWS,
        slab_rows: int = DEFAULT_SLAB_ROWS,
        policy: Optional[Union[RetryPolicy, dict]] = None,
        faults: Optional[Union[FaultPlan, dict]] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("need at least one shard worker")
        self.signature_slots = signature_slots
        self.n_shards = n_shards
        self.sampling = sampling
        self.sampler = ShardSampler(sampling) if sampling is not None else None
        self.store = DependenceStore()
        self.batch_events = batch_events
        self.slab_rows = slab_rows
        self.stats = ProfileStats()
        self.control: dict[int, ControlRecord] = {}
        self.collisions = 0
        #: merged cross-shard frontier, available after :meth:`finalize`
        self.frontier: Optional[ShadowFrontier] = None
        self.worker_memory_bytes = 0
        self.shipped_events = 0
        self._strings: Optional[StringTable] = None
        self._sigs: Optional[SignatureTable] = None
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        # interned-suffix watermarks: slot 0 (None / empty signature) is
        # pre-seeded in every worker, so shipping starts at id 1.
        # *_sent advances when a suffix is computed, *_pub when the
        # message carrying it is actually published — a replay prefix
        # must stop at the published mark, or a restart that fires while
        # a computed suffix is still in flight would ship those entries
        # twice and shift every later id in the replacement's tables
        self._names_sent = 1
        self._sigs_sent = 1
        self._names_pub = 1
        self._sigs_pub = 1
        self._procs: Optional[list] = None
        self._task_qs: list = []
        self._result_q = None
        self._slabs: list = []
        self._views: list = []
        self._free_slabs: list[int] = []
        #: per-slab set of shards that have not acked it yet
        self._pending: list[set] = []
        self._finalized = False
        #: engine observability (attach_obs); None = obs off
        self._tracer = None
        self._metrics = None
        # -- supervision (docs/RESILIENCE.md) --------------------------
        if isinstance(policy, dict):
            policy = RetryPolicy.from_dict(policy)
        if isinstance(faults, dict):
            faults = FaultPlan.from_dict(faults)
        #: no policy = legacy contract: worker failures raise, the old
        #: hardcoded waits become the policy's (configurable) defaults
        self.policy = policy if policy is not None else RetryPolicy.disabled()
        self.faults = faults
        #: recovery-action tally, mirrored into ``resilience.*`` metrics
        self.recovery: dict[str, int] = {
            "worker_deaths": 0,
            "hung_workers": 0,
            "worker_errors": 0,
            "bad_payloads": 0,
            "shard_retries": 0,
            "pool_restarts": 0,
            "degraded": 0,
            "cleanup_failures": 0,
        }
        #: /dev/shm name prefix for this run's slabs (leak-scan anchor)
        self.shm_prefix = f"repro{os.getpid()}d{next(_RUN_SEQ)}"
        self._journal: Optional[_ReplayJournal] = None
        self._gen = [0] * n_shards
        self._last_seen = [0.0] * n_shards
        self._slab_sent: list[float] = []
        self._done_shards: set[int] = set()
        self._payloads: dict[int, dict] = {}
        self._shard_retries = [0] * n_shards
        self._total_retries = 0
        self._pool_restarts = 0
        self._finishing = False
        self._degraded: Optional[VectorizedProfiler] = None
        self._serial_shards: Optional[np.ndarray] = None
        self._ctx = None
        self._obs_mode = "off"
        self._slab_names: list[str] = []

    def attach_obs(self, tracer, metrics) -> None:
        """Adopt the engine's tracer/metrics; must precede first dispatch.

        The worker obs mode is derived from what is attached, so calls
        after the pool started would silently not reach the workers —
        hence the guard.
        """
        if self._procs is not None:
            raise RuntimeError(
                "attach_obs must be called before workers start"
            )
        self._tracer = tracer if tracer is not None and tracer.enabled \
            else None
        self._metrics = metrics

    # -- interned tables -----------------------------------------------

    def _bind_tables(
        self, strings: StringTable, sigs: SignatureTable
    ) -> None:
        if self._strings is None:
            self._strings, self._sigs = strings, sigs
        elif strings is not self._strings or sigs is not self._sigs:
            raise ValueError(
                "sharded detection requires one string and signature "
                "table per run (interned ids already shipped to the "
                "workers)"
            )

    def _suffixes(self, rows: np.ndarray) -> tuple[tuple, tuple]:
        """Interned-table suffixes the shipped rows require."""
        names_sfx: tuple = ()
        sigs_sfx: tuple = ()
        max_nid = int(rows[:, COL_NAME].max(initial=0))
        if max_nid >= self._names_sent:
            values = self._strings.values
            names_sfx = tuple(values[self._names_sent: max_nid + 1])
            self._names_sent = max_nid + 1
        max_sig = int(rows[:, COL_SIG].max(initial=0))
        if max_sig >= self._sigs_sent:
            sigs_sfx = tuple(self._sigs.values[self._sigs_sent: max_sig + 1])
            self._sigs_sent = max_sig + 1
        return names_sfx, sigs_sfx

    # -- worker pool ---------------------------------------------------

    def _ensure_workers(self) -> None:
        if self._procs is not None:
            return
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._ctx = ctx = mp.get_context(method)
        n_slabs = self.n_shards + 2
        slab_bytes = self.slab_rows * N_COLS * 8
        self._slabs = [
            shared_memory.SharedMemory(
                create=True, size=slab_bytes,
                name=f"{self.shm_prefix}s{i}",
            )
            for i in range(n_slabs)
        ]
        self._views = [
            np.ndarray(
                (self.slab_rows, N_COLS), dtype=np.int64, buffer=s.buf
            )
            for s in self._slabs
        ]
        self._free_slabs = list(range(n_slabs))
        self._pending = [set() for _ in range(n_slabs)]
        self._slab_sent = [0.0] * n_slabs
        self._result_q = ctx.Queue()
        self._task_qs = [ctx.SimpleQueue() for _ in range(self.n_shards)]
        self._slab_names = [s.name for s in self._slabs]
        obs_mode = "off"
        if self._tracer is not None:
            obs_mode = "trace"
        elif self._metrics is not None:
            obs_mode = "metrics"
        self._obs_mode = obs_mode
        if self.policy.supervise and self._journal is None:
            self._journal = _ReplayJournal()
        now = time.monotonic()
        self._last_seen = [now] * self.n_shards
        self._procs = [None] * self.n_shards
        for shard in range(self.n_shards):
            self._spawn(shard)

    def _spawn(self, shard: int) -> None:
        gen = self._gen[shard]
        fault_events = (
            self.faults.for_worker(shard, gen) if self.faults else None
        )
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                shard, self.n_shards, self._slab_names, self.slab_rows,
                self._task_qs[shard], self._result_q,
                self.signature_slots, self._obs_mode, gen,
                self.policy.supervise, fault_events,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[shard] = proc

    # -- supervision ---------------------------------------------------

    @property
    def _supervised(self) -> bool:
        return self.policy.supervise and self._journal is not None

    def _note(self, action: str, value: int = 1, **fields) -> None:
        """Tally a recovery action into ``recovery`` + obs (if attached)."""
        self.recovery[action] = self.recovery.get(action, 0) + value
        if self._metrics is not None:
            self._metrics.counter(
                f"resilience.{action}",
                f"sharded-detector recovery actions: {action}",
            ).inc(value)
        if self._tracer is not None:
            self._tracer.complete(
                f"resilience.{action}", "detect", self._tracer.now(), 0,
                args=fields or None,
            )

    def _valid_payload(self, payload) -> bool:
        """Reject malformed done payloads before they reach merge_from."""
        try:
            if not isinstance(payload, dict):
                return False
            if not isinstance(payload["store"], DependenceStore):
                return False
            frontier = payload["frontier"]
            if set(frontier) != set(ShadowFrontier.__slots__):
                return False
            if not all(
                isinstance(arr, np.ndarray) for arr in frontier.values()
            ):
                return False
            int(payload["deps_built"])
            int(payload["collisions"])
            int(payload["memory_bytes"])
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def _check_liveness(self, quiet_since: float) -> bool:
        """Declare dead/hung shards failed and run the recovery ladder.

        Returns True when a recovery action ran — the caller must then
        unwind to its wait condition, because a restart can satisfy it
        without any message arriving (clearing a dead shard's ack
        obligations frees slabs while the dispatcher is still parked
        inside the result pump).

        A shard is *dead* when its process exited without a (valid) done
        payload; *hung* when it holds an obligation — an unacked slab,
        or a missing done payload after finish — and has shown no
        liveness signal (heartbeat/ack/done) past ``hang_timeout``.
        A heartbeat counts as progress: a restarted worker chewing
        through a journal replay acks late but beats on every message,
        so it is slow, not hung.  ``quiet_since`` is the last time *any*
        worker message arrived; total silence past ``done_timeout``
        (the former hardcoded 120 s queue wait) fails every incomplete
        shard regardless of obligations.
        """
        now = time.monotonic()
        policy = self.policy
        failed: dict[int, str] = {}
        for shard, proc in enumerate(self._procs):
            if shard in self._done_shards:
                continue
            if not proc.is_alive():
                failed[shard] = (
                    f"worker died (exit code {proc.exitcode})"
                )
        if failed:
            self._note("worker_deaths", value=len(failed))
        else:
            for idx, pend in enumerate(self._pending):
                for shard in sorted(pend - self._done_shards):
                    age = now - max(
                        self._slab_sent[idx], self._last_seen[shard]
                    )
                    if age > policy.hang_timeout:
                        failed.setdefault(
                            shard,
                            f"slab {idx} unacknowledged and no liveness "
                            f"signal for {age:.1f}s",
                        )
            if self._finishing:
                for shard in range(self.n_shards):
                    quiet = now - self._last_seen[shard]
                    if (
                        shard not in self._done_shards
                        and quiet > policy.hang_timeout
                    ):
                        failed.setdefault(
                            shard,
                            f"no liveness signal for {quiet:.1f}s "
                            "while finishing",
                        )
            if not failed and now - quiet_since > policy.done_timeout:
                for shard in range(self.n_shards):
                    if shard not in self._done_shards:
                        failed.setdefault(
                            shard,
                            "result queue silent beyond done_timeout="
                            f"{policy.done_timeout}s",
                        )
            if failed:
                self._note("hung_workers", value=len(failed))
        if failed:
            self._recover(failed)
        return bool(failed)

    def _recover(self, failed: dict) -> None:
        """Retry failed shards, escalating when their budget is spent."""
        if not self._supervised:
            shard = min(failed)
            raise ShardedDetectionError(
                f"shard worker {shard} failed: {failed[shard]}",
                shard=shard,
            )
        for shard in sorted(failed):
            self._shard_retries[shard] += 1
            if self._shard_retries[shard] > self.policy.max_shard_retries:
                self._escalate(failed[shard])
                return
        self._total_retries += len(failed)
        self._note(
            "shard_retries", value=len(failed),
            shards=sorted(failed), reasons=sorted(set(failed.values())),
        )
        delay = self.policy.backoff_delay(self._total_retries)
        if delay > 0:
            time.sleep(delay)
        for shard in sorted(failed):
            self._restart_shard(shard)

    def _restart_shard(self, shard: int) -> None:
        """Replace one worker and replay its partition from the journal."""
        proc = self._procs[shard]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=self.policy.join_timeout)
        # release its ack obligations so the slab pool cannot starve on
        # a worker that no longer exists; its replacement replays those
        # rows from the journal without slab bookkeeping
        for idx, pend in enumerate(self._pending):
            if shard in pend:
                pend.discard(shard)
                if not pend and idx not in self._free_slabs:
                    self._free_slabs.append(idx)
        self._gen[shard] += 1
        self._task_qs[shard] = self._ctx.SimpleQueue()
        self._spawn(shard)
        self._last_seen[shard] = time.monotonic()
        self._replay(shard)

    def _replay(self, shard: int) -> None:
        """Resend the journal to a fresh worker, tables first."""
        task_q = self._task_qs[shard]
        names_sfx: tuple = ()
        sigs_sfx: tuple = ()
        # prefix up to the *published* watermark only: a suffix computed
        # for a batch still being dispatched ships with that batch's
        # first piece, and must reach the replacement exactly once
        if self._strings is not None and self._names_pub > 1:
            names_sfx = tuple(self._strings.values[1:self._names_pub])
        if self._sigs_pub > 1:
            sigs_sfx = tuple(self._sigs.values[1:self._sigs_pub])
        for path in self._journal.entries:
            task_q.put(("npy", path, names_sfx, sigs_sfx))
            names_sfx = sigs_sfx = ()
        if self._finishing:
            task_q.put(("finish",))

    def _escalate(self, reason: str) -> None:
        """Shard budget exhausted: restart the pool, then degrade."""
        if self._pool_restarts < self.policy.max_pool_restarts:
            self._pool_restarts += 1
            self._note("pool_restarts", reason=reason)
            incomplete = [
                s for s in range(self.n_shards)
                if s not in self._done_shards
            ]
            # a worker killed mid-write can die holding the shared
            # result queue's write lock, silencing every survivor; the
            # pool rung swaps in a fresh queue (replays make the lost
            # in-flight messages moot) before replacing the workers
            old_q = self._result_q
            self._result_q = self._ctx.Queue()
            for shard in incomplete:
                self._shard_retries[shard] = 0
                self._restart_shard(shard)
            try:
                old_q.close()
            except OSError as exc:  # pragma: no cover - OS dependent
                self._cleanup_failure(f"closing stale result queue: {exc}")
            return
        if self.policy.degrade:
            self._degrade(reason)
            return
        raise ShardedDetectionError(
            f"shard recovery budget exhausted: {reason}"
        )

    def _degrade(self, reason: str) -> None:
        """Last rung: finish the incomplete shards in-process, serially.

        One :class:`VectorizedProfiler` replays the journal filtered to
        the union of incomplete shard classes — a coarser cell of the
        same ``addr % n_shards`` partition, so its store/frontier equal
        the merge of the per-shard results bit-for-bit.  Completed
        shards keep their already-received payloads.
        """
        self._note("degraded", reason=reason)
        warnings.warn(
            "sharded detection degraded to in-process serial vectorized "
            f"detection: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=self.policy.join_timeout)
        self._release_slabs()
        incomplete = [
            s for s in range(self.n_shards) if s not in self._done_shards
        ]
        self._serial_shards = np.array(incomplete, dtype=np.int64)
        serial = VectorizedProfiler(self.signature_slots)
        self._degraded = serial
        for path in self._journal.entries:
            rows = np.load(path, mmap_mode="r")
            self._feed_serial(rows)

    def _feed_serial(self, rows: np.ndarray) -> None:
        """Run the degraded profiler over the incomplete shards' rows."""
        part = shard_rows(rows, self.n_shards, [self._serial_shards])[0]
        if part.shape[0]:
            self._degraded.process_chunk(
                EventChunk(part, self._strings, self._sigs)
            )

    def _pump_result(self, block: bool):
        """Consume one meaningful worker message (ack or done).

        Supervised runs poll at ``policy.poll_interval`` and run the
        liveness check on every quiet tick; legacy runs block up to
        ``policy.done_timeout`` per wait (formerly hardcoded 120 s) and
        raise if a worker died.  Messages from replaced worker
        generations are discarded.  Returns None after a recovery
        action (callers re-check their wait condition) and on
        degradation.
        """
        supervised = self._supervised
        policy = self.policy
        timeout = (
            policy.poll_interval if supervised else policy.done_timeout
        )
        last_msg = time.monotonic()
        while True:
            if self._degraded is not None:
                return None
            try:
                msg = self._result_q.get(
                    block=block, timeout=timeout if block else None
                )
            except queue_mod.Empty:
                if not block:
                    return None
                if supervised:
                    if self._check_liveness(last_msg):
                        # recovery ran: a restart may have freed slabs
                        # with no message in flight — unwind so the
                        # caller re-checks what it is waiting for
                        return None
                    continue
                if any(not p.is_alive() for p in self._procs):
                    raise ShardedDetectionError(
                        "a shard worker died without reporting"
                    ) from None
                continue
            last_msg = time.monotonic()
            kind = msg[0]
            if kind == "hb":
                _, shard, gen = msg
                if gen == self._gen[shard]:
                    self._last_seen[shard] = time.monotonic()
                continue
            if kind == "ack":
                _, idx, shard, gen = msg
                if gen != self._gen[shard]:
                    continue  # stale ack from a replaced worker
                self._last_seen[shard] = time.monotonic()
                pend = self._pending[idx]
                pend.discard(shard)
                if not pend and idx not in self._free_slabs:
                    self._free_slabs.append(idx)
                if not block:
                    continue
                return msg
            if kind == "error":
                _, shard, gen, tb, obs = msg
                spans = (obs or {}).get("spans")
                if spans and self._tracer is not None:
                    # keep what the dying worker recorded on the parent
                    # timeline: a later export shows its final activity
                    self._tracer.absorb(spans)
                if gen != self._gen[shard] or shard in self._done_shards:
                    continue
                if not supervised:
                    raise ShardedDetectionError(
                        f"shard worker {shard} failed:\n{tb}",
                        shard=shard,
                        worker_metrics=(obs or {}).get("metrics"),
                        worker_spans=spans,
                    )
                self._note("worker_errors", shard=shard)
                self._recover({shard: f"worker raised:\n{tb}"})
                return None
            if kind == "done":
                _, shard, gen, payload = msg
                if gen != self._gen[shard] or shard in self._done_shards:
                    continue
                self._last_seen[shard] = time.monotonic()
                if not self._valid_payload(payload):
                    if not supervised:
                        raise ShardedDetectionError(
                            f"shard worker {shard} returned a corrupt "
                            "done payload",
                            shard=shard,
                        )
                    self._note("bad_payloads", shard=shard)
                    self._recover({shard: "corrupt done payload"})
                    return None
                self._done_shards.add(shard)
                self._payloads[shard] = payload
                return msg
            return msg

    def _acquire_slab(self) -> Optional[int]:
        """Pop a free slab, pumping results while the pool is saturated.

        Returns None if the run degraded while waiting — the caller
        feeds the remaining rows straight to the serial profiler.
        """
        if not self._free_slabs and self._tracer is not None:
            with self._tracer.span(
                "slab.wait", "detect", free=len(self._free_slabs)
            ):
                while not self._free_slabs:
                    if self._degraded is not None:
                        return None
                    self._pump_result(block=True)
        while not self._free_slabs:
            if self._degraded is not None:
                return None
            self._pump_result(block=True)
        return self._free_slabs.pop()

    # -- ingestion -----------------------------------------------------

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk: EventChunk) -> None:
        """Stage one packed chunk."""
        if self._finalized:
            raise RuntimeError("detector already finalized")
        if chunk.rows.shape[0] == 0:
            return
        self._bind_tables(chunk.strings, chunk.sigs)
        self._buffer.append(chunk.rows)
        self._buffered += chunk.rows.shape[0]
        if self._buffered >= self.batch_events:
            self.flush()

    def flush(self) -> None:
        """Ship every buffered row to the workers."""
        if not self._buffer:
            return
        if len(self._buffer) == 1:
            rows = self._buffer[0]
        else:
            rows = np.concatenate(self._buffer)
        self._buffer = []
        self._buffered = 0
        self._dispatch(rows)

    def _bookkeep(self, rows: np.ndarray) -> None:
        kinds = rows[:, COL_KIND]
        kind_counts = np.bincount(kinds, minlength=K_FREE + 1)
        self.stats.reads += int(kind_counts[K_READ])
        self.stats.writes += int(kind_counts[K_WRITE])
        self.stats.evictions += int(kind_counts[K_FREE])
        if kind_counts[K_BGN] or kind_counts[K_END]:
            track_control_rows(
                self.control, rows.T, kinds, self._strings.values
            )

    def _dispatch(self, rows: np.ndarray) -> None:
        if self._degraded is not None:
            # serial fallback: same bookkeeping + sampling, then feed
            # the incomplete shards' partition to the in-process profiler
            self._bookkeep(rows)
            if self.sampler is not None:
                rows = self.sampler.filter(rows)
                if rows.shape[0] == 0:
                    return
            self.shipped_events += rows.shape[0]
            self._feed_serial(rows)
            return
        self._ensure_workers()
        self._bookkeep(rows)
        if self.sampler is not None:
            rows = self.sampler.filter(rows)
            if rows.shape[0] == 0:
                return
        names_sfx, sigs_sfx = self._suffixes(rows)
        self.shipped_events += rows.shape[0]
        if self._metrics is not None:
            self._metrics.counter(
                "detect.shipped_events", "event rows shipped to workers"
            ).inc(int(rows.shape[0]))
        for start in range(0, rows.shape[0], self.slab_rows):
            piece = rows[start: start + self.slab_rows]
            idx = self._acquire_slab()
            if idx is None:
                # degraded while waiting: the journal already holds
                # every published piece (replayed by _degrade), so only
                # the unpublished remainder goes to the serial profiler
                self._feed_serial(rows[start:])
                return
            n = piece.shape[0]
            if self._journal is not None:
                self._journal.record_rows(piece)
            if self._tracer is not None:
                self._tracer.begin("slab.ship", "detect", rows=n, slab=idx)
            self._views[idx][:n] = piece
            self._pending[idx] = set(range(self.n_shards))
            self._slab_sent[idx] = time.monotonic()
            msg = ("rows", idx, n, names_sfx, sigs_sfx)
            names_sfx = sigs_sfx = ()  # suffixes ship once, in order
            for task_q in self._task_qs:
                task_q.put(msg)
            self._names_pub = self._names_sent
            self._sigs_pub = self._sigs_sent
            if self._tracer is not None:
                self._tracer.end()
            if self._metrics is not None:
                self._metrics.counter(
                    "detect.slabs_shipped", "slab messages published"
                ).inc()
                self._metrics.gauge(
                    "detect.slab_occupancy",
                    "free slabs after each acquire (0 = pool saturated)",
                ).set(len(self._free_slabs))

    # -- completion ----------------------------------------------------

    def _merge_done(self, frontier_parts: list, merged: set) -> None:
        """Fold newly arrived shard payloads in (streaming merge)."""
        for shard in sorted(self._done_shards - merged):
            payload = self._payloads.pop(shard)
            self.store.merge_from(payload["store"])
            frontier_parts.append(
                _frontier_from_arrays(payload["frontier"])
            )
            self.stats.deps_built += payload["deps_built"]
            self.collisions += payload["collisions"]
            self.worker_memory_bytes += payload["memory_bytes"]
            if self._tracer is not None and "spans" in payload:
                self._tracer.absorb(payload["spans"])
            if self._metrics is not None and "metrics" in payload:
                self._metrics.merge(
                    payload["metrics"], prefix=f"detect.shard{shard}."
                )
            merged.add(shard)

    def finalize(self) -> DependenceStore:
        """Drain, join the workers, merge stores + frontiers (§2.3.5)."""
        if self._finalized:
            return self.store
        self.flush()
        if self._procs is None and self._degraded is None:
            # nothing ever shipped
            self.frontier = ShadowFrontier()
            self._finalized = True
            return self.store
        frontier_parts: list[ShadowFrontier] = []
        merged: set[int] = set()
        if self._degraded is None:
            self._finishing = True
            now = time.monotonic()
            for shard in range(self.n_shards):
                # fresh grace period: the finish drain starts the clock
                self._last_seen[shard] = max(self._last_seen[shard], now)
                self._task_qs[shard].put(("finish",))
            if self._tracer is not None:
                self._tracer.begin("detect.merge", "detect")
            while (
                len(self._done_shards) < self.n_shards
                and self._degraded is None
            ):
                self._pump_result(block=True)
                # streaming merge: each shard folds in as it reports
                self._merge_done(frontier_parts, merged)
            if self._tracer is not None:
                self._tracer.end()
        # payloads that arrived before a mid-drain degradation still
        # count — the serial profiler covered only the incomplete shards
        self._merge_done(frontier_parts, merged)
        if self._degraded is not None:
            serial = self._degraded
            serial.flush()
            self.store.merge_from(serial.store)
            frontier_parts.append(serial.frontier)
            self.stats.deps_built += serial.stats.deps_built
            self.collisions += serial.collisions
            self.worker_memory_bytes += serial.memory_bytes()
        self.frontier = merge_frontiers(frontier_parts)
        if self._metrics is not None and self.sampler is not None:
            self._metrics.counter(
                "detect.sampled_kept", "rows kept by the read sampler"
            ).inc(self.sampler.kept_events)
            self._metrics.counter(
                "detect.sampled_total", "rows offered to the read sampler"
            ).inc(self.sampler.total_events)
        if self._procs is not None:
            for proc in self._procs:
                proc.join(timeout=self.policy.join_timeout)
            self._result_q.close()
        self._release_slabs()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        self._finalized = True
        return self.store

    def result(self) -> DependenceStore:
        return self.finalize()

    def _cleanup_failure(self, detail: str) -> None:
        """Cleanup failures are reported, not swallowed."""
        self.recovery["cleanup_failures"] += 1
        if self._metrics is not None:
            self._metrics.counter(
                "resilience.cleanup_failures",
                "sharded-detector teardown steps that failed",
            ).inc()
        warnings.warn(
            f"sharded-detector cleanup failure: {detail}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _release_slabs(self) -> None:
        self._views = []
        for slab in self._slabs:
            try:
                slab.close()
                slab.unlink()
            except OSError as exc:
                self._cleanup_failure(
                    f"releasing shared-memory slab {slab.name}: {exc}"
                )
        self._slabs = []
        self._free_slabs = []

    def abort(self) -> None:
        """Abandon the run: kill workers, release shared memory.

        Unlike :meth:`finalize` this discards all in-flight work.  Every
        teardown step that fails is logged via ``warnings`` and the
        ``resilience.cleanup_failures`` metric rather than swallowed;
        the shm-leak test scans ``/dev/shm`` for :attr:`shm_prefix` to
        prove nothing survives an abort after a mid-run worker kill.
        """
        if self._procs is not None and not self._finalized:
            for proc in self._procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except OSError as exc:  # pragma: no cover - OS dependent
                    self._cleanup_failure(f"terminating worker: {exc}")
            for proc in self._procs:
                try:
                    proc.join(timeout=self.policy.join_timeout)
                except (OSError, AssertionError) as exc:
                    # pragma: no cover - OS dependent
                    self._cleanup_failure(f"joining worker: {exc}")
            try:
                self._result_q.close()
            except OSError as exc:  # pragma: no cover - OS dependent
                self._cleanup_failure(f"closing result queue: {exc}")
            self._release_slabs()
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            self._finalized = True

    def close(self) -> None:
        """Alias of :meth:`abort` (the historical name)."""
        self.abort()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.abort()
        except Exception:
            # interpreter teardown: warnings/queues may already be gone
            pass

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Parent-resident footprint (plus worker totals once merged)."""
        slab_bytes = len(self._slabs) * self.slab_rows * N_COLS * 8
        buffered = sum(block.nbytes for block in self._buffer)
        tables = 0
        if self.sampler is not None:
            tables = (
                64 * len(self.sampler._seen) + self.sampler._guard.nbytes
            )
        return (
            buffered + slab_bytes + tables + self.store.memory_bytes()
            + self.worker_memory_bytes
        )
