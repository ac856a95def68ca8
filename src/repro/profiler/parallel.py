"""The parallel data-dependence profiler (§2.3.3).

Architecture (Fig. 2.2): the producer — the thread executing the target
program — collects memory accesses in chunks and pushes each chunk to the
queue of the worker that owns its addresses; workers consume chunks, run the
serial profiling algorithm on their address shard, and store dependences in
thread-local maps that are merged at the end.

* Sharding: ``worker = addr % W`` (Formula 2.1), overridden for hot
  addresses by the redistribution map (higher priority than the modulo
  function, as in the paper).
* Load balancing: per-address access counts are kept; every
  ``redistribute_every`` chunks the top-ten hottest addresses are spread
  evenly over workers, moving their signature state along.
* Queues: lock-free-style SPSC by default, mutex-based as the Fig. 2.9
  "lock-based" baseline, MPSC (Fig. 2.5) for multi-producer setups.

Two execution modes:

* ``threaded`` — real Python worker threads consuming from the queues.
  Faithful architecture, measurable wall clock; CPython's GIL serialises
  the pure-Python workers, so wall-clock *speedup* is not reproducible on
  this substrate (documented substitution in DESIGN.md).
* ``simulated`` — deterministic in-line execution that tallies per-worker
  work units; :func:`modeled_times` turns the tallies plus calibrated
  per-event costs into the pipeline-model wall times the performance
  figures report (producer/consumer overlap: wall = max(producer, slowest
  worker) + merge).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.profiler.deps import DependenceStore
from repro.profiler.queues import DONE, make_queue
from repro.profiler.serial import ControlRecord, SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.vectorized import (
    DEFAULT_BATCH_EVENTS,
    VectorizedProfiler,
)
from repro.runtime.events import (
    COL_ADDR,
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TS,
    N_COLS,
    EventChunk,
    K_BGN,
    K_END,
    K_FREE,
    K_READ,
    K_WRITE,
    StringTable,
)


@dataclass
class ParallelReport:
    """Execution report of one parallel profiling run."""

    n_workers: int
    queue_kind: str
    produced_events: int = 0
    produced_chunks: int = 0
    work_units: list[int] = field(default_factory=list)
    redistributions: int = 0
    merge_seconds: float = 0.0
    wall_seconds: float = 0.0
    memory_bytes: int = 0

    @property
    def max_worker_load(self) -> int:
        return max(self.work_units) if self.work_units else 0

    @property
    def load_imbalance(self) -> float:
        """max/mean worker load — 1.0 is perfectly balanced."""
        if not self.work_units or sum(self.work_units) == 0:
            return 1.0
        mean = sum(self.work_units) / len(self.work_units)
        return max(self.work_units) / mean if mean else 1.0


class ParallelProfiler:
    """Producer/consumer profiler; acts as a VM chunk sink."""

    def __init__(
        self,
        n_workers: int = 8,
        *,
        signature_slots: Optional[int] = None,
        queue_kind: str = "spsc",
        mode: str = "simulated",
        redistribute_every: int = 50_000,
        queue_capacity: int = 1 << 12,
        lifetime_analysis: bool = True,
        detect: str = "vectorized",
    ) -> None:
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        if mode not in ("simulated", "threaded"):
            raise ValueError(f"unknown mode {mode!r}")
        if detect not in ("loop", "vectorized"):
            raise ValueError(
                f"unknown detection core {detect!r} "
                "(expected 'loop' or 'vectorized')"
            )
        self.n_workers = n_workers
        self.mode = mode
        self.queue_kind = queue_kind
        self.detect = detect
        self.redistribute_every = redistribute_every

        def _shadow():
            if signature_slots is None:
                return PerfectShadow()
            return SignatureShadow(signature_slots)

        def _worker():
            if detect == "vectorized":
                return VectorizedProfiler(
                    signature_slots,
                    lifetime_analysis=lifetime_analysis,
                    track_control=False,
                    # threaded mode: the producer must never flush a
                    # worker's staged batches while its thread consumes
                    # (rebalance state moves), so workers detect each
                    # shard immediately instead of batching
                    batch_events=(
                        DEFAULT_BATCH_EVENTS if mode == "simulated" else 0
                    ),
                )
            return SerialProfiler(
                _shadow(),
                lifetime_analysis=lifetime_analysis,
                track_control=False,
            )

        self.workers = [_worker() for _ in range(n_workers)]
        self.report = ParallelReport(n_workers, queue_kind,
                                     work_units=[0] * n_workers)
        self.control: dict[int, ControlRecord] = {}

        self._override: dict[int, int] = {}
        self._access_counts: dict[int, int] = {}
        self._chunks_since_rebalance = 0
        self._started = time.perf_counter()

        self._queues = None
        self._threads: list[threading.Thread] = []
        if mode == "threaded":
            self._queues = [
                make_queue(queue_kind, queue_capacity) for _ in range(n_workers)
            ]
            for w in range(n_workers):
                thread = threading.Thread(
                    target=self._worker_loop, args=(w,), daemon=True
                )
                thread.start()
                self._threads.append(thread)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk: EventChunk) -> None:
        """Vectorized sharding of a packed chunk (Formula 2.1 on a column).

        ``addr % W`` runs over the whole address column at once; the
        redistribution overrides — a handful of hot addresses — are then
        patched in with one boolean mask each.  Each worker receives its
        shard as a sub-:class:`EventChunk` (order preserved, string and
        signature tables shared), with the chunk's FREE events broadcast:
        appended to every non-empty shard.
        """
        rows = chunk.rows
        n_workers = self.n_workers
        kinds = rows[:, COL_KIND]
        mem_mask = kinds <= K_WRITE
        mem = rows[mem_mask]
        n_mem = mem.shape[0]
        free_rows = None
        other_mask_any = n_mem != rows.shape[0]
        if other_mask_any:
            free_rows = rows[kinds == K_FREE]
            if free_rows.shape[0] == 0:
                free_rows = None
            # control records (BGN/END aggregate in the producer)
            ctrl_idx = np.nonzero((kinds == K_BGN) | (kinds == K_END))[0]
            if ctrl_idx.shape[0]:
                names = chunk.strings.values
                for row in rows[ctrl_idx].tolist():
                    rec = self.control.get(row[COL_ADDR])
                    if rec is None:
                        rec = ControlRecord(
                            row[COL_ADDR], names[row[COL_NAME]],
                            row[COL_LINE], row[COL_LINE],
                        )
                        self.control[row[COL_ADDR]] = rec
                    if row[COL_KIND] == K_BGN:
                        rec.executions += 1
                    else:
                        rec.end_line = max(rec.end_line, row[COL_LINE])
                        rec.total_iterations += row[COL_AUX]
        workers = None
        if n_mem:
            addrs = mem[:, COL_ADDR]
            workers = addrs % n_workers
            for addr, worker in self._override.items():
                workers[addrs == addr] = worker
            # per-address access counts for the load balancer, vectorized
            uniq, counts = np.unique(addrs, return_counts=True)
            access_counts = self._access_counts
            for addr, count in zip(uniq.tolist(), counts.tolist()):
                access_counts[addr] = access_counts.get(addr, 0) + count
            self.report.produced_events += n_mem
        if n_mem or free_rows is not None:
            strings, sigs = chunk.strings, chunk.sigs
            for w in range(n_workers):
                shard = mem[workers == w] if n_mem else mem
                if free_rows is not None:
                    if shard.shape[0]:
                        shard = np.concatenate((shard, free_rows))
                    else:
                        shard = free_rows
                if shard.shape[0]:
                    self._dispatch(w, EventChunk(shard, strings, sigs))
        self.report.produced_chunks += 1
        self._chunks_since_rebalance += 1
        if self._chunks_since_rebalance >= self.redistribute_every:
            self._rebalance()
            self._chunks_since_rebalance = 0

    def _dispatch(self, worker: int, part: EventChunk) -> None:
        if self.mode == "simulated":
            self.workers[worker].process_chunk(part)
            self.report.work_units[worker] += len(part)
        else:
            self._queues[worker].push(part)

    def _worker_loop(self, worker: int) -> None:
        queue = self._queues[worker]
        profiler = self.workers[worker]
        while True:
            part = queue.pop()
            if part is DONE:
                return
            profiler.process_chunk(part)
            self.report.work_units[worker] += len(part)

    # ------------------------------------------------------------------
    # hot-address redistribution (§2.3.3 "Load balancing")
    # ------------------------------------------------------------------

    def _rebalance(self, top_n: int = 10) -> None:
        counts = self._access_counts
        if not counts:
            return
        if self.mode == "simulated":
            # vectorized workers stage chunks; state moves need the
            # frontier current (threaded workers run unbatched, and
            # flushing them from the producer would race their thread)
            for worker in self.workers:
                if isinstance(worker, VectorizedProfiler):
                    worker.flush()
        hottest = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:top_n]
        n_workers = self.n_workers
        for rank, (addr, _count) in enumerate(hottest):
            current = self._override.get(addr, addr % n_workers)
            desired = rank % n_workers
            if current == desired:
                continue
            if self.mode == "threaded":
                # A state move is only safe when the old worker's queue has
                # drained the address's pending accesses; the paper pauses
                # redistribution similarly.  We skip the move under load.
                if len(self._queues[current]) > 0:
                    continue
            self._move_address(addr, current, desired)
            self._override[addr] = desired
            self.report.redistributions += 1

    def _move_address(self, addr: int, src: int, dst: int) -> None:
        """Move an address's signature state between workers."""
        src_prof = self.workers[src]
        dst_prof = self.workers[dst]
        if isinstance(src_prof, VectorizedProfiler):
            # frontier-to-frontier move: pop the address's array-backed
            # state wholesale and install it on the receiving worker
            dst_prof.put_address_state(addr, src_prof.pop_address_state(addr))
            return
        src_shadow = src_prof.shadow
        dst_shadow = dst_prof.shadow
        lw = src_shadow.last_write(addr)
        if lw is not None:
            dst_shadow.record_write(addr, *lw)
        for rd in src_shadow.reads_since_write(addr):
            dst_shadow.record_read(addr, *rd)
        src_shadow.evict(addr, 1)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def finish(self) -> DependenceStore:
        """Drain queues, join workers, merge thread-local maps (§2.3.3)."""
        if self.mode == "threaded":
            for queue in self._queues:
                queue.push(DONE)
            for thread in self._threads:
                thread.join()
        # drain staged batches first: that is detection work, not merge
        # work, and the pipeline model bills it to the workers
        for worker in self.workers:
            if isinstance(worker, VectorizedProfiler):
                worker.flush()
        merge_start = time.perf_counter()
        merged = DependenceStore()
        for worker in self.workers:
            merged.merge_from(worker.store)
        self.report.merge_seconds = time.perf_counter() - merge_start
        self.report.wall_seconds = time.perf_counter() - self._started
        self.report.memory_bytes = self.memory_bytes()
        return merged

    def memory_bytes(self) -> int:
        """Full profiler footprint: workers + queues + balancing state.

        Worker ``memory_bytes`` already covers their shadow frontier,
        staged batches, and partial stores; this adds everything the
        producer side holds — chunks sitting in the shard queues
        (threaded mode), the address-override map from rebalancing, the
        access-count map, and the aggregated control records — so
        rebalancing decisions and bench reports see the real footprint.
        """
        total = sum(w.memory_bytes() for w in self.workers)
        if self._queues is not None:
            total += sum(q.pending_nbytes() for q in self._queues)
        # load-balancing maps: ~104 bytes per dict slot (int keys/values)
        total += 104 * len(self._access_counts)
        total += 104 * len(self._override)
        # aggregated control records (producer side owns them)
        total += 200 * len(self.control)
        return total


# ---------------------------------------------------------------------------
# pipeline cost model (the substitution documented in DESIGN.md)
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """Calibrated per-operation costs, seconds.

    ``c_proc``  — consumer cost per memory event (shadow update + dep build)
    ``c_push``  — producer cost per event (collect + shard + count)
    ``c_queue`` — per-chunk queue transfer cost for the chosen queue kind
    ``c_lock_queue`` — same for the mutex-based queue
    """

    c_proc: float
    c_push: float
    c_queue: float
    c_lock_queue: float


def calibrate_costs(n_probe: int = 200_000) -> CostModel:
    """Micro-measure the per-event costs on this machine."""
    from repro.profiler.queues import LockedQueue, SPSCQueue

    i = np.arange(n_probe, dtype=np.int64)
    rows = np.zeros((n_probe, N_COLS), dtype=np.int64)
    rows[:, COL_KIND] = np.where(i % 3 == 0, K_WRITE, K_READ)
    rows[:, COL_ADDR] = i % 4096
    rows[:, COL_LINE] = 10 + i % 50
    rows[:, COL_NAME] = 1
    rows[:, COL_AUX] = i % 97
    rows[:, COL_TS] = i
    events = EventChunk(rows, StringTable([None, "v"]))
    profiler = SerialProfiler(PerfectShadow())
    t0 = time.perf_counter()
    profiler.process_chunk(events)
    c_proc = (time.perf_counter() - t0) / n_probe

    t0 = time.perf_counter()
    parts: list[list] = [[] for _ in range(8)]
    counts: dict[int, int] = {}
    for row in rows.tolist():
        addr = row[COL_ADDR]
        parts[addr % 8].append(row)
        counts[addr] = counts.get(addr, 0) + 1
    c_push = (time.perf_counter() - t0) / n_probe

    chunk = events.take(slice(0, 4096))
    n_chunks = 200
    spsc = SPSCQueue(capacity=n_chunks + 1)
    t0 = time.perf_counter()
    for _ in range(n_chunks):
        spsc.push(chunk)
    for _ in range(n_chunks):
        spsc.pop()
    c_queue = (time.perf_counter() - t0) / n_chunks

    locked = LockedQueue()
    t0 = time.perf_counter()
    for _ in range(n_chunks):
        locked.push(chunk)
    for _ in range(n_chunks):
        locked.pop()
    c_lock_queue = (time.perf_counter() - t0) / n_chunks

    return CostModel(c_proc, c_push, c_queue, c_lock_queue)


def modeled_times(
    report: ParallelReport,
    costs: CostModel,
    native_seconds: float,
    *,
    lock_based: bool = False,
) -> dict[str, float]:
    """Pipeline-model wall time for a run summarised by ``report``.

    Producer and consumers overlap; the wall time is the slower of the two
    stages plus the final merge:

        producer = native + N_events * c_push + chunks * c_queue
        worker_w = work_w * c_proc + chunks_w * c_queue
        wall     = max(producer, max_w worker_w) + merge
    """
    c_queue = costs.c_lock_queue if lock_based else costs.c_queue
    producer = (
        native_seconds
        + report.produced_events * costs.c_push
        + report.produced_chunks * c_queue
    )
    # chunks are split per worker; approximate per-worker chunk count by
    # produced_chunks (each source chunk fans out at most one per worker)
    slowest_worker = 0.0
    for work in report.work_units:
        worker_time = work * costs.c_proc + report.produced_chunks * c_queue / max(
            1, report.n_workers
        )
        slowest_worker = max(slowest_worker, worker_time)
    wall = max(producer, slowest_worker) + report.merge_seconds
    return {
        "producer_seconds": producer,
        "slowest_worker_seconds": slowest_worker,
        "wall_seconds": wall,
        "slowdown": wall / native_seconds if native_seconds > 0 else float("inf"),
    }
