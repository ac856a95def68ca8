"""The parallel data-dependence profiler (§2.3.3).

Architecture (Fig. 2.2): the producer — the thread executing the target
program — collects memory accesses in chunks and pushes every worker its
share of each chunk; workers run the vectorized detection core on their
address shard and store dependences in thread-local maps that are merged
at the end.

* Sharding: :func:`~repro.profiler.vectorized.shard_rows`, the partition
  the sharded detector uses too: ``worker = addr % W`` (Formula 2.1),
  overridden for hot addresses by the redistribution map (higher
  priority than the modulo function, as in the paper), and every FREE
  row to every worker at its place in the trace.  The producer folds
  the BGN/END rows itself, with the vectorized detector's
  ``track_control_rows``.
* Load balancing: per-address access counts are kept; every
  ``redistribute_every`` chunks the top-ten hottest addresses are spread
  evenly over workers.  A move is a *give* message to the old owner,
  which pops the address's shadow state, then a *take* to the new owner,
  which waits for that state and installs it; the address's later
  chunks follow the *take*, so each worker applies the move where the
  serial order puts it, and the producer never touches worker state.
* Queues: lock-free-style SPSC by default, mutex-based as the Fig. 2.9
  "lock-based" baseline, MPSC (Fig. 2.5) for multi-producer setups.

Two execution modes share that message path:

* ``threaded`` — real Python worker threads consuming from the queues.
  Faithful architecture, measurable wall clock; CPython's GIL serialises
  the workers, so wall-clock *speedup* is not reproducible on this
  substrate (docs/DETECT.md, "The §2.3.3 parallel profiler").  A failed
  worker keeps draining its queue and answers each *give* with an empty
  state, so no peer waits forever; ``finish`` re-raises its exception.
* ``simulated`` — the same messages applied inline, in push order, with
  per-worker work-unit tallies; :func:`modeled_times` turns the tallies
  plus calibrated per-event costs into the modeled pipeline wall times
  the performance figures report (producer/consumer overlap: wall =
  max(producer, slowest worker) + merge).
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
from repro.profiler.shadow import PerfectShadow
from repro.profiler.vectorized import (
    VectorizedProfiler,
    shard_rows,
    track_control_rows,
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
    def load_imbalance(self) -> float:
        """max/mean worker load — 1.0 is perfectly balanced."""
        if not self.work_units or sum(self.work_units) == 0:
            return 1.0
        mean = sum(self.work_units) / len(self.work_units)
        return max(self.work_units) / mean if mean else 1.0


class _Handoff:
    """One hot address's shadow state on its way between two workers."""

    __slots__ = ("addr", "state", "ready")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        #: ``(last_write, reads)``; stays empty if the old owner failed
        self.state = (None, [])
        self.ready = threading.Event()


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
    ) -> None:
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        if mode not in ("simulated", "threaded"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_workers = n_workers
        self.mode = mode
        self.queue_kind = queue_kind
        self.redistribute_every = redistribute_every
        self.workers = [
            VectorizedProfiler(signature_slots) for _ in range(n_workers)
        ]
        self.report = ParallelReport(n_workers, queue_kind,
                                     work_units=[0] * n_workers)
        self.control: dict[int, ControlRecord] = {}

        self._override: dict[int, int] = {}
        self._access_counts: dict[int, int] = {}
        self._chunks_since_rebalance = 0
        self._started = time.perf_counter()
        #: the first exception each threaded worker raised
        self._errors: list[Optional[Exception]] = [None] * n_workers

        self._queues = None
        self._threads: list[threading.Thread] = []
        if mode == "threaded":
            self._queues = [make_queue(queue_kind) for _ in range(n_workers)]
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
        """Fold control records, count accesses, send every worker its shard.

        Each worker receives its :func:`shard_rows` subset as a
        sub-:class:`EventChunk` (trace order kept, string and signature
        tables shared); a worker with no rows in the chunk gets nothing.
        """
        rows = chunk.rows
        kinds = rows[:, COL_KIND]
        track_control_rows(self.control, rows.T, kinds, chunk.strings.values)
        addrs = rows[kinds <= K_WRITE, COL_ADDR]
        if addrs.shape[0]:
            # per-address access counts for the load balancer
            uniq, counts = np.unique(addrs, return_counts=True)
            access_counts = self._access_counts
            for addr, count in zip(uniq.tolist(), counts.tolist()):
                access_counts[addr] = access_counts.get(addr, 0) + count
            self.report.produced_events += addrs.shape[0]
        parts = shard_rows(
            rows, self.n_workers, range(self.n_workers), self._override
        )
        for w, part in enumerate(parts):
            if part.shape[0]:
                self._send(w, EventChunk(part, chunk.strings, chunk.sigs))
        self.report.produced_chunks += 1
        self._chunks_since_rebalance += 1
        if self._chunks_since_rebalance >= self.redistribute_every:
            self._rebalance()
            self._chunks_since_rebalance = 0

    def _send(self, worker: int, item) -> None:
        """Hand ``worker`` a shard or a move: inline, or through its queue."""
        if self.mode == "simulated":
            self._apply(worker, item)
        else:
            self._queues[worker].push(item)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _apply(self, worker: int, item) -> None:
        """Run one message on ``worker``: a shard, a *give* or a *take*."""
        profiler = self.workers[worker]
        if isinstance(item, EventChunk):
            profiler.process_chunk(item)
            self.report.work_units[worker] += len(item)
            return
        op, handoff = item
        if op == "give":
            try:
                handoff.state = profiler.pop_address_state(handoff.addr)
            finally:
                handoff.ready.set()
        else:
            handoff.ready.wait()
            profiler.put_address_state(handoff.addr, handoff.state)

    def _worker_loop(self, worker: int) -> None:
        queue = self._queues[worker]
        while True:
            item = queue.pop()
            if item is DONE:
                return
            if self._errors[worker] is None:
                try:
                    self._apply(worker, item)
                except Exception as exc:  # finish() re-raises it
                    self._errors[worker] = exc
            elif isinstance(item, tuple) and item[0] == "give":
                # a failed worker gives an empty state: no take may hang
                item[1].ready.set()

    # ------------------------------------------------------------------
    # hot-address redistribution (§2.3.3 "Load balancing")
    # ------------------------------------------------------------------

    def _rebalance(self, top_n: int = 10) -> None:
        counts = self._access_counts
        if not counts:
            return
        hottest = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:top_n]
        n_workers = self.n_workers
        for rank, (addr, _count) in enumerate(hottest):
            current = self._override.get(addr, addr % n_workers)
            desired = rank % n_workers
            if current == desired:
                continue
            # give, then take, then every later chunk of the address
            handoff = _Handoff(addr)
            self._send(current, ("give", handoff))
            self._send(desired, ("take", handoff))
            self._override[addr] = desired
            self.report.redistributions += 1

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def finish(self) -> DependenceStore:
        """Drain queues, join workers, merge thread-local maps (§2.3.3).

        Raises the first exception a threaded worker hit, as simulated
        mode raises it from :meth:`process_chunk`.
        """
        if self.mode == "threaded":
            for queue in self._queues:
                queue.push(DONE)
            for thread in self._threads:
                thread.join()
            for error in self._errors:
                if error is not None:
                    raise error
        # drain staged batches first: that is detection work, not merge
        # work, and the pipeline model bills it to the workers
        for worker in self.workers:
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
# pipeline cost model (docs/DETECT.md, "The §2.3.3 parallel profiler")
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
