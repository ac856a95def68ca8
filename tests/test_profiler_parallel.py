"""Tests for queues, the parallel profiler, skipping, and the race model."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mir.lowering import compile_source
from repro.profiler.deps import DepType
from repro.profiler.parallel import (
    CostModel,
    ParallelProfiler,
    calibrate_costs,
    modeled_times,
)
from repro.profiler.queues import DONE, LockedQueue, MPSCQueue, SPSCQueue
from repro.profiler.races import DeferredSink
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.profiler.skipping import SkippingProfiler
from repro.runtime.events import (
    COL_KIND,
    COL_TID,
    COL_TS,
    K_FREE,
    K_READ,
    K_WRITE,
    TraceSink,
)
from repro.runtime.interpreter import VM
from repro.workloads import REGISTRY, get_workload
from tests.conftest import make_chunk


# ---------------------------------------------------------------------------
# queues
# ---------------------------------------------------------------------------


class TestQueues:
    @pytest.mark.parametrize("make", [
        lambda: LockedQueue(), lambda: SPSCQueue(64), lambda: MPSCQueue(16),
    ])
    def test_fifo_order(self, make):
        q = make()
        for i in range(50):
            q.push(i)
        out = [q.pop() for _ in range(50)]
        assert out == list(range(50))

    @pytest.mark.parametrize("make", [
        lambda: LockedQueue(), lambda: SPSCQueue(64), lambda: MPSCQueue(16),
    ])
    def test_nonblocking_empty(self, make):
        q = make()
        assert q.pop(block=False) is None
        q.push("x")
        assert q.pop(block=False) == "x"

    def test_spsc_capacity_wraparound(self):
        q = SPSCQueue(4)
        for round_ in range(5):
            for i in range(4):
                q.push((round_, i))
            for i in range(4):
                assert q.pop() == (round_, i)

    def test_spsc_try_push_full(self):
        q = SPSCQueue(2)
        assert q.try_push(1) and q.try_push(2)
        assert not q.try_push(3)
        q.pop()
        assert q.try_push(3)

    def test_spsc_threaded_producer_consumer(self):
        q = SPSCQueue(128)
        received = []

        def consumer():
            while True:
                item = q.pop()
                if item is DONE:
                    return
                received.append(item)

        t = threading.Thread(target=consumer)
        t.start()
        for i in range(5000):
            q.push(i)
        q.push(DONE)
        t.join()
        assert received == list(range(5000))

    def test_mpsc_multiple_producers(self):
        q = MPSCQueue(64)
        n_producers, per = 4, 500

        def producer(base):
            for i in range(per):
                q.push(base + i)

        threads = [
            threading.Thread(target=producer, args=(p * per,))
            for p in range(n_producers)
        ]
        for t in threads:
            t.start()
        received = []
        while len(received) < n_producers * per:
            item = q.pop()
            received.append(item)
        for t in threads:
            t.join()
        assert sorted(received) == list(range(n_producers * per))

    @given(st.lists(st.integers(), max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_queue_preserves_items(self, items):
        for q in (LockedQueue(), SPSCQueue(128), MPSCQueue(16)):
            for item in items:
                q.push(item)
            assert [q.pop() for _ in items] == items


# ---------------------------------------------------------------------------
# parallel profiler
# ---------------------------------------------------------------------------


def _serial_keys(module):
    prof = SerialProfiler(PerfectShadow())
    vm = VM(module, prof)
    vm.run()
    return prof.store.keys()


def _state(store, control):
    """What must equal the serial profiler's: full store, control records."""
    return store.to_dict(), {r: c.to_dict() for r, c in control.items()}


def _serial_state(chunks):
    serial = SerialProfiler(PerfectShadow())
    for chunk in chunks:
        serial.process_chunk(chunk)
    return _state(serial.store, serial.control)


def _finish(par, timeout=60.0):
    """``par.finish()`` on a helper thread: a hang fails the test."""
    outcome = []

    def run():
        try:
            outcome.append(par.finish())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "finish() hung"
    if isinstance(outcome[0], Exception):
        raise outcome[0]
    return outcome[0]


def _parallel_state(chunks, n_workers, **kwargs):
    par = ParallelProfiler(n_workers, **kwargs)
    for chunk in chunks:
        par.process_chunk(chunk)
    store = _finish(par)
    return _state(store, par.control), par


def _record(module, entry="main", **vm_kwargs):
    trace = TraceSink()
    VM(module, trace, **vm_kwargs).run(entry)
    return list(trace.iter_chunks())


@functools.lru_cache(maxsize=1)
def _recorded(name):
    """One workload's trace and the serial state over it.

    The equivalence legs run workload by workload, so one cached entry
    serves every leg of a workload and each trace is recorded once.
    """
    workload = get_workload(name)
    chunks = _record(workload.compile(scale=1), workload.entry)
    return chunks, _serial_state(chunks)


#: the locked and MPSC queue legs run on a sample; SPSC runs everywhere
QUEUE_SAMPLE = ("CG", "fft", "md5-pthread", "rotate")

EQUIVALENCE_LEGS = [
    (name, mode, queue_kind)
    for name in sorted(REGISTRY)
    for mode, queue_kind in (
        ("simulated", "spsc"),
        ("threaded", "spsc"),
        *((("threaded", "locked"), ("threaded", "mpsc"))
          if name in QUEUE_SAMPLE else ()),
    )
]

HOT_SRC = """int hot;
int main() {
  for (int i = 0; i < 500; i++) {
    hot += i;
  }
  return hot;
}
"""


class TestParallelProfiler:
    @pytest.mark.parametrize("workload,mode,queue_kind", EQUIVALENCE_LEGS)
    def test_equivalent_to_serial(self, workload, mode, queue_kind):
        """Store and control records equal the serial profiler's on the
        same trace, with hot addresses moving every two chunks."""
        chunks, reference = _recorded(workload)
        state, _ = _parallel_state(
            chunks, 8 if mode == "simulated" else 4, mode=mode,
            queue_kind=queue_kind, redistribute_every=2,
        )
        assert state == reference

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_free_then_reuse_in_one_chunk(self, n_workers):
        """A block freed and written again inside one chunk starts
        afresh: the read before the FREE is no WAR source of the write
        after it (FREE rows keep their place in every shard)."""
        chunks = [make_chunk([
            (K_WRITE, 10, 1, "x", 0, 0, 1, 0, 0),
            (K_READ, 10, 2, "x", 1, 0, 2, 0, 0),
            (K_FREE, 8, 0, 0, 4, 0, 3, 0, 0),
            (K_WRITE, 10, 1, "x", 0, 0, 4, 0, 0),
        ])]
        reference = _serial_state(chunks)
        assert [d["type"] for d in reference[0]["deps"]] == ["RAW"]
        state, _ = _parallel_state(chunks, n_workers)
        assert state == reference

    def test_work_sharded_by_address(self):
        module = get_workload("rgbyuv").compile(scale=1)
        par = ParallelProfiler(8, mode="simulated")
        vm = VM(module, par)
        vm.run()
        par.finish()
        busy = [w for w in par.report.work_units if w > 0]
        assert len(busy) >= 6  # addresses spread over most workers

    def test_redistribution_moves_hot_addresses(self):
        chunks = _record(compile_source(HOT_SRC), chunk_size=128)
        state, par = _parallel_state(
            chunks, 4, mode="simulated", redistribute_every=2
        )
        assert par.report.redistributions > 0
        assert state == _serial_state(chunks)

    def test_threaded_moves_match_serial(self):
        """Moves on running worker threads land where the serial order
        puts them, run after run, with threads switching often."""
        chunks = _record(compile_source(HOT_SRC), chunk_size=128)
        reference = _serial_state(chunks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                state, par = _parallel_state(
                    chunks, 4, mode="threaded", redistribute_every=1
                )
                assert par.report.redistributions > 0
                assert state == reference
        finally:
            sys.setswitchinterval(interval)

    def test_worker_failure_surfaces(self):
        """A chunk with a second signature table fails its worker: the
        threaded run raises it from finish() instead of returning a
        partial store, and a move out of the failed worker (address 2,
        second hottest, goes to worker 1) does not hang its peer."""
        first = make_chunk([(K_WRITE, 0, 1, "x", 0, 0, 1, 0, 0)])
        second = make_chunk(
            [(K_WRITE, 0, 2, "x", 0, 0, 2 + i, 0, 0) for i in range(5)]
            + [(K_WRITE, 2, 3, "y", 0, 0, 7 + i, 0, 0) for i in range(4)]
        )
        par = ParallelProfiler(2, mode="simulated")
        par.process_chunk(first)
        with pytest.raises(ValueError, match="signature table"):
            par.process_chunk(second)
        par = ParallelProfiler(2, mode="threaded", redistribute_every=1)
        par.process_chunk(first)
        par.process_chunk(second)
        with pytest.raises(ValueError, match="signature table"):
            _finish(par)
        assert par.report.redistributions == 1

    def test_signature_slots_per_worker(self):
        module = get_workload("rotate").compile(scale=1)
        par = ParallelProfiler(4, mode="simulated", signature_slots=1 << 14)
        vm = VM(module, par)
        vm.run()
        par.finish()
        assert all(w.signature_slots == 1 << 14 for w in par.workers)

    def test_control_records_kept_by_producer(self, fig27_source):
        module = compile_source(fig27_source)
        par = ParallelProfiler(2, mode="simulated")
        vm = VM(module, par)
        vm.run()
        par.finish()
        loops = [c for c in par.control.values() if c.kind == "loop"]
        assert loops and loops[0].total_iterations == 10

    def test_cost_model_shapes(self):
        costs = CostModel(c_proc=1e-6, c_push=2e-7, c_queue=1e-5,
                          c_lock_queue=8e-5)
        module = get_workload("CG").compile(scale=1)
        par = ParallelProfiler(8, mode="simulated")
        vm = VM(module, par)
        vm.run()
        par.finish()
        native = 0.01
        serial_time = native + par.report.produced_events * costs.c_proc
        t8 = modeled_times(par.report, costs, native)
        t8_lock = modeled_times(par.report, costs, native, lock_based=True)
        # parallel pipeline beats serial; lock-free beats lock-based
        assert t8["wall_seconds"] < serial_time
        assert t8["wall_seconds"] <= t8_lock["wall_seconds"]

    def test_calibrate_costs_positive(self):
        costs = calibrate_costs(n_probe=5_000)
        assert costs.c_proc > 0 and costs.c_push > 0
        assert costs.c_queue > 0 and costs.c_lock_queue > 0


class TestMemoryAccounting:
    """memory_bytes() must see producer-side state, not just workers."""

    def test_queue_pending_nbytes_tracks_real_payloads(self):
        arr = np.zeros((100, 9), dtype=np.int64)
        for q in (LockedQueue(), SPSCQueue(8), MPSCQueue(8)):
            assert q.pending_nbytes() == 0
            q.push(arr)
            q.push(arr)
            assert q.pending_nbytes() >= 2 * arr.nbytes
            q.pop()
            q.pop()
            assert q.pending_nbytes() == 0
            # the DONE sentinel carries no payload
            q.push(DONE)
            assert q.pending_nbytes() == 0

    def test_parallel_memory_covers_measured_lower_bound(self):
        module = get_workload("histogram").compile(scale=1)
        par = ParallelProfiler(4, mode="simulated", redistribute_every=2)
        vm = VM(module, par)
        vm.run()
        worker_sum = sum(w.memory_bytes() for w in par.workers)
        # producer-side state exists after a run: control records and
        # the load-balancing access counts at minimum
        assert par.control and par._access_counts
        measured_floor = (
            worker_sum
            + 104 * len(par._access_counts)
            + 200 * len(par.control)
        )
        assert par.memory_bytes() >= measured_floor > worker_sum
        par.finish()


# ---------------------------------------------------------------------------
# skipping optimization
# ---------------------------------------------------------------------------


class TestSkipping:
    @pytest.mark.parametrize("workload", ["CG", "MG", "rotate", "md5"])
    def test_output_equivalence(self, workload):
        """§2.4's key claim: skipping changes nothing in the output."""
        module = get_workload(workload).compile(scale=1)
        baseline = _serial_keys(module)
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        vm = VM(module, skipper)
        vm.run()
        assert skipper.store.keys() == baseline
        assert skipper.stats.skipped > 0

    def test_fig_2_8_loop_skipping(self):
        """The four-op loop of Fig. 2.8: dependences complete after two
        iterations; later instructions are skipped."""
        src = """int x;
int main() {
  for (int it = 0; it < 50; it++) {
    x = it;
    int r1 = x;
    int r2 = x;
    x = r1 + r2;
  }
  return x;
}
"""
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        module = compile_source(src)
        vm = VM(module, skipper)
        vm.run()
        stats = skipper.stats
        # the steady state skips nearly everything
        assert stats.total_skip_percent > 80.0
        deps = {(d.sink_line, d.type, d.source_line) for d in skipper.store
                if d.var == "x"}
        assert (5, "RAW", 4) in deps   # r1 = x after x = it
        assert (6, "RAW", 4) in deps
        assert (7, "WAR", 5) in deps
        assert (7, "WAR", 6) in deps
        assert (4, "WAW", 7) in deps   # loop-carried write-after-write

    def test_special_case_pure_skips(self):
        src = """int x;
int y;
int main() {
  for (int i = 0; i < 40; i++) {
    y = x + 1;
  }
  return y;
}
"""
        module = compile_source(src)
        with_special = SkippingProfiler(SerialProfiler(PerfectShadow()))
        vm = VM(module, with_special)
        vm.run()
        assert with_special.stats.pure_skips > 0

        without = SkippingProfiler(
            SerialProfiler(PerfectShadow()), enable_special_case=False
        )
        vm2 = VM(compile_source(src), without)
        vm2.run()
        assert without.stats.pure_skips == 0
        assert without.store.keys() == with_special.store.keys()

    def test_distribution_sums_to_100(self):
        module = get_workload("CG").compile(scale=1)
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        vm = VM(module, skipper)
        vm.run()
        dist = skipper.stats.skip_distribution()
        assert abs(sum(dist.values()) - 100.0) < 1e-6

    def test_address_change_forces_profiling(self):
        """Array traversal: the address changes each iteration, so the
        profiling cannot pause (the §2.5.2 worst case)."""
        src = """int a[64];
int main() {
  int s = 0;
  for (int i = 0; i < 64; i++) {
    a[i] = i;
    s += a[i];
  }
  return s;
}
"""
        module = compile_source(src)
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        vm = VM(module, skipper)
        vm.run()
        # accesses through a[i] cannot be skipped (addr changes); only the
        # scalar s/i bookkeeping gets skipped
        assert skipper.stats.reads_skipped < skipper.stats.reads_leading_to_dep


# ---------------------------------------------------------------------------
# multi-threaded targets: deferred pushes and race flags
# ---------------------------------------------------------------------------


class TestRaceModel:
    UNPROTECTED = """
    int flag;
    int other;
    void w1() {
      for (int i = 0; i < 60; i++) { flag = i; other = i; }
    }
    void w2() {
      int s = 0;
      for (int i = 0; i < 60; i++) { s += flag + other; }
      flag = s % 7;
    }
    int main() {
      int a = spawn w1();
      int b = spawn w2();
      join(a); join(b);
      return flag;
    }
    """

    PROTECTED = """
    int flag;
    void w1() {
      for (int i = 0; i < 60; i++) { lock(1); flag = i; unlock(1); }
    }
    void w2() {
      int s = 0;
      for (int i = 0; i < 60; i++) { lock(1); s += flag; unlock(1); }
      lock(1); flag = s % 7; unlock(1);
    }
    int main() {
      int a = spawn w1();
      int b = spawn w2();
      join(a); join(b);
      return flag;
    }
    """

    def _profile_with_jitter(self, src):
        module = compile_source(src)
        prof = SerialProfiler(PerfectShadow())
        deferred = DeferredSink(prof.process_chunk, window=6, seed=11)
        vm = VM(module, deferred, quantum=5)
        vm.run()
        deferred.finish()
        return prof

    def test_unprotected_cross_thread_access_flags_races(self):
        prof = self._profile_with_jitter(self.UNPROTECTED)
        cross = [
            d for d in prof.store
            if d.sink_tid != d.source_tid and d.var in ("flag", "other")
        ]
        assert cross
        assert any(d.maybe_race for d in prof.store)

    def test_lock_protected_accesses_never_flag(self):
        prof = self._profile_with_jitter(self.PROTECTED)
        flagged = [d for d in prof.store if d.maybe_race and d.var == "flag"]
        assert flagged == []

    def test_deferred_sink_preserves_per_thread_order(self):
        module = compile_source(self.UNPROTECTED)
        seen = []
        deferred = DeferredSink(
            lambda chunk: seen.extend(chunk.rows.tolist()), window=5, seed=3
        )
        vm = VM(module, deferred, quantum=7)
        vm.run()
        deferred.finish()
        per_thread_ts = {}
        for row in seen:
            if row[COL_KIND] <= K_WRITE:
                tid, ts = row[COL_TID], row[COL_TS]
                assert per_thread_ts.get(tid, -1) < ts
                per_thread_ts[tid] = ts

    def test_thread_ids_recorded_in_deps(self):
        prof = self._profile_with_jitter(self.UNPROTECTED)
        tids = {d.sink_tid for d in prof.store} | {
            d.source_tid for d in prof.store
        }
        assert len(tids) >= 3  # main + two workers
