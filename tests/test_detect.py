"""Vectorized detection core: equivalence matrix, frontier, eviction.

The overhaul's contract: the segmented-scan detector
(:mod:`repro.profiler.vectorized`) is an exact, faster drop-in for the
per-event loop detector — bit-identical :class:`DependenceStore`
contents and control records on every registry workload (threaded
included), across batch boundaries, shadow modes, and variable-lifetime
eviction — selected through ``DiscoveryConfig.detect`` and reported in
``DiscoveryResult.profile_stats``.
"""

from __future__ import annotations

import time

import pytest

from repro.discovery.loops import analyze_loops
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.profiler.backends import SerialBackend
from repro.profiler.parallel import ParallelProfiler
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import (
    MAX_READS_PER_SLOT,
    PerfectShadow,
    SignatureShadow,
)
from repro.profiler.vectorized import ShadowFrontier, VectorizedProfiler
from repro.runtime.events import K_FREE, K_READ, K_WRITE, TraceSink
from repro.runtime.interpreter import VM
from repro.workloads import REGISTRY, get_workload
from tests.conftest import make_chunk

ALL_WORKLOADS = sorted(REGISTRY)
THREADED = [n for n in ALL_WORKLOADS if REGISTRY[n].threaded]

#: representative set for the expensive multi-configuration sweeps: a
#: textbook loop nest, the recursion + eviction stress, and a threaded
#: workload with cross-thread dependences
BOUNDARY_WORKLOADS = ("histogram", "fft", "md5-pthread")


def record(name: str, **vm_kwargs):
    workload = get_workload(name)
    module = workload.compile(1)
    trace = TraceSink()
    vm = VM(module, trace, **vm_kwargs)
    vm.run(workload.entry)
    return trace, vm


def loop_profile(trace, *, slots=None):
    shadow = PerfectShadow() if slots is None else SignatureShadow(slots)
    profiler = SerialProfiler(shadow)
    for chunk in trace.iter_chunks():
        profiler.process_chunk(chunk)
    return profiler


def vec_profile(trace, *, slots=None, batch_events=None):
    kwargs = {}
    if batch_events is not None:
        kwargs["batch_events"] = batch_events
    profiler = VectorizedProfiler(slots, **kwargs)
    for chunk in trace.iter_chunks():
        profiler.process_chunk(chunk)
    profiler.flush()
    return profiler


def loops_of(vm, profiler):
    """Loop verdicts with their blocker lists, in report order."""
    return [
        info.to_dict()
        for info in analyze_loops(
            vm.module, profiler.store, control=profiler.control
        )
    ]


def state_of(profiler):
    return (
        profiler.store.to_dict(),
        {r: c.to_dict() for r, c in profiler.control.items()},
        profiler.stats.reads,
        profiler.stats.writes,
        profiler.stats.evictions,
    )


class TestThreeWayMatrix:
    """loop × vectorized (batched) × vectorized (per chunk, the parallel
    profiler's threaded-worker mode) over the whole registry."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_store_equality(self, name):
        trace, vm = record(name)
        loop = loop_profile(trace)
        vectorized = vec_profile(trace)
        per_chunk = vec_profile(trace, batch_events=0)
        assert state_of(loop) == state_of(vectorized), name
        assert state_of(vectorized) == state_of(per_chunk), name
        # equal stores must give equal reports, whatever order each core
        # inserted its dependences in
        reference = loops_of(vm, loop)
        assert loops_of(vm, vectorized) == reference, name
        assert loops_of(vm, per_chunk) == reference, name

    def test_threaded_present(self):
        # the matrix above must include every threaded workload
        assert len(THREADED) >= 8


class TestFrontierBoundaries:
    """Adversarial chunking: the frontier must stitch batches exactly."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 7])
    @pytest.mark.parametrize("name", BOUNDARY_WORKLOADS)
    def test_chunk_sizes(self, name, chunk_size):
        trace, vm = record(name, chunk_size=chunk_size)
        loop = loop_profile(trace)
        for batch_events in (0, 64, 1 << 16):
            vec = vec_profile(trace, batch_events=batch_events)
            assert loop.store.to_dict() == vec.store.to_dict(), (
                name, chunk_size, batch_events,
            )

    @pytest.mark.parametrize("name", BOUNDARY_WORKLOADS)
    def test_signature_mode(self, name):
        trace, vm = record(name)
        for slots in (31, 257):
            loop = loop_profile(trace, slots=slots)
            vec = vec_profile(trace, slots=slots)
            assert loop.store.to_dict() == vec.store.to_dict()
            assert loop.shadow.collisions == vec.collisions

    def test_read_cap_across_batches(self):
        """MAX_READS_PER_SLOT survives a frontier round-trip."""
        rows = []
        ts = 0
        # 20 distinct read lines against one address, write closes over
        # them; split mid-read-set by a 1-event batch size.  Op ids are
        # per static access, as the VM emits them: one op, one line.
        rows.append((K_WRITE, 7, 1, "x", 1, 0, ts, 0, 0))
        for line in range(10, 10 + MAX_READS_PER_SLOT + 4):
            ts += 1
            rows.append((K_READ, 7, line, "x", line, 0, ts, 0, 0))
        ts += 1
        rows.append((K_WRITE, 7, 99, "x", 99, 0, ts, 0, 0))
        events = make_chunk(rows)
        loop = SerialProfiler(PerfectShadow())
        loop.process_chunk(events)
        for batch in (0, 1, 3, 1000):
            vec = VectorizedProfiler(batch_events=batch)
            for i in range(len(events)):
                vec.process_chunk(events.take([i]))
            vec.flush()
            assert vec.store.to_dict() == loop.store.to_dict(), batch
        wars = [d for d in loop.store.all() if d.type == "WAR"]
        assert len(wars) == MAX_READS_PER_SLOT


class TestEviction:
    """Variable-lifetime analysis: bulk eviction, frontier-aware."""

    def _lifetime_events(self, base, size):
        rows = []
        ts = 0
        for i in range(8):
            rows.append((K_WRITE, base + i, 5, "a", i, 0, ts, 0, 0))
            ts += 1
            rows.append((K_READ, base + i, 6, "a", i, 0, ts, 0, 0))
            ts += 1
        rows.append((K_FREE, base, 0, 0, size, 0, ts, 0, 0))
        ts += 1
        # the reused region must not see dependences across the free
        for i in range(8):
            rows.append((K_WRITE, base + i, 15, "b", 20 + i, 0, ts, 0, 0))
            ts += 1
        return make_chunk(rows)

    def test_large_block_evict_is_bulk(self):
        """Evicting a huge dead block must not walk its byte range."""
        size = 100_000_000
        events = self._lifetime_events(1000, size)
        shadow = PerfectShadow()
        profiler = SerialProfiler(shadow)
        t0 = time.perf_counter()
        profiler.process_chunk(events)
        wall = time.perf_counter() - t0
        # the pre-fix range walk took tens of seconds at this size
        assert wall < 2.0
        assert profiler.stats.evictions == 1
        # all lifetime state really is gone and the write after the free
        # is a fresh INIT, not a WAW
        assert shadow.n_tracked == 8
        assert 15 in profiler.store.init_lines
        assert not any(d.sink_line == 15 for d in profiler.store.all())

    def test_bulk_evict_inside_columnar_chunk(self):
        """A bulk eviction mid-chunk is seen by the rest of the chunk's
        walk, exactly as if the free had ended a chunk."""
        events = self._lifetime_events(1000, 10_000_000)
        whole = SerialProfiler(PerfectShadow())
        whole.process_chunk(events)
        split = SerialProfiler(PerfectShadow())
        free_at = 17  # the FREE row: 16 accesses precede it
        split.process_chunk(events.take(slice(0, free_at + 1)))
        split.process_chunk(events.take(slice(free_at + 1, None)))
        assert whole.store.to_dict() == split.store.to_dict()
        assert whole.shadow.n_tracked == 8
        assert 15 in whole.store.init_lines

    def test_bulk_evict_matches_range_walk(self):
        """Bulk filtering and the small-range walk agree exactly."""
        small = self._lifetime_events(1000, 8)  # walks the range
        big = self._lifetime_events(1000, 10_000_000)  # filters in bulk
        stores = []
        for events in (small, big):
            profiler = SerialProfiler(PerfectShadow())
            profiler.process_chunk(events)
            stores.append(profiler.store.to_dict())
        assert stores[0] == stores[1]

    def test_vectorized_frontier_eviction_equivalent(self):
        """The frontier applies FREE ranges without enumerating them."""
        events = self._lifetime_events(1000, 100_000_000)
        loop = SerialProfiler(PerfectShadow())
        loop.process_chunk(events)
        for batch in (0, 1, 4, 1000):
            vec = VectorizedProfiler(batch_events=batch)
            t0 = time.perf_counter()
            for i in range(len(events)):
                vec.process_chunk(events.take([i]))
            vec.flush()
            assert time.perf_counter() - t0 < 2.0
            assert vec.store.to_dict() == loop.store.to_dict(), batch
            assert vec.stats.evictions == 1

    def test_signature_full_clear(self):
        """A free spanning the whole signature clears every slot."""
        events = self._lifetime_events(1000, 10_000)
        loop = SerialProfiler(SignatureShadow(31))
        loop.process_chunk(events)
        vec = VectorizedProfiler(31)
        vec.process_chunk(events)
        vec.flush()
        assert vec.store.to_dict() == loop.store.to_dict()


class TestBackendsAndConfig:
    def test_serial_backend_detect_modes(self):
        workload = get_workload("histogram")
        module = workload.compile(1)
        results = {}
        for detect in ("loop", "vectorized"):
            backend = SerialBackend(detect=detect)
            vm = VM(module, backend)
            vm.run(workload.entry)
            result = backend.finish()
            assert result.stats["detect"] == detect
            assert result.stats["detect_seconds"] > 0
            assert result.stats["detect_events_per_sec"] > 0
            results[detect] = result.store.to_dict()
        assert results["loop"] == results["vectorized"]

    def test_unknown_detect_rejected(self):
        with pytest.raises(ValueError, match="detection core"):
            SerialBackend(detect="warp")

    def test_skipping_backend_falls_back_to_loop(self):
        backend = SerialBackend(skip_loops=True, detect="vectorized")
        assert backend.detect == "loop"
        assert isinstance(backend.profiler, SerialProfiler)

    def test_parallel_backend_vectorized_workers(self):
        workload = get_workload("rotate")
        module = workload.compile(1)
        results = {}
        for detect in ("loop", "vectorized"):
            profiler = ParallelProfiler(4, detect=detect)
            vm = VM(module, profiler)
            vm.run(workload.entry)
            store = profiler.finish()
            assert all(
                isinstance(w, VectorizedProfiler) is (detect == "vectorized")
                for w in profiler.workers
            )
            results[detect] = (
                store.to_dict(),
                {r: c.to_dict() for r, c in profiler.control.items()},
            )
        assert results["loop"] == results["vectorized"]

    def test_config_round_trips_detect(self):
        config = DiscoveryConfig(source="int main() { return 0; }",
                                 detect="loop")
        restored = DiscoveryConfig.from_dict(config.to_dict())
        assert restored.detect == "loop"
        assert restored == config
        assert DiscoveryConfig().detect == "vectorized"

    def test_profile_stats_carry_detect_fields(self):
        """detect mode + events/sec serialize through DiscoveryResult."""
        workload = get_workload("histogram")
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=workload.source(1), name="histogram",
                entry=workload.entry,
            )
        )
        result = engine.run()
        stats = result.profile_stats
        assert stats["detect"] == "vectorized"
        assert stats["detect_seconds"] > 0
        assert stats["detect_events_per_sec"] > 0
        from repro.engine.artifacts import DiscoveryResult

        restored = DiscoveryResult.from_dict(result.to_dict())
        assert restored.profile_stats["detect"] == "vectorized"
        assert (
            restored.profile_stats["detect_events_per_sec"]
            == stats["detect_events_per_sec"]
        )
        assert restored.profile_stats["detect_seconds"] == pytest.approx(
            stats["detect_seconds"]
        )


class TestFrontierUnit:
    def test_scalar_queries_and_moves(self):
        events = make_chunk([
            (K_WRITE, 42, 3, "x", 0, 1, 5, 0, 0),
            (K_READ, 42, 4, "x", 1, 2, 6, 0, 0),
        ])
        vec = VectorizedProfiler()
        vec.process_chunk(events)
        vec.flush()
        assert vec.last_write(42) == (3, 0, 1, 5)
        assert vec.reads_since_write(42) == [(4, 0, 2, 6)]
        assert vec.last_write(43) is None
        state = vec.pop_address_state(42)
        assert vec.last_write(42) is None
        other = VectorizedProfiler()
        other.put_address_state(42, state)
        assert other.last_write(42) == (3, 0, 1, 5)
        assert other.reads_since_write(42) == [(4, 0, 2, 6)]

    def test_empty_frontier(self):
        frontier = ShadowFrontier()
        assert len(frontier) == 0
        assert frontier.lookup(7) == -1
        assert frontier.memory_bytes() >= 0

    def test_batching_defers_until_flush(self):
        events = make_chunk([(K_WRITE, 1, 3, "x", 0, 0, 0, 0, 0)])
        vec = VectorizedProfiler(batch_events=1 << 20)
        vec.process_chunk(events)
        assert len(vec.store) == 0 and not vec.store.init_lines
        assert vec.result() is vec.store
        assert 3 in vec.store.init_lines
