"""Columnar event pipeline: packing, chunking, spilling, the backend.

The contract: chunk boundaries carry no meaning — every consumer builds
bit-identical DependenceStore contents, control records, shadow
behaviour, PETs and CU registries however the stream is chunked — and
the spilling sink bounds resident trace memory without losing
re-iterability.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.cu.topdown import TopDownBuilder
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.engine import core as engine_core
from repro.mir.lowering import compile_source
from repro.profiler.backends import SerialBackend
from repro.profiler.parallel import ParallelProfiler
from repro.profiler.pet import PETBuilder
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.sharded import ShardedDetector
from repro.profiler.skipping import SkippingProfiler
from repro.profiler.vectorized import VectorizedProfiler
from repro.runtime.events import (
    COL_SIG,
    EVENT_DTYPE,
    EVENT_NBYTES,
    EventChunk,
    K_ITER,
    K_READ,
    K_WRITE,
    N_COLS,
    SignatureTable,
    SpillingTraceSink,
    StringTable,
    TraceSink,
    load_trace,
    save_trace,
)
from repro.runtime.interpreter import VM
from repro.workloads import get_workload
from tests.conftest import make_chunk

TEXTBOOK = "histogram"
NAS = "CG"
#: re-chunking width of the chunk-boundary equivalence tests
SMALL_CHUNK = 7


def record(module, entry: str, **vm_kwargs):
    trace = TraceSink()
    vm = VM(module, trace, **vm_kwargs)
    vm.run(entry)
    return trace, vm


def rows_of(trace) -> np.ndarray:
    return np.concatenate([chunk.rows for chunk in trace.iter_chunks()])


def assert_sigs_decode(trace, vm) -> None:
    """Every ``sig`` id of a reloaded trace decodes to the recording
    VM's signature tuple."""
    for chunk in trace.iter_chunks():
        assert chunk.sigs is not vm.sigs  # read back from the file
        for sig in np.unique(chunk.rows[:, COL_SIG]).tolist():
            assert chunk.sigs.values[sig] == vm.sigs.values[sig]


def rechunk(trace, size: int):
    """The same stream cut into ``size``-row chunks (shared strings)."""
    for chunk in trace.iter_chunks():
        for start in range(0, len(chunk), size):
            yield chunk.take(slice(start, start + size))


@pytest.fixture(scope="module")
def recorded():
    """Traces of the textbook + NAS workloads."""
    out = {}
    for name in (TEXTBOOK, NAS):
        workload = get_workload(name)
        out[name] = record(workload.compile(1), workload.entry)
    return out


class TestPackedFormat:
    def test_event_dtype_layout(self, recorded):
        chunk = next(recorded[TEXTBOOK][0].iter_chunks())
        assert isinstance(chunk, EventChunk)
        structured = chunk.structured
        assert structured.dtype == EVENT_DTYPE
        assert structured.shape[0] == len(chunk)
        assert chunk.nbytes == len(chunk) * EVENT_DTYPE.itemsize

    def test_string_table_reserves_none(self):
        table = StringTable()
        assert table.decode(0) is None
        sid = table.intern("x")
        assert table.intern("x") == sid
        assert table.decode(sid) == "x"
        restored = StringTable.from_array(table.to_array())
        assert restored.values == table.values

    def test_signature_arrays_hold_no_list_copy(self):
        """Converting a recorded signature table allocates little beyond
        its two arrays, and the arrays rebuild the same table."""
        workload = get_workload("matmul")
        _, vm = record(workload.compile(1), workload.entry)
        tracemalloc.start()
        try:
            lengths, pairs = vm.sigs.to_arrays()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (lengths.nbytes + pairs.nbytes)
        restored = SignatureTable.from_arrays(lengths, pairs)
        assert restored.values == vm.sigs.values

    @pytest.mark.parametrize("core", ["serial", "vectorized"])
    def test_unknown_signature_id_raises(self, core):
        chunk = make_chunk([
            [K_WRITE, 64, 3, "x", 0, 0, 0, 0, 0],
            [K_READ, 64, 4, "x", 1, 0, 1, 5, 0],
        ])
        profiler = (SerialProfiler(PerfectShadow()) if core == "serial"
                    else VectorizedProfiler(batch_events=0))
        with pytest.raises(IndexError):
            profiler.process_chunk(chunk)

    @pytest.mark.parametrize("core", ["serial", "vectorized"])
    def test_second_signature_table_is_rejected(self, recorded, core):
        trace = recorded[TEXTBOOK][0]
        profiler = (SerialProfiler(PerfectShadow()) if core == "serial"
                    else VectorizedProfiler())
        first = next(trace.iter_chunks())
        profiler.process_chunk(first)
        # an equal copy is still another table: the ids are bound to the first
        other = SignatureTable(list(first.sigs.values))
        with pytest.raises(ValueError, match="one signature table"):
            profiler.process_chunk(
                EventChunk(first.rows, first.strings, other)
            )


class TestSinkAccounting:
    def test_n_events_single_source_of_truth(self, recorded):
        for trace, _ in recorded.values():
            assert trace.n_events == sum(len(c) for c in trace.iter_chunks())
            assert len(trace) == trace.n_events
            assert trace.n_events == rows_of(trace).shape[0]

    def test_nbytes_observable(self, recorded):
        # the VM emits int64 rows; a recorded trace rests as int32
        trace = recorded[TEXTBOOK][0]
        assert EVENT_NBYTES == 72
        assert trace.nbytes == trace.n_events * N_COLS * 4


class TestRestingFormat:
    """A recorded chunk rests as int32 where every value fits and as
    int64 where one does not; every reader sees int64 rows."""

    @staticmethod
    def _mixed_sink():
        small = make_chunk([
            [K_WRITE, 64, 3, "x", 0, 0, 0, 0, 0],
            [K_READ, 64, 4, "x", 1, 0, 1, 0, 0],
        ])
        big = make_chunk([[K_READ, 64, 5, "y", 2, 0, 2**31, 0, 0]])
        sink = TraceSink()
        sink(small)
        sink(big)
        return sink, [small.rows, big.rows]

    def test_out_of_range_chunk_stays_int64(self):
        sink, (small, big) = self._mixed_sink()
        assert sink.nbytes == len(small) * N_COLS * 4 + len(big) * N_COLS * 8
        assert len(sink) == 3

    def test_readers_see_the_recorded_int64_rows(self, recorded):
        sink, expected = self._mixed_sink()
        chunks = list(sink.iter_chunks())
        assert [c.rows.dtype for c in chunks] == [np.int64, np.int64]
        for chunk, rows in zip(chunks, expected):
            assert np.array_equal(chunk.rows, rows)
        trace = recorded[TEXTBOOK][0]
        assert all(c.rows.dtype == np.int64 for c in trace.iter_chunks())

    def test_save_writes_resting_arrays_and_reloads(self, tmp_path):
        sink, expected = self._mixed_sink()
        path = str(tmp_path / "trace.npz")
        save_trace(sink, path)
        with np.load(path) as data:
            assert data["rows_000000"].dtype == np.int32
            assert data["rows_000001"].dtype == np.int64
        restored = load_trace(path)
        assert restored.nbytes == sink.nbytes
        for chunk, rows in zip(restored.iter_chunks(), expected):
            assert chunk.rows.dtype == np.int64
            assert np.array_equal(chunk.rows, rows)

    def test_all_int64_trace_file_still_loads(self, recorded, tmp_path):
        """The layout written before traces rested as int32."""
        trace, vm = recorded[TEXTBOOK]
        arrays = {
            f"rows_{i:06d}": chunk.rows
            for i, chunk in enumerate(trace.iter_chunks())
        }
        arrays["strings"] = vm.strings.to_array()
        arrays["sig_lengths"], arrays["sig_pairs"] = vm.sigs.to_arrays()
        path = str(tmp_path / "trace.npz")
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        restored = load_trace(path)
        assert restored.nbytes == trace.nbytes
        assert np.array_equal(rows_of(restored), rows_of(trace))
        assert_sigs_decode(restored, vm)


def profile_trace(chunks, shadow=None):
    profiler = SerialProfiler(
        shadow if shadow is not None else PerfectShadow()
    )
    for chunk in chunks:
        profiler.process_chunk(chunk)
    return profiler


class TestSerialEquivalence:
    """The occurrence memo and signature caches persist across chunks:
    re-chunking the stream must not change anything the walk builds."""

    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_dependence_store_bit_identical(self, recorded, name):
        trace, vm = recorded[name]
        whole = profile_trace(trace.iter_chunks())
        small = profile_trace(rechunk(trace, SMALL_CHUNK))
        assert whole.store.to_dict() == small.store.to_dict()
        assert {k: r.to_dict() for k, r in whole.control.items()} == {
            k: r.to_dict() for k, r in small.control.items()
        }
        assert whole.stats.reads == small.stats.reads
        assert whole.stats.writes == small.stats.writes
        assert whole.stats.deps_built == small.stats.deps_built
        assert whole.stats.evictions == small.stats.evictions

    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_signature_shadow_collisions_unchanged(self, recorded, name):
        trace, vm = recorded[name]
        s_whole = SignatureShadow(251)
        s_small = SignatureShadow(251)
        whole = profile_trace(trace.iter_chunks(), shadow=s_whole)
        small = profile_trace(rechunk(trace, SMALL_CHUNK), shadow=s_small)
        assert whole.store.to_dict() == small.store.to_dict()
        assert s_whole.collisions == s_small.collisions
        assert s_whole.collisions > 0  # 251 slots must alias something

    def test_large_op_ids_do_not_alias_memo_keys(self):
        """op_id past the int64-safe 11 bits must not merge distinct deps.

        Regression: the vectorized occurrence-key base wrapped int64 for
        ``op_id >= 2048``, aliasing (op 5, op 4101) into one memo key and
        silently merging two different RAW dependences.
        """
        events = make_chunk([
            (K_WRITE, 1, 1, "x", 0, 0, 1, 0, 1),
            (K_READ, 1, 10, "x", 5, 0, 2, 0, 1),
            (K_READ, 1, 99, "y", 4101, 0, 3, 0, 2),
        ])
        profiler = SerialProfiler(PerfectShadow())
        profiler.process_chunk(events)
        assert {(d.sink_line, d.source_line, d.var) for d in profiler.store} == {
            (10, 1, "x"), (99, 1, "y"),
        }

    def test_multithreaded_equivalence(self):
        src = """
        int counter;
        int partial[4];
        void worker(int id, int n) {
          int local = 0;
          for (int i = 0; i < n; i++) { local += 1; }
          partial[id] = local;
          lock(1);
          counter += local;
          unlock(1);
        }
        int main() {
          int t0 = spawn worker(0, 25);
          int t1 = spawn worker(1, 25);
          join(t0); join(t1);
          return counter;
        }
        """
        module = compile_source(src)
        trace, vm = record(module, "main", quantum=8)
        whole = profile_trace(trace.iter_chunks())
        small = profile_trace(rechunk(trace, SMALL_CHUNK))
        assert whole.store.to_dict() == small.store.to_dict()
        assert {d.sink_tid for d in whole.store} > {0}


class TestSkippingAndPET:
    def test_skipping_accepts_packed_chunks(self, recorded):
        trace, vm = recorded[TEXTBOOK]
        skippers = []
        for chunks in (trace.iter_chunks(), rechunk(trace, SMALL_CHUNK)):
            skipper = SkippingProfiler(
                SerialProfiler(PerfectShadow())
            )
            for chunk in chunks:
                skipper.process_chunk(chunk)
            skippers.append(skipper)
        whole, small = skippers
        assert whole.store.to_dict() == small.store.to_dict()
        assert whole.stats.skipped == small.stats.skipped > 0
        # skipping only drops repeat occurrences, never a dependence
        assert whole.store.keys() == profile_trace(trace.iter_chunks()).store.keys()

    def test_pet_tree_identical(self, recorded):
        for name, (trace, _) in recorded.items():
            trees = []
            for chunks in (trace.iter_chunks(), rechunk(trace, SMALL_CHUNK)):
                pet = PETBuilder()
                for chunk in chunks:
                    pet.process_chunk(chunk)
                trees.append(pet.format_tree(max_depth=12))
            assert trees[0] == trees[1], name


def pet_of(chunks) -> list:
    """Every PET node in walk order: ids, child order, counts, lines."""
    pet = PETBuilder()
    for chunk in chunks:
        pet.process_chunk(chunk)
    return [
        (node.node_id, node.kind, node.name, node.line, node.executions,
         node.iterations, node.memory_instructions,
         sorted(node.lines_touched), [c.node_id for c in node.children])
        for node in pet.root.walk()
    ]


@pytest.mark.parametrize(
    "name", [TEXTBOOK, NAS, "fib", "md5-pthread", "kmeans-pthread"]
)
class TestPETRuns:
    """Only BGN/END/FENTRY/FEXIT shape the PET."""

    def test_iter_rows_change_nothing(self, name):
        workload = get_workload(name)
        trace, _ = record(workload.compile(1), workload.entry)
        without = (
            chunk.take(chunk.kind != K_ITER) for chunk in trace.iter_chunks()
        )
        assert pet_of(without) == pet_of(trace.iter_chunks())

    def test_rechunked_trace_same_pet(self, name):
        workload = get_workload(name)
        trace, _ = record(workload.compile(1), workload.entry)
        whole = pet_of(trace.iter_chunks())
        for size in (7, 61):
            assert pet_of(rechunk(trace, size)) == whole, size


class TestCUWalk:
    @pytest.mark.parametrize("name", [TEXTBOOK, NAS])
    def test_topdown_registry_identical(self, recorded, name):
        trace, _ = recorded[name]
        module = get_workload(name).compile(1)
        registries = []
        for chunks in (trace.iter_chunks(), rechunk(trace, SMALL_CHUNK)):
            builder = TopDownBuilder(module)
            builder.process_chunks(chunks)
            registries.append(
                (builder.build().to_dict(), dict(builder.line_counts))
            )
        assert registries[0] == registries[1]


class TestSpillingTraceSink:
    def test_spills_and_reiterates(self, tmp_path):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        full = TraceSink()
        vm = VM(module, full, chunk_size=256)
        vm.run(workload.entry)

        spilling = SpillingTraceSink(8, spill_dir=str(tmp_path))
        vm2 = VM(module, spilling, chunk_size=256)
        vm2.run(workload.entry)

        assert spilling.resident_chunks <= 8
        assert spilling.n_spilled_chunks > 0
        assert spilling.spilled_bytes > 0
        assert spilling.n_events == full.n_events
        assert spilling.nbytes < full.nbytes
        # re-iterable: two full passes read identically
        first = rows_of(spilling)
        second = rows_of(spilling)
        assert np.array_equal(first, second)
        assert np.array_equal(first, rows_of(full))
        spilling.close()
        assert not any(
            f.startswith("segment-") for f in os.listdir(tmp_path)
        )

    def test_save_and_load_roundtrip(self, tmp_path):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        trace, vm = record(module, workload.entry)
        path = tmp_path / "trace.npz"
        save_trace(trace, str(path))
        restored = load_trace(str(path))
        assert np.array_equal(rows_of(restored), rows_of(trace))
        assert next(restored.iter_chunks()).strings.values == (
            next(trace.iter_chunks()).strings.values
        )
        assert next(restored.iter_chunks()).sigs.values == vm.sigs.values
        assert_sigs_decode(restored, vm)

    def test_save_streams_spilled_segments(self, tmp_path):
        """Saving a spilling sink holds about one chunk at a time, not
        the trace: each array goes into the archive as it is read."""
        workload = get_workload("mandelbrot")
        spilling = SpillingTraceSink(2, spill_dir=str(tmp_path / "spill"))
        vm = VM(workload.compile(1), spilling)
        vm.run(workload.entry)
        chunk_bytes = max(chunk.nbytes for chunk in spilling.iter_chunks())
        assert spilling.n_events * EVENT_NBYTES > 20 * chunk_bytes
        # the string and signature tables are converted whole; measure
        # them on their own and bound what saving adds to them
        tracemalloc.start()
        try:
            spilling.strings.to_array()
            spilling.sigs.to_arrays()
            tables_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            spilling.save(str(tmp_path / "trace.npz"))
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak - tables_peak < 4 * chunk_bytes
        restored = load_trace(str(tmp_path / "trace.npz"))
        assert np.array_equal(rows_of(restored), rows_of(spilling))
        assert_sigs_decode(restored, vm)
        with np.load(str(tmp_path / "trace.npz")) as data:
            rows = sorted(k for k in data.files if k.startswith("rows_"))
            assert rows == [f"rows_{i:06d}" for i in range(len(rows))]
            assert set(data.files) - set(rows) == {
                "strings", "sig_lengths", "sig_pairs"
            }
        spilling.close()

    def test_reloaded_spilled_trace_drives_cu_construction(self, tmp_path):
        """A spilled multi-segment trace, persisted and reloaded with
        ``load_trace``, must drive CU construction exactly like the
        fully-resident recording."""
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)

        resident = TraceSink()
        vm = VM(module, resident, chunk_size=256)
        vm.run(workload.entry)

        spilling = SpillingTraceSink(4, spill_dir=str(tmp_path / "spill"))
        vm2 = VM(module, spilling, chunk_size=256)
        vm2.run(workload.entry)
        assert spilling.n_spilled_chunks > 1  # multi-segment on disk

        path = tmp_path / "trace.npz"
        spilling.save(str(path))
        reloaded = load_trace(str(path))
        assert reloaded.n_events == resident.n_events

        registries = {}
        for tag, trace in (("resident", resident), ("reloaded", reloaded)):
            builder = TopDownBuilder(module)
            builder.process_chunks(trace.iter_chunks())
            registries[tag] = (builder.build(), dict(builder.line_counts))
        assert registries["resident"][1] == registries["reloaded"][1]
        assert (
            registries["resident"][0].to_dict()
            == registries["reloaded"][0].to_dict()
        )
        spilling.close()


class TestEngineIntegration:
    def test_spilling_engine_matches_resident(self):
        workload = get_workload(TEXTBOOK)
        base = DiscoveryConfig(
            source=workload.source(1), name=TEXTBOOK,
            vm_kwargs={"chunk_size": 256},
        )
        resident = DiscoveryEngine(config=base).run()
        spilled_engine = DiscoveryEngine(
            config=base.replace(spill_trace=True, max_resident_chunks=8)
        )
        spilled = spilled_engine.run()
        profile = spilled_engine.profile()
        assert profile.stats["spilled_chunks"] > 0
        assert profile.trace.resident_chunks <= 8
        assert resident.store.to_dict() == spilled.store.to_dict()
        assert resident.registry.to_dict() == spilled.registry.to_dict()
        assert [s.to_dict() for s in resident.suggestions] == [
            s.to_dict() for s in spilled.suggestions
        ]

    def test_engine_records_phase_timings(self):
        workload = get_workload(TEXTBOOK)
        engine = DiscoveryEngine(
            config=DiscoveryConfig(source=workload.source(1), name=TEXTBOOK)
        )
        result = engine.run()
        assert set(result.timings) == {
            "profile", "vm_compiled", "build_cus", "detect", "rank"
        }
        assert all(t >= 0 for t in result.timings.values())
        data = result.to_dict()
        assert data["timings"] == result.timings
        from repro.engine import DiscoveryResult

        assert DiscoveryResult.from_dict(data).to_dict() == data


#: case -> (config overrides, a factory for the detection core they
#: select, the ``profile_stats["detect"]`` it reports).  The supervision
#: fields reach the sharded core only, and only when set.
ENGINE_CORES = {
    "default": ({}, VectorizedProfiler, "vectorized"),
    "loop": (
        {"detect": "loop"},
        lambda: SerialProfiler(PerfectShadow()),
        "loop",
    ),
    "sharded": (
        {"detect": "sharded", "detect_workers": 2},
        lambda: ShardedDetector(None, n_shards=2),
        "sharded",
    ),
    "sharded-empty-resilience": (
        {"detect": "sharded", "detect_workers": 2, "resilience": {}},
        lambda: ShardedDetector(None, n_shards=2),
        "sharded",
    ),
    "sharded-supervised": (
        {"detect": "sharded", "detect_workers": 2,
         "resilience": {"hang_timeout": 30.0},
         "fault_plan": {"events": []}},
        lambda: ShardedDetector(None, n_shards=2),
        "sharded",
    ),
    "signature": (
        {"signature_slots": 4096},
        lambda: VectorizedProfiler(4096),
        "vectorized",
    ),
    "skipping": (
        {"skip_loops": True},
        lambda: SkippingProfiler(SerialProfiler(PerfectShadow())),
        "loop",
    ),
    "vectorized-ignores-supervision": (
        {"resilience": {"hang_timeout": 30.0}, "fault_plan": {"events": []}},
        VectorizedProfiler,
        "vectorized",
    ),
}


def _run_by_hand(core, workload):
    """Drive ``core`` over ``workload`` and flush/merge it."""
    inner = getattr(core, "inner", core)
    try:
        VM(workload.compile(1), core).run(workload.entry)
        if isinstance(inner, ShardedDetector):
            inner.finalize()
        elif isinstance(inner, VectorizedProfiler):
            inner.flush()
    except BaseException:
        if isinstance(inner, ShardedDetector):
            inner.close()
        raise
    return inner


class TestBackendRegistry:
    """The engine's one backend, built from the config's own fields."""

    @pytest.mark.parametrize("case", sorted(ENGINE_CORES))
    def test_engine_builds_the_configured_core(self, monkeypatch, case):
        options, build, detect = ENGINE_CORES[case]
        workload = get_workload(TEXTBOOK)
        built = []

        class Recording(SerialBackend):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(self)

        monkeypatch.setattr(engine_core, "SerialBackend", Recording)
        profile = DiscoveryEngine(config=DiscoveryConfig(
            source=workload.source(1), name=TEXTBOOK, entry=workload.entry,
            **options,
        )).profile()
        core = build()
        by_hand = _run_by_hand(core, workload)
        assert profile.store.to_dict() == by_hand.store.to_dict()
        assert {r: c.to_dict() for r, c in profile.control.items()} == {
            r: c.to_dict() for r, c in by_hand.control.items()
        }
        assert profile.stats["detect"] == detect
        (backend,) = built
        assert type(backend.profiler) is type(by_hand)
        if options.get("skip_loops"):
            assert profile.stats["skipped"] == core.stats.skipped > 0
        else:
            assert "skipped" not in profile.stats
        if detect == "sharded":
            # an empty ``resilience`` never reaches the detector: a
            # default sharded run is unsupervised and journals nothing
            detector = backend.profiler
            assert detector.policy.supervise is bool(
                options.get("resilience")
            )
            assert (detector.faults is None) is ("fault_plan" not in options)

    def test_serial_and_parallel_agree(self):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        serial = SerialBackend()
        VM(module, serial).run(workload.entry)
        serial = serial.finish()
        parallel = ParallelProfiler(4)
        VM(module, parallel).run(workload.entry)
        store = parallel.finish()
        assert serial.store.to_dict() == store.to_dict()
        assert parallel.report.n_workers == 4
        assert {r: c.to_dict() for r, c in serial.control.items()} == {
            r: c.to_dict() for r, c in parallel.control.items()
        }


class TestCLIPipelineFlags:
    def test_discover_spill_flags(self, capsys):
        from repro.cli import main

        code = main([
            "discover", "--workload", TEXTBOOK,
            "--spill-trace", "--max-resident-chunks", "8",
            "--format", "json",
        ])
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert "chunk_format" not in data["profile_stats"]
        assert "spilled_chunks" in data["profile_stats"]

    def test_discover_skip_loops_flag(self, capsys):
        from repro.cli import main

        code = main([
            "discover", "--workload", TEXTBOOK, "--skip-loops",
            "--format", "json",
        ])
        assert code == 0
        import json

        stats = json.loads(capsys.readouterr().out)["profile_stats"]
        assert stats["detect"] == "loop"
        assert stats["skipped"] > 0
