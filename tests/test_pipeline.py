"""Columnar event pipeline: packing, chunking, spilling, backends.

The contract: chunk boundaries carry no meaning — every consumer builds
bit-identical DependenceStore contents, control records, shadow
behaviour, PETs and CU registries however the stream is chunked — and
the spilling sink bounds resident trace memory without losing
re-iterability.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cu.topdown import TopDownBuilder
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.mir.lowering import compile_source
from repro.profiler.backends import make_backend
from repro.profiler.pet import PETBuilder
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.skipping import SkippingProfiler
from repro.runtime.events import (
    EVENT_DTYPE,
    EVENT_NBYTES,
    EventChunk,
    K_READ,
    K_WRITE,
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


def rechunk(trace, size: int):
    """The same stream cut into ``size``-row chunks (shared strings)."""
    for chunk in trace.chunks:
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
        chunk = recorded[TEXTBOOK][0].chunks[0]
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


class TestSinkAccounting:
    def test_n_events_single_source_of_truth(self, recorded):
        for trace, _ in recorded.values():
            assert trace.n_events == sum(len(c) for c in trace.chunks)
            assert len(trace) == trace.n_events
            assert trace.n_events == rows_of(trace).shape[0]

    def test_nbytes_observable(self, recorded):
        trace = recorded[TEXTBOOK][0]
        assert EVENT_NBYTES == 72
        assert trace.nbytes == trace.n_events * EVENT_NBYTES


def profile_trace(chunks, vm, shadow=None):
    profiler = SerialProfiler(
        shadow if shadow is not None else PerfectShadow(), vm.loop_signature
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
        whole = profile_trace(trace.chunks, vm)
        small = profile_trace(rechunk(trace, SMALL_CHUNK), vm)
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
        whole = profile_trace(trace.chunks, vm, shadow=s_whole)
        small = profile_trace(rechunk(trace, SMALL_CHUNK), vm, shadow=s_small)
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
        whole = profile_trace(trace.chunks, vm)
        small = profile_trace(rechunk(trace, SMALL_CHUNK), vm)
        assert whole.store.to_dict() == small.store.to_dict()
        assert {d.sink_tid for d in whole.store} > {0}


class TestSkippingAndPET:
    def test_skipping_accepts_packed_chunks(self, recorded):
        trace, vm = recorded[TEXTBOOK]
        skippers = []
        for chunks in (trace.chunks, rechunk(trace, SMALL_CHUNK)):
            skipper = SkippingProfiler(
                SerialProfiler(PerfectShadow(), vm.loop_signature)
            )
            for chunk in chunks:
                skipper.process_chunk(chunk)
            skippers.append(skipper)
        whole, small = skippers
        assert whole.store.to_dict() == small.store.to_dict()
        assert whole.stats.skipped == small.stats.skipped > 0
        # skipping only drops repeat occurrences, never a dependence
        assert whole.store.keys() == profile_trace(
            trace.chunks, vm
        ).store.keys()

    def test_pet_tree_identical(self, recorded):
        for name, (trace, _) in recorded.items():
            trees = []
            for chunks in (trace.chunks, rechunk(trace, SMALL_CHUNK)):
                pet = PETBuilder()
                for chunk in chunks:
                    pet.process_chunk(chunk)
                trees.append(pet.format_tree(max_depth=12))
            assert trees[0] == trees[1], name


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
        trace, _ = record(module, workload.entry)
        path = tmp_path / "trace.npz"
        save_trace(trace, str(path))
        restored = load_trace(str(path))
        assert np.array_equal(rows_of(restored), rows_of(trace))
        assert restored.chunks[0].strings.values == (
            trace.chunks[0].strings.values
        )

    def test_raw_npy_spill_roundtrip(self, tmp_path):
        """compress=False spills raw mmap-loadable .npy segments."""
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        full, _ = record(module, workload.entry, chunk_size=256)

        spilling = SpillingTraceSink(
            4, spill_dir=str(tmp_path), compress=False
        )
        vm = VM(module, spilling, chunk_size=256)
        vm.run(workload.entry)
        assert spilling.n_spilled_chunks > 0
        paths = spilling.segment_paths
        assert paths and all(p.endswith(".npy") for p in paths)
        arr = np.load(paths[0], mmap_mode="r")
        assert arr.ndim == 2 and arr.shape[0] > 0
        assert np.array_equal(rows_of(spilling), rows_of(full))
        # save/load still round-trips through the canonical npz artifact
        path = tmp_path / "trace.npz"
        spilling.save(str(path))
        restored = load_trace(str(path))
        assert np.array_equal(rows_of(restored), rows_of(full))
        spilling.close()
        assert not any(
            f.startswith("segment-") for f in os.listdir(tmp_path)
        )

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


class TestBackendRegistry:
    def source_and_decoder(self):
        workload = get_workload(TEXTBOOK)
        module = workload.compile(1)
        return workload, module

    def run_backend(self, name, **options):
        workload, module = self.source_and_decoder()
        backend = make_backend(name, **options)
        vm = VM(module, backend)
        backend.sig_decoder = vm.loop_signature
        vm.run(workload.entry)
        return backend.finish()

    def test_serial_and_parallel_agree(self):
        serial = self.run_backend("serial")
        parallel = self.run_backend("parallel", n_workers=4)
        assert serial.store.to_dict() == parallel.store.to_dict()
        assert serial.stats["backend"] == "serial"
        assert parallel.stats["backend"] == "parallel"
        assert parallel.stats["n_workers"] == 4
        assert {r.region_id for r in serial.control.values()} == {
            r.region_id for r in parallel.control.values()
        }

    def test_signature_backend_defaults_slots(self):
        result = self.run_backend("signature")
        assert result.stats["backend"] == "signature"
        assert "shadow_collisions" in result.stats

    def test_skipping_backend_reports_skips(self):
        result = self.run_backend("skipping")
        assert "skip_stats" in result.extras
        assert result.stats["skipped"] == result.extras["skip_stats"].skipped

    def test_unknown_backend_is_loud(self):
        with pytest.raises(ValueError, match="unknown profiler backend"):
            make_backend("warp-drive")

    def test_parallel_plus_skip_loops_fails_loudly(self):
        config = DiscoveryConfig(
            source="int main() { return 0; }",
            backend="parallel",
            skip_loops=True,
        )
        with pytest.raises(ValueError, match="skip_loops is not supported"):
            DiscoveryEngine(config=config).profile()

    def test_engine_backend_selection(self):
        workload = get_workload(TEXTBOOK)
        serial = DiscoveryEngine(
            config=DiscoveryConfig(source=workload.source(1))
        ).run()
        parallel = DiscoveryEngine(
            config=DiscoveryConfig(
                source=workload.source(1),
                backend="parallel",
                backend_options={"n_workers": 4},
            )
        ).run()
        assert serial.store.to_dict() == parallel.store.to_dict()


class TestCLIPipelineFlags:
    def test_discover_backend_flag_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "discover", "--workload", TEXTBOOK, "--backend", "parallel",
            "--format", "json",
        ])
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["artifact"] == "discovery_result"
        assert data["profile_stats"]["backend"] == "parallel"
        assert set(data["timings"]) == {
            "profile", "vm_compiled", "build_cus", "detect", "rank"
        }

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

    def test_bench_smoke(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "--quick"])  # a suite must be named
        assert "--suite" in capsys.readouterr().err
        monkeypatch.chdir(tmp_path)
        code = main([
            "bench", "--suite", "vm", "fib", "--reps", "1",
            "--format", "json", "--save", "bench.json",
        ])
        assert code == 0
        import json

        with open(tmp_path / "bench.json") as handle:
            saved = json.load(handle)
        assert saved["workloads"][0]["workload"] == "fib"
        assert saved["all_traces_identical"]
        assert saved["all_stores_identical"]
