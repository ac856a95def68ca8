"""Compiled-dispatch VM: golden-trace equivalence + compile pass tests.

The compiled core (:mod:`repro.runtime.compile`) must be observationally
indistinguishable from the switch reference loop: identical event rows,
identical chunk boundaries, identical dependence stores, identical final
memory/globals/output, identical step counts — across address modes,
threading, quanta, and the parallelize scheduler.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

import repro.runtime.compile
from repro.engine import DiscoveryConfig, DiscoveryEngine, DiscoveryResult
from repro.frontend.lowering import compile_python_source
from repro.mir.instructions import Instr, Opcode
from repro.mir.lowering import compile_source
from repro.parallelize import validate_plan
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.compile import (
    INLINE_OPS,
    RUN_TERMINATORS,
    CompiledCode,
    bigram_census,
    compile_function,
    find_runs,
)
from repro.runtime.events import ChunkBuilder, N_COLS, StringTable, TraceSink
from repro.runtime.interpreter import VM
from repro.simulate.exec_model import loop_iteration_costs, simulate_doall
from repro.workloads import get_workload


def _run(module, entry, dispatch, *, instrument=True, **vm_kwargs):
    trace = TraceSink()
    vm = VM(
        module,
        trace if instrument else None,
        dispatch=dispatch,
        instrument=instrument,
        **vm_kwargs,
    )
    result = vm.run(entry)
    return result, trace, vm


def _store_of(trace):
    profiler = SerialProfiler(PerfectShadow())
    for chunk in trace.iter_chunks():
        profiler.process_chunk(chunk)
    return profiler.store.to_dict()


#: golden sample: textbook loops, NAS, recursion, apps, one threaded
GOLDEN_WORKLOADS = ["pi", "fib", "fft", "mandelbrot", "md5-pthread"]

#: 1e309 as a MiniC literal: MiniC has no exponent literals
_BIG = "1" + "0" * 309 + ".0"

#: constant operations at the edges of the number range, in both
#: frontends: name -> (frontend, source, expected return value or the
#: exception every core raises).  The divisions stay unfolded, so only
#: the taken branch may raise; the overflowing floats fold into inf,
#: -inf and nan immediates.
EDGE_PROGRAMS = {
    "dead_div_mc": (
        "minic",
        "int main() { int x; x = 0; if (x) { x = 1 / 0; } return x; }",
        0,
    ),
    "taken_div_mc": (
        "minic",
        "int main() { int x; x = 1; if (x) { x = 1 / 0; } return x; }",
        ZeroDivisionError,
    ),
    "inf_mc": (
        "minic",
        f"float main() {{ float big; big = {_BIG}; return big - 1.0; }}",
        math.inf,
    ),
    "nan_mc": (
        "minic",
        f"float main() {{ float x; float y; x = {_BIG} - {_BIG}; "
        f"y = -{_BIG}; return x + y; }}",
        math.nan,
    ),
    "dead_div_py": (
        "python",
        "def main() -> int:\n    x = 0\n    if x:\n        x = 1 // 0\n"
        "    return x\n",
        0,
    ),
    "taken_div_py": (
        "python",
        "def main() -> int:\n    x = 1\n    if x:\n        x = 1 // 0\n"
        "    return x\n",
        ZeroDivisionError,
    ),
    "inf_py": (
        "python",
        "def main() -> float:\n    big = 1e308 * 10.0\n    return big - 1.0\n",
        math.inf,
    ),
    "nan_py": (
        "python",
        "def main() -> float:\n    x = 1e308 * 10.0 - 1e308 * 10.0\n"
        "    y = -(1e308 * 10.0)\n    return x + y\n",
        math.nan,
    ),
}


def _compile_edge(name):
    frontend, source, _ = EDGE_PROGRAMS[name]
    if frontend == "python":
        return compile_python_source(source, name=name, filename=name)
    return compile_source(source)


def _expected_error(name):
    """The exception every core raises on edge program ``name``, or None."""
    expected = EDGE_PROGRAMS[name][2]
    if isinstance(expected, type) and issubclass(expected, Exception):
        return expected
    return None


def _nan_safe(values):
    """``values`` with every NaN as one marker: NaN != NaN, and each run
    computes its own NaN objects."""
    return [("nan" if v != v else v) for v in values]


def _outcomes(compile_module, entry, dispatch, raises):
    """(traced, untraced) ``_run`` results of one core, or ``None`` each
    after checking that both variants raise ``raises``."""
    results = []
    for instrument in (True, False):
        if raises:
            with pytest.raises(raises):
                _run(compile_module(), entry, dispatch, instrument=instrument)
            results.append(None)
        else:
            results.append(
                _run(compile_module(), entry, dispatch, instrument=instrument)
            )
    return results


def _assert_same_run(reference, other, *, rows=True):
    """Return value, memory, output, steps and trace rows agree."""
    if reference is None or other is None:
        assert reference is other
        return
    r_ref, t_ref, vm_ref = reference
    r_other, t_other, vm_other = other
    assert _nan_safe([r_ref]) == _nan_safe([r_other])
    assert _nan_safe(vm_ref.memory) == _nan_safe(vm_other.memory)
    assert vm_ref.output == vm_other.output
    assert vm_ref.total_steps == vm_other.total_steps
    if not rows:
        return
    rows_ref = [c.rows for c in t_ref.iter_chunks()]
    rows_other = [c.rows for c in t_other.iter_chunks()]
    assert len(rows_ref) == len(rows_other)
    assert all(np.array_equal(a, b) for a, b in zip(rows_ref, rows_other))


class TestGoldenTraceEquivalence:
    """Four VM configurations (switch/compiled × traced/untraced),
    bit-identical artifacts."""

    @pytest.mark.parametrize("name", GOLDEN_WORKLOADS)
    def test_four_way_equivalence(self, name):
        w = get_workload(name)

        r_sw_traced, t_sw_traced, vm_sw_traced = _run(
            w.compile(1), w.entry, "switch"
        )
        r_sw_untraced, _, vm_sw_untraced = _run(
            w.compile(1), w.entry, "switch", instrument=False
        )
        r_c_traced, t_c_traced, vm_c_traced = _run(
            w.compile(1), w.entry, "compiled"
        )
        r_c_untraced, _, vm_c_untraced = _run(
            w.compile(1), w.entry, "compiled", instrument=False
        )
        runs = (vm_sw_traced, vm_sw_untraced, vm_c_traced, vm_c_untraced)

        # return values and final state agree everywhere (untraced too)
        assert r_sw_traced == r_sw_untraced == r_c_traced == r_c_untraced
        assert all(vm.memory == vm_sw_traced.memory for vm in runs)
        assert all(vm.output == vm_sw_traced.output for vm in runs)
        assert all(
            vm.total_steps == vm_sw_traced.total_steps for vm in runs
        )

        # traces are row-for-row and chunk-for-chunk identical
        rows_sw = np.concatenate([c.rows for c in t_sw_traced.iter_chunks()])
        rows_c = np.concatenate([c.rows for c in t_c_traced.iter_chunks()])
        assert np.array_equal(rows_sw, rows_c)
        assert vm_sw_traced.strings.values == vm_c_traced.strings.values
        assert vm_sw_traced.sigs.values == vm_c_traced.sigs.values
        assert [len(c) for c in t_sw_traced.iter_chunks()] == [
            len(c) for c in t_c_traced.iter_chunks()
        ]

        # dependence stores built from both traced runs are equal
        assert _store_of(t_sw_traced) == _store_of(t_c_traced)

    @pytest.mark.parametrize("quantum", [3, 17, 64])
    def test_threaded_small_quanta(self, quantum):
        """Fused runs must not perturb interleavings at quantum edges."""
        w = get_workload("kmeans-pthread")
        r_s, t_s, vm_s = _run(
            w.compile(1), w.entry, "switch", quantum=quantum
        )
        r_c, t_c, vm_c = _run(
            w.compile(1), w.entry, "compiled", quantum=quantum
        )
        assert r_s == r_c
        assert vm_s.total_steps == vm_c.total_steps
        rows_s = np.concatenate([c.rows for c in t_s.iter_chunks()])
        rows_c = np.concatenate([c.rows for c in t_c.iter_chunks()])
        assert np.array_equal(rows_s, rows_c)

    def test_unknown_dispatch_rejected(self):
        module = compile_source("int main() { return 0; }")
        with pytest.raises(ValueError, match="dispatch"):
            VM(module, None, dispatch="jit")

    def test_parallel_vm_compiled_matches_switch(self):
        """ParallelVM task bodies run the untraced compiled variant."""
        w = get_workload("matmul")
        reports = {}
        for dispatch in ("switch", "compiled"):
            engine = DiscoveryEngine(
                config=DiscoveryConfig(
                    source=w.source(1), name="matmul", entry=w.entry,
                    dispatch=dispatch,
                )
            )
            artifact = engine.validate(4)
            reports[dispatch] = artifact.reports
        for r_s, r_c in zip(reports["switch"], reports["compiled"]):
            assert r_s.feasible == r_c.feasible
            if not r_s.feasible:
                continue
            assert r_c.identical
            # simulated-unit speedups are deterministic, so they agree
            # exactly between the two cores
            assert r_s.seq_units == r_c.seq_units
            assert r_s.par_units == r_c.par_units


class TestCompilePass:
    def test_find_runs_respects_branch_targets(self):
        module = compile_source(
            """int main() {
              int s = 0;
              for (int i = 0; i < 10; i++) {
                s = s + i;
              }
              return s;
            }"""
        )
        code = module.functions["main"].code
        runs = find_runs(code)
        assert runs, "loop code must produce fused runs"
        targets = set()
        for instr in code:
            if instr.op == "jmp":
                targets.add(instr.a)
            elif instr.op == "br":
                targets.add(instr.b)
                targets.add(instr.c)
        for start, end in runs:
            assert end - start >= 2
            # a branch target never lands strictly inside a run
            for target in targets:
                assert not (start < target < end)
            for instr in code[start : end - 1]:
                assert instr.op in INLINE_OPS
            assert (
                code[end - 1].op in INLINE_OPS
                or code[end - 1].op in RUN_TERMINATORS
            )

    def test_compiled_code_tables_aligned(self):
        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 5; i++) "
            "{ s = s + i; } return s; }"
        )
        vm = VM(module, TraceSink())
        func = module.functions["main"]
        compiled = compile_function(vm, func)
        n = len(func.code)
        assert len(compiled.fns) == len(compiled.costs) == n
        assert len(compiled.alts) == n
        assert compiled.n_fused >= 1
        assert all(cost >= 1 for cost in compiled.costs)
        # every fused closure's span stays inside the code array
        for i, cost in enumerate(compiled.costs):
            assert i + cost <= n

    def test_bigram_census_counts(self):
        module = compile_source(
            "int main() { int a = 1; int b = a + 2; return b; }"
        )
        census = bigram_census([module])
        assert sum(census.values()) == module.functions["main"].n_instrs - 1

    def test_quantum_edge_uses_fallback(self, monkeypatch):
        """The single-instruction table alone reproduces the switch core.

        A lone runnable thread runs with a huge quantum, so a real run
        seldom reaches the quantum-edge fallback; a stand-in compiler
        whose ``fns`` are its ``alts`` sends every dispatch there.
        """
        compiled_funcs = []

        def singles_only(vm, func):
            compiled = compile_function(vm, func)
            compiled_funcs.append(func.name)
            n = len(compiled.costs)
            return CompiledCode(
                compiled.alts, [1] * n, compiled.alts, compiled.traced
            )

        programs = [
            (name, partial(get_workload(name).compile, 1),
             get_workload(name).entry, None)
            for name in GOLDEN_WORKLOADS + ["kmeans-pthread"]
        ] + [
            (name, partial(_compile_edge, name), "main",
             _expected_error(name))
            for name in sorted(EDGE_PROGRAMS)
        ]
        for name, compile_module, entry, raises in programs:
            reference = _outcomes(compile_module, entry, "switch", raises)
            with monkeypatch.context() as patch:
                patch.setattr(
                    repro.runtime.compile, "compile_function", singles_only
                )
                compiled_funcs.clear()
                singles = _outcomes(compile_module, entry, "compiled", raises)
                assert compiled_funcs, name
            for ref, got in zip(reference, singles):
                _assert_same_run(ref, got)


class TestEdgeConstants:
    """Edge constants run as in the switch core, and only when executed:
    a dead constant division returns normally, a taken one raises, and a
    folded inf, -inf or nan immediate evaluates to itself."""

    @pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
    def test_four_cores_agree(self, name):
        compile_module = partial(_compile_edge, name)
        raises = _expected_error(name)
        switch = _outcomes(compile_module, "main", "switch", raises)
        compiled = _outcomes(compile_module, "main", "compiled", raises)
        for ref, got in zip(switch, compiled):
            _assert_same_run(ref, got)
        # traced against untraced: everything but the trace
        _assert_same_run(switch[0], switch[1], rows=False)

    @pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
    def test_engine_matches_switch(self, name):
        frontend, source, expected = EDGE_PROGRAMS[name]
        engine = DiscoveryEngine(config=DiscoveryConfig(
            source=source, name=name, entry="main", frontend=frontend,
        ))
        if _expected_error(name):
            with pytest.raises(expected):
                engine.run()
            return
        value = engine.run().return_value
        switch_value, _, _ = _run(_compile_edge(name), "main", "switch")
        if math.isnan(expected):
            assert math.isnan(value) and math.isnan(switch_value)
        else:
            assert value == switch_value == expected

    @pytest.mark.parametrize("name", ["inf_py", "nan_py"])
    def test_python_matches_cpython(self, name):
        _, source, _ = EDGE_PROGRAMS[name]
        namespace: dict = {}
        exec(source, namespace)
        native = namespace["main"]()
        value, _, _ = _run(_compile_edge(name), "main", "compiled")
        assert _nan_safe([value]) == _nan_safe([native])


class TestUntracedState:
    """Untraced runs keep only the loop state execution itself needs."""

    NEST = """int a[64];
int main() {
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < 8; j++) {
      a[i * 8 + j] = i + j;
    }
  }
  return a[63];
}
"""

    @pytest.mark.parametrize("dispatch", ["compiled", "switch"])
    def test_untraced_run_mints_no_signatures(self, dispatch):
        module = compile_source(self.NEST)
        r_u, _, untraced = _run(module, "main", dispatch, instrument=False)
        r_t, _, traced = _run(module, "main", dispatch)
        assert r_u == r_t == 14
        # only the root (empty) signature: loop contexts exist for the
        # trace alone
        assert untraced.sigs.values == [()]
        assert len(traced.sigs) > 8 * 8

    @pytest.mark.parametrize("dispatch", ["compiled", "switch"])
    def test_untraced_iter_without_enter_still_fails(self, dispatch):
        # the loop stack stays: an iter marker with no open loop (what
        # a malformed transform produces) fails at once, not much later
        module = compile_source(self.NEST)
        code = module.functions["main"].code
        idx = next(i for i, instr in enumerate(code) if instr.op == "enter")
        code[idx] = Instr(Opcode.JMP, a=idx + 1)
        with pytest.raises(IndexError):
            _run(module, "main", dispatch, instrument=False)


class TestChunkBuilderShortChunk:
    """Satellite: the short-final-chunk path hands out a buffer view."""

    def _rows(self, n, fill):
        return [(fill,) * N_COLS for _ in range(n)]

    def test_short_chunk_is_view_of_preallocated_buffer(self):
        builder = ChunkBuilder(8, StringTable())
        buffer_before = builder._rows
        chunk = builder.build(self._rows(3, 7))
        assert len(chunk) == 3
        assert chunk.rows.base is buffer_before
        assert np.array_equal(chunk.rows, np.full((3, N_COLS), 7))

    def test_short_chunk_not_corrupted_by_later_builds(self):
        builder = ChunkBuilder(4, StringTable())
        short = builder.build(self._rows(2, 1))
        full = builder.build(self._rows(4, 2))
        short2 = builder.build(self._rows(3, 3))
        assert np.array_equal(short.rows, np.full((2, N_COLS), 1))
        assert np.array_equal(full.rows, np.full((4, N_COLS), 2))
        assert np.array_equal(short2.rows, np.full((3, N_COLS), 3))

    def test_empty_build(self):
        builder = ChunkBuilder(4, StringTable())
        chunk = builder.build([])
        assert len(chunk) == 0
        assert chunk.rows.shape == (0, N_COLS)

    def test_build_flat_matches_build(self):
        staged = self._rows(5, 9)
        flat: list = []
        for row in staged:
            flat.extend(row)
        a = ChunkBuilder(8, StringTable()).build(staged)
        b = ChunkBuilder(8, StringTable()).build_flat(flat)
        assert np.array_equal(a.rows, b.rows)


class TestVmStatsSerialization:
    """Satellite: VM throughput stats round-trip through DiscoveryResult."""

    def test_profile_stats_carry_dispatch_and_throughput(self):
        w = get_workload("fib")
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=w.source(1), name="fib", entry=w.entry
            )
        )
        result = engine.run()
        stats = result.profile_stats
        assert stats["dispatch"] == "compiled"
        assert stats["vm_events_per_sec"] > 0
        assert stats["vm_wall_seconds"] > 0
        assert stats["vm_steps"] > 0
        assert "vm_compiled" in result.timings

        data = result.to_dict()
        again = DiscoveryResult.from_dict(data)
        assert again.profile_stats["dispatch"] == "compiled"
        assert (
            again.profile_stats["vm_events_per_sec"]
            == stats["vm_events_per_sec"]
        )
        assert again.timings["vm_compiled"] == result.timings["vm_compiled"]
        assert again.to_dict() == data

    def test_switch_dispatch_recorded(self):
        w = get_workload("fib")
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=w.source(1), name="fib", entry=w.entry,
                dispatch="switch",
            )
        )
        profile = engine.profile()
        assert profile.stats["dispatch"] == "switch"
        assert "vm_switch" in engine.timings

    def test_config_round_trips_dispatch(self):
        config = DiscoveryConfig(source="int main() { return 0; }",
                                 dispatch="switch")
        assert DiscoveryConfig.from_dict(config.to_dict()).dispatch == "switch"
        assert config.resolved_vm_kwargs()["dispatch"] == "switch"


class TestExecModelAlignment:
    """Satellite: simulate_doall mirrors the scheduler's granularity."""

    def test_loop_iteration_costs_from_trace(self):
        w = get_workload("mandelbrot")
        module = w.compile(1)
        _, trace, _ = _run(module, w.entry, "compiled")
        loops = [r for r in module.regions.values() if r.kind == "loop"]
        outer = next(r for r in loops if r.start_line == 7)
        costs = loop_iteration_costs(trace, outer.region_id)
        assert costs is not None
        assert len(costs) == 16  # one per image row
        assert all(c > 0 for c in costs)
        # mandelbrot rows are famously imbalanced
        assert max(costs) > 2 * min(costs)

    def test_threaded_trace_returns_none(self):
        """Concurrent threads tick the global ts counter too, which
        would inflate the gaps — the helper must refuse instead."""
        source = """int a[8];
        int b[8];
        void w1() { for (int i = 0; i < 8; i++) { a[i] = i; } }
        void w2() { for (int i = 0; i < 8; i++) { b[i] = i; } }
        int main() {
          int t1 = spawn w1();
          int t2 = spawn w2();
          join(t1); join(t2);
          return a[7] + b[7];
        }"""
        module = compile_source(source)
        for dispatch in ("compiled", "switch"):
            _, trace, _ = _run(module, "main", dispatch, quantum=8)
            for region in module.regions.values():
                if region.kind == "loop":
                    assert (
                        loop_iteration_costs(trace, region.region_id)
                        is None
                    )

    def test_multi_execution_loop_returns_none(self):
        source = """int g;
        void body() { for (int i = 0; i < 3; i++) { g += i; } }
        int main() { body(); body(); return g; }"""
        module = compile_source(source)
        _, trace, _ = _run(module, "main", "compiled")
        loop = next(r for r in module.regions.values() if r.kind == "loop")
        assert loop_iteration_costs(trace, loop.region_id) is None

    def test_simulate_doall_chunk_granularity(self):
        costs = [10.0] * 16
        # more chunks than workers -> greedy assignment still bounded by
        # the per-worker share plus overheads
        wide = simulate_doall(costs, 4, n_chunks=8)
        narrow = simulate_doall(costs, 4, n_chunks=4)
        assert 1.0 < wide <= 4.0
        assert 1.0 < narrow <= 4.0
        # a skewed distribution caps at the heaviest chunk
        skewed = simulate_doall([10.0] * 15 + [400.0], 4, n_chunks=4)
        assert skewed < narrow

    def test_mandelbrot_prediction_error_under_10_percent(self):
        """The satellite's acceptance: <10% at 4 and 8 workers."""
        w = get_workload("mandelbrot")
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=w.source(1), name="mandelbrot", entry=w.entry
            )
        )
        for workers in (4, 8):
            artifact = engine.validate(workers)
            assert artifact.mean_abs_prediction_error is not None
            assert artifact.mean_abs_prediction_error < 0.10

    def test_validate_plan_accepts_iteration_costs(self):
        w = get_workload("matmul")
        module = w.compile(1)
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=w.source(1), name="matmul", entry=w.entry
            )
        )
        plan = engine.parallelize(4)
        profile = engine.profile()
        costs = {
            entry.region_id: loop_iteration_costs(
                profile.trace, entry.region_id
            )
            for entry in plan.feasible_entries
            if getattr(entry, "chunks", None)
        }
        reports = validate_plan(
            engine.module, plan, n_workers=4, entry=w.entry,
            iteration_costs={k: v for k, v in costs.items() if v},
        )
        assert any(r.feasible and r.identical for r in reports)
