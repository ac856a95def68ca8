"""Tests for Chapter 3: computational units."""

import pytest

from repro.cu import (
    build_cu_graph,
    build_cus,
    build_cus_bottom_up,
    effective_global_vars,
)
from repro.cu.graph import container_cus
from repro.cu.variables import RET_VAR, read_write_sets
from repro.mir.lowering import compile_source
from repro.profiler.deps import DepType
from repro.runtime.events import TraceSink
from repro.runtime.interpreter import VM
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow

FIG34 = """int x;
int main() {
  x = 3;
  for (int i = 0; i < 20; i++) {
    int a = x + rand() / x;
    int b = x - rand() / x;
    x = a + b;
  }
  return x;
}
"""


def _run_with_cus(src):
    module = compile_source(src)
    trace = TraceSink()
    prof = SerialProfiler(PerfectShadow())

    def tee(chunk):
        trace(chunk)
        prof.process_chunk(chunk)

    vm = VM(module, tee)
    prof.sig_decoder = vm.loop_signature
    vm.run()
    registry = build_cus(module, trace.iter_chunks())
    return module, trace, prof, registry


class TestVariableAnalysis:
    def test_loop_iteration_variable_local(self):
        module, _, _, _ = _run_with_cus(FIG34)
        loop = module.loops()[0]
        gv = effective_global_vars(module, loop)
        names = {module.var(v).name for v in gv}
        assert names == {"x"}  # i, a, b local; x global

    def test_iter_var_written_in_body_is_global(self):
        # i declared OUTSIDE the loop: local-to-loop by the §3.2.5 iteration
        # variable rule, unless the body writes it
        src = """int n;
int main() {
  n = 10;
  int s = 0;
  int i;
  for (i = 0; i < n; i++) {
    if (s > 3) { i += 1; }
    s += 1;
  }
  return s;
}
"""
        module = compile_source(src)
        loop = module.loops()[0]
        assert loop.iter_var_written_in_body
        gv = effective_global_vars(module, loop)
        names = {module.var(v).name for v in gv}
        assert "i" in names

    def test_iter_var_not_written_stays_local(self):
        src = """int n;
int main() {
  n = 10;
  int s = 0;
  int i;
  for (i = 0; i < n; i++) {
    s += i;
  }
  return s;
}
"""
        module = compile_source(src)
        loop = module.loops()[0]
        assert not loop.iter_var_written_in_body
        gv = effective_global_vars(module, loop)
        names = {module.var(v).name for v in gv}
        assert "i" not in names

    def test_function_params_in_read_set(self):
        src = """int g;
int f(int a, int b) {
  g = a;
  return a + b;
}
int main() { return f(1, 2); }
"""
        module = compile_source(src)
        region = module.region_of_function("f")
        gv = effective_global_vars(module, region)
        reads, writes = read_write_sets(module, region, gv)
        read_names = {module.var(v).name for v in reads if v >= 0}
        assert {"a", "b"}.issubset(read_names)
        # by-value params not in write set; ret and g are
        write_ids = set(writes)
        assert RET_VAR in write_ids
        write_names = {module.var(v).name for v in write_ids if v >= 0}
        assert "g" in write_names
        assert "a" not in write_names

    def test_void_function_has_no_ret(self):
        src = """int g;
void f() { g = 1; }
int main() { f(); return g; }
"""
        module = compile_source(src)
        region = module.region_of_function("f")
        gv = effective_global_vars(module, region)
        _, writes = read_write_sets(module, region, gv)
        assert RET_VAR not in writes


class TestTopDown:
    def test_fig_3_4_loop_is_single_cu(self):
        module, _, _, registry = _run_with_cus(FIG34)
        loop = module.loops()[0]
        info = registry.info(loop.region_id)
        assert info.is_single_cu
        cu = info.region_cu
        names_r = {module.var(v).name for v in cu.read_set}
        names_w = {module.var(v).name for v in cu.write_set}
        assert names_r == {"x"} and names_w == {"x"}

    def test_violating_region_splits(self):
        module, _, _, registry = _run_with_cus(FIG34)
        main_region = module.region_of_function("main")
        info = registry.info(main_region.region_id)
        assert not info.is_single_cu
        assert len(info.segments) >= 2
        # violations are reads of x after the x=3 write
        viol_names = {module.var(v).name for _, v in info.violations}
        assert viol_names == {"x"}

    def test_segments_cover_disjoint_lines(self):
        module, _, _, registry = _run_with_cus(FIG34)
        main_region = module.region_of_function("main")
        info = registry.info(main_region.region_id)
        seen = set()
        for cu in info.segments:
            assert not (cu.lines & seen)
            seen |= cu.lines

    def test_cus_do_not_cross_child_regions(self):
        src = """int a;
int b;
int main() {
  a = 1;
  for (int i = 0; i < 5; i++) {
    b += i;
  }
  int c = a + b;
  a = c;
  int d = a;
  return d;
}
"""
        module, _, _, registry = (lambda s: _run_with_cus(s))(src)
        main_region = module.region_of_function("main")
        loop = module.loops()[0]
        info = registry.info(main_region.region_id)
        for cu in info.cus():
            inside = {l for l in cu.lines
                      if loop.start_line <= l <= loop.end_line}
            # a segment either avoids the loop lines or lies fully inside
            assert not inside or inside == cu.lines & set(
                range(loop.start_line, loop.end_line + 1)
            ) and all(
                loop.start_line <= l <= loop.end_line for l in cu.lines
            )

    def test_instruction_counts_positive(self):
        module, _, _, registry = _run_with_cus(FIG34)
        loop = module.loops()[0]
        cu = registry.info(loop.region_id).region_cu
        assert cu.instructions > 0

    def test_unexecuted_regions_absent(self):
        src = """int g;
void never() { g = 1; }
int main() { return 0; }
"""
        module, _, _, registry = (lambda s: _run_with_cus(s))(src)
        never_region = module.region_of_function("never")
        assert never_region.region_id not in registry.by_region


class TestCUGraph:
    def test_fig_3_4_self_raw_edge(self):
        module, _, prof, registry = _run_with_cus(FIG34)
        loop = module.loops()[0]
        graph = build_cu_graph(registry, prof.store, module, loop)
        self_edges = [
            (a, b, d) for a, b, d in graph.graph.edges(data=True) if a == b
        ]
        assert len(self_edges) == 1
        assert DepType.RAW in self_edges[0][2]["types"]

    def test_table_3_1_intra_cu_war_waw_dropped(self):
        module, _, prof, registry = _run_with_cus(FIG34)
        loop = module.loops()[0]
        graph = build_cu_graph(registry, prof.store, module, loop)
        for a, b, data in graph.graph.edges(data=True):
            if a == b:
                # the self edge may only carry RAW (Table 3.1)
                assert data["types"] == {DepType.RAW}

    def test_inter_cu_edges_typed(self):
        src = """int a[50];
int b[50];
int main() {
  for (int i = 0; i < 50; i++) { a[i] = i; }
  for (int i = 0; i < 50; i++) { b[i] = a[i] * 2; }
  int s = 0;
  for (int i = 0; i < 50; i++) { s += b[i]; }
  return s;
}
"""
        module, _, prof, registry = (lambda s: _run_with_cus(s))(src)
        main_region = module.region_of_function("main")
        graph = build_cu_graph(registry, prof.store, module, main_region)
        types = set()
        for _, _, data in graph.graph.edges(data=True):
            types |= data["types"]
        assert DepType.RAW in types

    def test_sccs_and_condensation(self):
        module, _, prof, registry = _run_with_cus(FIG34)
        main_region = module.region_of_function("main")
        graph = build_cu_graph(registry, prof.store, module, main_region)
        sccs = graph.sccs()
        assert sum(len(s) for s in sccs) == len(graph.cus)
        cond = graph.condensation()
        assert cond.number_of_nodes() == len(sccs)

    def test_format_text(self):
        module, _, prof, registry = _run_with_cus(FIG34)
        loop = module.loops()[0]
        graph = build_cu_graph(registry, prof.store, module, loop)
        assert "RAW" in graph.format_text()


class TestBottomUp:
    def test_fig_3_4_iteration_single_cu(self):
        module, trace, _, _ = _run_with_cus(FIG34)
        loop = module.loops()[0]
        result = build_cus_bottom_up(module, loop, trace.iter_chunks())
        # the whole iteration merges into one CU via WAR on x
        assert result.n_cus == 1
        assert result.mean_cu_size_lines() >= 3

    def test_independent_lines_stay_separate(self):
        src = """int x;
int y;
int main() {
  for (int i = 0; i < 4; i++) {
    x = x + 1;
    y = y + 2;
  }
  return x + y;
}
"""
        module = compile_source(src)
        trace = TraceSink()
        vm = VM(module, trace)
        vm.run()
        loop = module.loops()[0]
        result = build_cus_bottom_up(module, loop, trace.iter_chunks())
        # x-chain and y-chain do not merge (no anti-dependence between them)
        assert result.n_cus == 2

    def test_finer_than_top_down(self):
        """§3.3: bottom-up granularity is at least as fine as top-down."""
        module, trace, _, registry = _run_with_cus(FIG34)
        main_region = module.region_of_function("main")
        bu = build_cus_bottom_up(module, main_region, trace.iter_chunks())
        td = registry.info(main_region.region_id)
        assert bu.n_cus >= 1
        # bottom-up analyses a single instance; its CUs never span more
        # lines than the whole region
        region_lines = main_region.end_line - main_region.start_line + 1
        assert all(len(cu.lines) <= region_lines for cu in bu.cus)
