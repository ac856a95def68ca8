"""Tests for Chapter 3: computational units."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cu import (
    build_cu_graph,
    build_cus,
    build_cus_bottom_up,
    effective_global_vars,
)
from repro.cu.graph import container_cus
from repro.cu.topdown import TopDownBuilder
from repro.cu.variables import RET_VAR, read_write_sets
from repro.mir.lowering import compile_source
from repro.profiler.deps import DepType
from repro.runtime.events import (
    K_BGN,
    K_END,
    K_FENTRY,
    K_FEXIT,
    K_ITER,
    K_READ,
    K_WRITE,
    TraceSink,
)
from repro.runtime.interpreter import VM
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.workloads import REGISTRY, get_workload
from tests.conftest import make_chunk
from tests.cu_reference import ReferenceTopDownBuilder

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


# ---------------------------------------------------------------------------
# the columnar builder against the per-event reference walk
# ---------------------------------------------------------------------------

def _recorded(name: str):
    """(module, trace) of a registry workload at scale 1."""
    workload = get_workload(name)
    module = workload.compile(1)
    trace = TraceSink()
    VM(module, trace).run(workload.entry)
    return module, trace


def _built(builder, calls):
    """Feed ``calls`` (each a list of chunks) to ``builder``, one
    ``process_chunks`` per call; return the registry and line counts."""
    for chunks in calls:
        builder.process_chunks(chunks)
    return builder.build().to_dict(), builder.line_counts


def _pieces(chunks, size: int, limit: int):
    """The first ``limit`` rows of a chunk stream, re-cut into
    ``size``-row chunks."""
    out = []
    for chunk in chunks:
        for start in range(0, len(chunk), size):
            if limit <= 0:
                return out
            piece = chunk.take(slice(start, start + min(size, limit)))
            out.append(piece)
            limit -= len(piece)
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_topdown_equals_reference(name):
    module, trace = _recorded(name)
    want = _built(ReferenceTopDownBuilder(module), [trace.iter_chunks()])
    got = _built(TopDownBuilder(module), [trace.iter_chunks()])
    assert got[0] == want[0]
    # same counts, inserted in the same order
    assert list(got[1].items()) == list(want[1].items())


#: recursive, threaded and branchy traces
BATCHING = ("fib", "sort", "nqueens", "health", "kmeans-pthread",
            "md5-pthread", "splash2x-ocean", "facedetection")


@pytest.mark.parametrize("name", BATCHING)
def test_topdown_batch_boundaries_carry_no_meaning(name):
    # one process_chunks call per piece puts a batch boundary after
    # every piece; the tiny pieces cover a prefix of the trace
    module, trace = _recorded(name)
    for size, limit in ((1, 1500), (7, 7000), (61, len(trace))):
        pieces = _pieces(trace.iter_chunks(), size, limit)
        whole = _built(TopDownBuilder(module), [pieces])
        cut = _built(TopDownBuilder(module), [[p] for p in pieces])
        assert cut[0] == whole[0], (size, limit)
        assert cut[1] == whole[1], (size, limit)


class TestTopDownEpochs:
    """Hand-built traces over one loop nest (the rows name real region
    and variable ids of :data:`NEST`)."""

    NEST = """int x;
int main() {
  for (int i = 0; i < 4; i++) {
    x = x + 1;
    for (int j = 0; j < 2; j++) {
      x = x + j;
    }
  }
  return x;
}
"""

    @pytest.fixture
    def nest(self):
        module = compile_source(self.NEST)
        outer, inner = sorted(module.loops(), key=lambda r: r.start_line)
        (x,) = [v for v in effective_global_vars(module, outer)
                if module.var(v).name == "x"]
        return module, outer.region_id, inner.region_id, x

    @staticmethod
    def row(kind, tid=0, region=0, line=0, name=0, var=0):
        return [kind, region, line, name, 0, tid, 0, 0, var]

    def build(self, module, *calls):
        """Registry dict of the columnar builder, one process_chunks per
        call, checked against the reference walk."""
        chunks = [make_chunk(rows) for rows in calls]
        got = _built(TopDownBuilder(module), [[c] for c in chunks])
        want = _built(ReferenceTopDownBuilder(module), [chunks])
        assert got == want
        return {r["region_id"]: r for r in got[0]["regions"]}

    def test_write_then_read_in_next_call_violates(self, nest):
        module, outer, _, x = nest
        r = self.row
        regions = self.build(
            module,
            [r(K_FENTRY, name="main"), r(K_BGN, region=outer, line=3),
             r(K_ITER, region=outer), r(K_WRITE, line=4, var=x)],
            [r(K_READ, line=4, var=x)],
        )
        assert regions[outer]["violations"] == [[4, x]]

    def test_iter_between_write_and_read_resets(self, nest):
        module, outer, _, x = nest
        r = self.row
        regions = self.build(
            module,
            [r(K_FENTRY, name="main"), r(K_BGN, region=outer, line=3),
             r(K_WRITE, line=4, var=x)],
            [r(K_ITER, region=outer), r(K_READ, line=4, var=x)],
        )
        assert regions[outer]["violations"] == []

    def test_iter_resets_only_the_innermost_instance(self, nest):
        # a recursive call reopens the loop: the ITER belongs to the new
        # instance, and the older one still sees its own write
        module, outer, _, x = nest
        r = self.row
        regions = self.build(
            module,
            [r(K_FENTRY, name="main"), r(K_BGN, region=outer, line=3),
             r(K_WRITE, line=4, var=x), r(K_BGN, region=outer, line=3),
             r(K_ITER, region=outer), r(K_READ, line=4, var=x)],
        )
        assert regions[outer]["violations"] == [[4, x]]

    def test_end_of_outer_region_pops_inner_too(self, nest):
        module, outer, inner, x = nest
        r = self.row
        regions = self.build(
            module,
            [r(K_FENTRY, name="main"), r(K_BGN, region=outer, line=3),
             r(K_BGN, region=inner, line=5), r(K_END, region=outer),
             r(K_WRITE, line=6, var=x), r(K_READ, line=6, var=x)],
        )
        # only main was still open at the write and the read
        assert regions[outer]["violations"] == []
        assert regions[inner]["violations"] == []
        main = module.region_of_function("main").region_id
        assert regions[main]["violations"] == [[6, x]]

    def test_interleaved_threads_keep_separate_stacks(self, nest):
        module, outer, _, x = nest
        r = self.row
        opened = [r(K_FENTRY, tid=t, name="main") for t in (0, 1)] + [
            r(K_BGN, tid=t, region=outer, line=3) for t in (0, 1)
        ]
        # thread 1 never wrote x: its read sees no write of its epoch
        regions = self.build(
            module,
            opened + [r(K_WRITE, tid=0, line=4, var=x),
                      r(K_READ, tid=1, line=4, var=x)],
        )
        assert regions[outer]["violations"] == []
        regions = self.build(
            module,
            opened + [r(K_WRITE, tid=0, line=4, var=x),
                      r(K_ITER, tid=1, region=outer),
                      r(K_READ, tid=0, line=4, var=x)],
        )
        assert regions[outer]["violations"] == [[4, x]]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_rows_match_reference(self, data):
        # any row sequence, cut anywhere and fed call by call: unmatched
        # closes, ITERs of closed regions, unknown functions, three
        # threads, variables global to no region
        module = compile_source(self.NEST)
        regions = sorted(module.regions)
        variables = sorted(effective_global_vars(
            module, module.region_of_function("main")
        ))
        row = st.one_of(
            st.builds(
                self.row, st.sampled_from([K_READ, K_WRITE]),
                tid=st.integers(0, 2), line=st.integers(1, 11),
                var=st.sampled_from(variables + [-1, 99]),
            ),
            st.builds(
                self.row, st.sampled_from([K_BGN, K_END, K_ITER]),
                tid=st.integers(0, 2), region=st.sampled_from(regions),
            ),
            st.builds(
                self.row, st.sampled_from([K_FENTRY, K_FEXIT]),
                tid=st.integers(0, 2), name=st.sampled_from(["main", "rand"]),
            ),
        )
        rows = data.draw(st.lists(row, min_size=1, max_size=120))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(rows)))))
        calls = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
        self.build(module, *[c for c in calls if c])

    def test_call_of_a_function_without_region_is_ignored(self, nest):
        module, outer, _, x = nest
        r = self.row
        regions = self.build(
            module,
            [r(K_FENTRY, name="main"), r(K_BGN, region=outer, line=3),
             r(K_FENTRY, name="rand"), r(K_WRITE, line=4, var=x),
             r(K_FEXIT, name="rand"), r(K_READ, line=4, var=x)],
        )
        assert regions[outer]["violations"] == [[4, x]]
