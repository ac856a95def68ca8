"""Tests for the profiler: shadows, dependence store, serial algorithm,
report format, PET."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiler.deps import DependenceStore, DepType, compare_dependences
from repro.profiler.pet import PETBuilder
from repro.profiler.reportfmt import format_report, parse_report
from repro.profiler.serial import SerialProfiler, classify_carrier
from repro.profiler.shadow import (
    MAX_READS_PER_SLOT,
    PerfectShadow,
    SignatureShadow,
)
from repro.runtime.interpreter import run_source
from tests.conftest import profile_program


class TestShadows:
    @pytest.mark.parametrize("make", [PerfectShadow, lambda: SignatureShadow(1024)])
    def test_write_then_read(self, make):
        shadow = make()
        shadow.record_write(100, 5, 0, 0, 1)
        assert shadow.last_write(100) == (5, 0, 0, 1)
        shadow.record_read(100, 6, 0, 0, 2)
        reads = shadow.reads_since_write(100)
        assert (6, 0, 0, 2) in reads

    @pytest.mark.parametrize("make", [PerfectShadow, lambda: SignatureShadow(1024)])
    def test_write_clears_read_set(self, make):
        shadow = make()
        shadow.record_read(7, 1, 0, 0, 1)
        shadow.record_write(7, 2, 0, 0, 2)
        assert shadow.reads_since_write(7) == []

    @pytest.mark.parametrize("make", [PerfectShadow, lambda: SignatureShadow(1024)])
    def test_eviction(self, make):
        shadow = make()
        for addr in range(10, 20):
            shadow.record_write(addr, 3, 0, 0, addr)
        shadow.evict(10, 10)
        for addr in range(10, 20):
            assert shadow.last_write(addr) is None

    def test_signature_collision_aliases(self):
        shadow = SignatureShadow(8)
        shadow.record_write(1, 11, 0, 0, 1)
        # address 9 collides with 1 (mod 8)
        assert shadow.last_write(9) == (11, 0, 0, 1)

    def test_perfect_no_collision(self):
        shadow = PerfectShadow()
        shadow.record_write(1, 11, 0, 0, 1)
        assert shadow.last_write(9) is None

    def test_read_set_bounded(self):
        shadow = PerfectShadow()
        for line in range(1, MAX_READS_PER_SLOT + 10):
            shadow.record_read(5, line, 0, 0, line)
        assert len(shadow.reads_since_write(5)) <= MAX_READS_PER_SLOT

    def test_signature_memory_constant(self):
        small = SignatureShadow(1000)
        big = SignatureShadow(1000)
        for addr in range(5000):
            big.record_write(addr, 1, 0, 0, addr)
        # numpy arrays dominate; write-state memory does not grow with
        # addresses
        assert big.memory_bytes() <= small.memory_bytes() + 200_000

    def test_expected_fpr_formula(self):
        # Formula 2.2 sanity: more slots -> lower collision probability
        p1 = SignatureShadow.expected_false_positive_rate(10**4, 1000)
        p2 = SignatureShadow.expected_false_positive_rate(10**6, 1000)
        assert p2 < p1 < 1.0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 200),  # addr
                st.booleans(),  # write?
                st.integers(1, 50),  # line
            ),
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_signature_equals_perfect_without_collisions(self, ops):
        """With more slots than addresses and no eviction, the signature
        shadow must behave identically to the perfect shadow."""
        perfect = PerfectShadow()
        sig = SignatureShadow(1009)  # prime > address range
        for ts, (addr, is_write, line) in enumerate(ops):
            if is_write:
                perfect.record_write(addr, line, 0, 0, ts)
                sig.record_write(addr, line, 0, 0, ts)
            else:
                perfect.record_read(addr, line, 0, 0, ts)
                sig.record_read(addr, line, 0, 0, ts)
            assert sig.last_write(addr) == perfect.last_write(addr)
            assert sorted(sig.reads_since_write(addr)) == sorted(
                perfect.reads_since_write(addr)
            )


class TestDependenceStore:
    def test_merging_counts(self):
        store = DependenceStore()
        for _ in range(5):
            store.add(10, DepType.RAW, 9, "x")
        assert len(store) == 1
        assert store.all()[0].count == 5
        assert store.raw_occurrences == 5

    def test_identity_includes_attributes(self):
        store = DependenceStore()
        store.add(10, DepType.RAW, 9, "x")
        store.add(10, DepType.RAW, 9, "y")
        store.add(10, DepType.WAR, 9, "x")
        store.add(10, DepType.RAW, 9, "x", loop_carried=True)
        store.add(10, DepType.RAW, 9, "x", sink_tid=1)
        assert len(store) == 5

    def test_merge_from(self):
        a = DependenceStore()
        b = DependenceStore()
        a.add(1, DepType.RAW, 2, "x")
        b.add(1, DepType.RAW, 2, "x")
        b.add(3, DepType.WAW, 2, "y", carrier=7)
        a.merge_from(b)
        assert len(a) == 2
        assert a.all()[0].count == 2
        assert 7 in [d for d in a if d.type == DepType.WAW][0].carriers

    def test_compare_dependences(self):
        base = DependenceStore()
        meas = DependenceStore()
        base.add(1, DepType.RAW, 2, "x")
        base.add(3, DepType.RAW, 4, "y")
        meas.add(1, DepType.RAW, 2, "x")
        meas.add(5, DepType.RAW, 6, "z")  # false positive
        fpr, fnr, nm, nb = compare_dependences(meas, base)
        assert nm == 2 and nb == 2
        assert fpr == 50.0 and fnr == 50.0

    def test_by_sink_and_queries(self):
        store = DependenceStore()
        store.add(10, DepType.RAW, 9, "x", carrier=3)
        store.add(10, DepType.WAR, 8, "x")
        store.add(12, DepType.RAW, 9, "y", carrier=3)
        assert set(store.by_sink().keys()) == {10, 12}
        assert len(store.raw_for_loop(3)) == 2
        assert len(store.involving_var("x")) == 2


class TestSerialProfiler:
    def test_table_2_2_dependences(self, fig27_source):
        """The Figure 2.7 loop must produce exactly Table 2.2's deps."""
        prof, _, _, result, _ = profile_program(fig27_source)
        assert result == 110
        # loop body lines: 5 (while), 6 (sum += k*2), 7 (k--)
        got = {
            (d.sink_line, d.type, d.source_line, d.var, d.loop_carried)
            for d in prof.store
            if 5 <= d.sink_line <= 7 and 5 <= d.source_line <= 7
        }
        expected = {
            (6, "WAR", 6, "sum", False),
            (7, "WAR", 5, "k", False),
            (7, "WAR", 6, "k", False),
            (7, "WAR", 7, "k", False),
            (5, "RAW", 7, "k", True),
            (6, "RAW", 6, "sum", True),
            (6, "RAW", 7, "k", True),
            (7, "RAW", 7, "k", True),
        }
        assert got == expected

    def test_waw_only_consecutive_writes(self):
        src = """int x;
int main() {
  x = 1;
  x = 2;
  int y = x;
  x = 3;
  return y;
}
"""
        prof, _, _, _, _ = profile_program(src)
        waws = prof.store.of_type(DepType.WAW)
        # x=2 after x=1: consecutive -> WAW; x=3 after read -> WAR not WAW
        assert {(d.sink_line, d.source_line) for d in waws} == {(4, 3)}
        wars = prof.store.of_type(DepType.WAR)
        assert (6, 5) in {(d.sink_line, d.source_line) for d in wars}

    def test_init_lines(self, fig27_source):
        prof, _, _, _, _ = profile_program(fig27_source)
        assert 4 in prof.store.init_lines  # k = 10
        assert 6 in prof.store.init_lines  # first write of sum

    def test_lifetime_analysis_blocks_false_deps(self):
        """Two calls reuse the same stack slot; without eviction the second
        call's read would see the first call's write (false RAW)."""
        src = """int out;
int work(int x) {
  int local = x * 2;
  return local;
}
int main() {
  out = work(1);
  out += work(2);
  return out;
}
"""
        def cross_call_deps(prof):
            # any WAR/WAW on `local` between the two calls is false: the
            # variable dies between them
            return [
                d for d in prof.store
                if d.var == "local" and d.type in (DepType.WAR, DepType.WAW)
            ]

        prof_on, _, _, _, _ = profile_program(src)
        assert cross_call_deps(prof_on) == []

        # with lifetime analysis off the false dependence appears
        from repro.mir.lowering import compile_source
        from repro.runtime.interpreter import VM

        module = compile_source(src)
        prof_off = SerialProfiler(PerfectShadow(), lifetime_analysis=False)
        vm = VM(module, prof_off)
        vm.run()
        assert cross_call_deps(prof_off)

    def test_loop_carried_vs_intra(self):
        src = """int a[10];
int b[10];
int main() {
  for (int i = 0; i < 10; i++) {
    a[i] = i;
    b[i] = a[i] * 2;
  }
  return b[9];
}
"""
        prof, _, _, _, module = profile_program(src)
        raw_ab = [
            d for d in prof.store
            if d.type == DepType.RAW and d.var == "a" and d.sink_line == 6
        ]
        assert raw_ab and all(not d.loop_carried for d in raw_ab)

    def test_carrier_is_outermost_differing_loop(self):
        src = """int acc;
int main() {
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 3; j++) {
      acc += 1;
    }
  }
  return acc;
}
"""
        prof, _, _, _, module = profile_program(src)
        carried = [
            d for d in prof.store
            if d.var == "acc" and d.type == DepType.RAW and d.loop_carried
        ]
        assert carried
        carriers = set().union(*(d.carriers for d in carried))
        loops = {r.region_id: r for r in module.loops()}
        # both the inner loop (j-to-j) and outer loop (last j of i to first
        # j of i+1) carry acc increments
        assert carriers.issubset(set(loops))
        assert len(carriers) == 2

    def test_classify_carrier_function(self):
        assert classify_carrier(((1, 0),), ((1, 1),)) == 1
        assert classify_carrier(((1, 2), (2, 0)), ((1, 2), (2, 5))) == 2
        assert classify_carrier(((1, 2), (2, 0)), ((1, 3), (2, 0))) == 1
        assert classify_carrier(((1, 2),), ((1, 2),)) is None
        assert classify_carrier(((1, 0),), ((9, 1),)) is None
        assert classify_carrier((), ()) is None

    def test_control_records(self, fig27_source):
        prof, _, _, _, _ = profile_program(fig27_source)
        loops = [c for c in prof.control.values() if c.kind == "loop"]
        assert len(loops) == 1
        assert loops[0].total_iterations == 10
        assert loops[0].executions == 1


class TestReportFormat:
    def test_format_matches_fig_2_1_shape(self, fig27_source):
        prof, _, _, _, _ = profile_program(fig27_source)
        text = format_report(prof.store, prof.control)
        assert "BGN loop" in text
        assert "END loop 10" in text
        assert "{INIT *}" in text
        assert "NOM" in text
        assert "{RAW 1:7|k}" in text

    def test_roundtrip(self, fig27_source):
        prof, _, _, _, _ = profile_program(fig27_source)
        text = format_report(prof.store, prof.control)
        store, control = parse_report(text)
        original = {
            (d.sink_line, d.type, d.source_line, d.var) for d in prof.store
        }
        parsed = {
            (d.sink_line, d.type, d.source_line, d.var) for d in store
        }
        assert parsed == original
        assert store.init_lines == prof.store.init_lines
        loops = [c for c in control.values() if c.kind == "loop"]
        assert loops and loops[0].total_iterations == 10

    def test_thread_ids_formatted(self):
        store = DependenceStore()
        store.add(58, DepType.WAR, 77, "iter", sink_tid=2, source_tid=2)
        text = format_report(store, with_tid=True)
        assert "{WAR 1:77|2|iter}" in text


class TestPET:
    SRC = """
    int data[16];
    void fill(int n) {
      for (int i = 0; i < n; i++) { data[i] = i; }
    }
    int main() {
      fill(16);
      fill(16);
      int s = 0;
      for (int i = 0; i < 16; i++) { s += data[i]; }
      return s;
    }
    """

    def test_tree_structure(self):
        _, trace, _ = run_source(self.SRC)
        pet = PETBuilder()
        for chunk in trace.iter_chunks():
            pet.process_chunk(chunk)
        functions = pet.functions()
        names = {f.name for f in functions}
        assert "main" in names and "fill" in names
        fill = [f for f in functions if f.name == "fill"][0]
        assert fill.executions == 2

    def test_loop_metrics(self):
        _, trace, _ = run_source(self.SRC)
        pet = PETBuilder()
        for chunk in trace.iter_chunks():
            pet.process_chunk(chunk)
        loops = pet.loops()
        assert loops
        fill_loop = max(loops, key=lambda l: l.iterations)
        assert fill_loop.iterations == 32  # two executions x 16

    def test_memory_attribution(self):
        _, trace, _ = run_source(self.SRC)
        pet = PETBuilder()
        for chunk in trace.iter_chunks():
            pet.process_chunk(chunk)
        main = [f for f in pet.functions() if f.name == "main"][0]
        assert main.memory_instructions > 0
        assert pet.format_tree()
