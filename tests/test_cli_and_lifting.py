"""Tests for the CLI entry points and call-site anchoring (lifting)."""

import json

import pytest

from repro.cli import main
from repro.discovery.lifting import anchor_events
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.mir.lowering import compile_source
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.profiler.vectorized import VectorizedProfiler
from repro.runtime.events import COL_KIND, COL_LINE, K_WRITE, TraceSink
from repro.runtime.interpreter import VM
from repro.workloads import REGISTRY, get_workload

PROGRAM = """int a[64];
int total;
int main() {
  for (int i = 0; i < 64; i++) {
    a[i] = i * 2;
  }
  for (int i = 0; i < 64; i++) {
    total += a[i];
  }
  return total;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


class TestCLI:
    def test_profile_prints_report(self, source_file, capsys):
        assert main(["profile", source_file]) == 0
        out = capsys.readouterr().out
        assert "BGN loop" in out
        assert "{INIT *}" in out

    def test_profile_with_signature_and_skipping(self, source_file, capsys):
        assert main(
            ["profile", source_file, "--signature-slots", "4096",
             "--skip-loops", "--format", "json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["detect"] == "loop"  # skipping runs the loop core
        assert stats["skipped"] > 0

    def test_discover_prints_suggestions(self, source_file, capsys):
        assert main(["discover", source_file]) == 0
        out = capsys.readouterr().out
        assert "DOALL" in out
        assert "#pragma omp parallel for" in out

    def test_report_prints_pet(self, source_file, capsys):
        assert main(["report", source_file]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "loop @" in out


def _record(src: str):
    module = compile_source(src)
    trace = TraceSink()
    vm = VM(module, trace)
    vm.run()
    return module, trace, vm


def _memory_lines(chunks) -> set:
    lines = set()
    for chunk in chunks:
        rows = chunk.rows
        lines.update(rows[rows[:, COL_KIND] <= K_WRITE, COL_LINE].tolist())
    return lines


class TestLifting:
    SRC = """int shared;
int box[4];
int produce(int x) {
  shared = x * 2;
  return shared + 1;
}
int consume() {
  return shared * 3;
}
int main() {
  int p = produce(5);
  int c = consume();
  box[0] = p + c;
  return box[0];
}
"""

    def _anchored(self):
        module, trace, vm = _record(self.SRC)
        region = module.region_of_function("main")
        return module, list(
            anchor_events(trace.iter_chunks(), module, region)
        ), vm

    def test_callee_accesses_anchor_to_call_sites(self):
        module, chunks, _ = self._anchored()
        produce_line = 11  # int p = produce(5);
        consume_line = 12
        mem_lines = _memory_lines(chunks)
        # no callee-internal lines survive; everything maps into main
        main_region = module.region_of_function("main")
        assert all(
            main_region.contains_line(l) for l in mem_lines
        )
        assert produce_line in mem_lines
        assert consume_line in mem_lines

    def test_anchored_dependence_between_calls(self):
        module, chunks, vm = self._anchored()
        prof = SerialProfiler(PerfectShadow())
        for chunk in chunks:
            prof.process_chunk(chunk)
        # consume() reads what produce() wrote: RAW 12 <- 11 on `shared`
        raws = {
            (d.sink_line, d.source_line)
            for d in prof.store
            if d.type == "RAW" and d.var == "shared"
        }
        assert (12, 11) in raws

    def test_events_outside_container_dropped(self):
        module, trace, _ = _record(self.SRC)
        region = module.region_of_function("produce")
        mem_lines = _memory_lines(
            anchor_events(trace.iter_chunks(), module, region)
        )
        # only produce's own accesses remain
        assert mem_lines
        assert all(region.contains_line(line) for line in mem_lines)

    def test_recursive_container_collapses_to_top_instance(self):
        src = """int counter;
int down(int n) {
  counter += 1;
  if (n <= 0) { return 0; }
  int a = down(n - 1);
  return a + 1;
}
int main() { return down(5); }
"""
        module, trace, _ = _record(src)
        region = module.region_of_function("down")
        mem_lines = _memory_lines(
            anchor_events(trace.iter_chunks(), module, region)
        )
        # all recursive activity anchors within down's body lines
        assert mem_lines
        assert all(region.contains_line(l) for l in mem_lines)
        # the recursive subtree collapses onto the call line (5)
        assert 5 in mem_lines

    def test_one_callee_op_anchors_to_each_call_site(self):
        """A callee's read, reached from two call lines, is two RAWs.

        The same static read (same op id) anchors to line 5 and to line
        6; a port that let the op id stand for the sink line would fold
        the second occurrence into the first RAW (one RAW, count 2).
        """
        src = """int g;
int f() { return g * 2; }
int main() {
  g = 7;
  int a = f();
  int b = f();
  return a + b;
}
"""
        module, trace, vm = _record(src)
        region = module.region_of_function("main")
        prof = SerialProfiler(PerfectShadow())
        for chunk in anchor_events(trace.iter_chunks(), module, region):
            prof.process_chunk(chunk)
        raws = {
            (d.sink_line, d.source_line): d.count
            for d in prof.store
            if d.type == "RAW" and d.var == "g"
        }
        assert raws == {(5, 4): 1, (6, 4): 1}


def _anchored_store_vectorized(engine, region):
    profile = engine.profile()
    prof = VectorizedProfiler()
    for chunk in anchor_events(
        profile.trace.iter_chunks(), engine.module, region
    ):
        prof.process_chunk(chunk)
    prof.flush()
    return prof.store


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_anchored_stores_serial_equal_vectorized(name):
    """Every task container of every registry workload: the anchored
    chunks build the same store in the loop and the vectorized core."""
    workload = get_workload(name)
    engine = DiscoveryEngine(config=DiscoveryConfig(
        source=workload.source(1), name=name, entry=workload.entry,
        frontend=workload.frontend,
    ))
    detect = engine.detect()
    containers = list(detect.functions.values()) + list(
        detect.loop_tasks.values()
    )
    assert containers
    for analysis in containers:
        region = engine.module.regions[analysis.region_id]
        vectorized = _anchored_store_vectorized(engine, region)
        assert vectorized.to_dict() == analysis.anchored_store.to_dict(), (
            name, analysis.func, analysis.region_id,
        )
