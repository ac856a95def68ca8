"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.mir.lowering import compile_source
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.events import EventChunk, StringTable, TraceSink
from repro.runtime.interpreter import VM


def run_program(source: str, *, entry: str = "main", **vm_kwargs):
    """Compile + run uninstrumented; return (result, vm)."""
    module = compile_source(source)
    vm = VM(module, None, instrument=False, **vm_kwargs)
    return vm.run(entry), vm


def profile_program(source: str, *, entry: str = "main", shadow=None, **vm_kwargs):
    """Compile + run with serial profiling and trace recording.

    Returns (profiler, trace, vm, result, module).
    """
    module = compile_source(source)
    trace = TraceSink()
    profiler = SerialProfiler(shadow if shadow is not None else PerfectShadow())

    def tee(chunk):
        trace(chunk)
        profiler.process_chunk(chunk)

    vm = VM(module, tee, **vm_kwargs)
    result = vm.run(entry)
    return profiler, trace, vm, result, module


def make_chunk(rows) -> EventChunk:
    """Pack hand-built ``K_*`` rows; a str in the name column is interned."""
    strings = StringTable()
    packed = [
        [strings.intern(v) if isinstance(v, str) else v for v in row]
        for row in rows
    ]
    return EventChunk.from_rows(packed, strings)


@pytest.fixture
def fig27_source() -> str:
    """The Figure 2.7 loop with the paper's line structure."""
    return """int sum;
int k;
int main() {
  k = 10;
  while (k > 0) {
    sum += k * 2;
    k--;
  }
  return sum;
}
"""
