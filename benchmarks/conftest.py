"""Shared helpers for the benchmark harness.

Each bench regenerates one table/figure of the paper: it computes the
rows/series, prints them in the paper's layout (visible with ``pytest -s``),
writes them to ``benchmarks/out/``, and wraps the core computation in
pytest-benchmark (single round — the artefact is the table, the timing is a
bonus).
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.mir.lowering import compile_source
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.runtime.interpreter import VM
from repro.workloads import get_workload

OUT_DIR = pathlib.Path(__file__).parent / "out"
OUT_DIR.mkdir(exist_ok=True)

_ENGINE_CACHE: dict = {}
_DISCOVERY_CACHE: dict = {}
_NATIVE_CACHE: dict = {}


def emit(name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/out/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def engine_of(name: str, scale: int = 1) -> DiscoveryEngine:
    """A cached staged engine for a workload — benches that only need one
    phase (or a re-rank) reuse the profiled trace instead of re-running."""
    key = (name, scale)
    if key not in _ENGINE_CACHE:
        w = get_workload(name)
        _ENGINE_CACHE[key] = DiscoveryEngine(
            config=DiscoveryConfig(source=w.source(scale), name=name)
        )
    return _ENGINE_CACHE[key]


def discovery_of(name: str, scale: int = 1):
    key = (name, scale)
    if key not in _DISCOVERY_CACHE:
        _DISCOVERY_CACHE[key] = engine_of(name, scale).run()
    return _DISCOVERY_CACHE[key]


def native_time(name: str, scale: int = 1) -> tuple[float, int]:
    """(wall seconds, steps) of an uninstrumented run."""
    key = (name, scale)
    if key not in _NATIVE_CACHE:
        module = get_workload(name).compile(scale)
        vm = VM(module, None, instrument=False, quantum=16)
        t0 = time.perf_counter()
        vm.run(get_workload(name).entry)
        _NATIVE_CACHE[key] = (time.perf_counter() - t0, vm.total_steps)
    return _NATIVE_CACHE[key]


def profile_workload(name: str, scale: int = 1, *, shadow=None, sink=None,
                     quantum: int = 16):
    """Run a workload under the serial profiler; returns (profiler, wall)."""
    w = get_workload(name)
    module = w.compile(scale)
    profiler = sink if sink is not None else SerialProfiler(
        shadow if shadow is not None else PerfectShadow()
    )
    vm = VM(module, profiler, quantum=quantum)
    t0 = time.perf_counter()
    vm.run(w.entry)
    return profiler, time.perf_counter() - t0


def fmt_table(headers: list[str], rows: list[list], widths=None) -> str:
    if widths is None:
        widths = [
            max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) + 2
            if rows else len(str(headers[i])) + 2
            for i in range(len(headers))
        ]
    def fmt_row(row):
        return "".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = [fmt_row(headers), fmt_row(["-" * (w - 2) for w in widths])]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


@pytest.fixture
def one_round(benchmark):
    """Benchmark wrapper: exactly one measured round."""
    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)
    return run
