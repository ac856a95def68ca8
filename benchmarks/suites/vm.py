"""VM dispatch suite: the compiled core against the switch reference.

Per workload, three legs time both dispatch cores: instrumented
recording (the traces must be bit-identical), untraced execution (the
validate and scheduler path) and the engine's ``profile()`` phase end
to end (the dependence stores must be identical).
"""

from __future__ import annotations

import numpy as np

from repro.engine.config import DiscoveryConfig
from repro.engine.core import DiscoveryEngine
from repro.runtime.events import TraceSink
from repro.runtime.interpreter import VM
from repro.workloads import get_workload

from benchmarks.suites.method import (
    fmt_ratio, geomean, measure, ratio, rounds_for, summary,
)

#: three loop nests whose hot path is dispatch bound (one textbook, one
#: NAS, one apps-chapter program) plus the call/ret-heavy fft recursion;
#: all four are gated
WORKLOADS = ("pi", "EP", "mandelbrot", "fft")
CHUNK_SIZE = 4096
CORES = ("switch", "compiled")


def _traced(workload, module, dispatch):
    def setup():
        trace = TraceSink()
        vm = VM(module, trace, dispatch=dispatch, chunk_size=CHUNK_SIZE)

        def run():
            vm.run(workload.entry)
            return trace, vm
        return run
    return setup


def _untraced(workload, module, dispatch):
    def setup():
        vm = VM(module, None, dispatch=dispatch, instrument=False)
        return lambda: vm.run(workload.entry)
    return setup


def _profile(workload, module, dispatch):
    def setup():
        engine = DiscoveryEngine(config=DiscoveryConfig(
            source=workload.source(1), name=workload.name,
            entry=workload.entry, dispatch=dispatch,
        ))
        return engine.profile
    return setup


#: one interleaved measurement per leg, so the samples a ratio compares
#: follow runs of the same size
LEGS = {"traced": _traced, "untraced": _untraced, "profile": _profile}


def _same_trace(a, b) -> bool:
    (trace_a, vm_a), (trace_b, vm_b) = a, b
    rows_a = [c.rows for c in trace_a.iter_chunks()]
    rows_b = [c.rows for c in trace_b.iter_chunks()]
    return (
        [len(r) for r in rows_a] == [len(r) for r in rows_b]
        and np.array_equal(np.concatenate(rows_a), np.concatenate(rows_b))
        and vm_a.strings.values == vm_b.strings.values
        and vm_a.sigs.values == vm_b.sigs.values
    )


def _state(vm) -> tuple:
    return vm.memory, vm.output, vm.total_steps


def bench_workload(name: str, rounds: int) -> dict:
    workload = get_workload(name)
    module = workload.compile(1)
    row: dict = {"workload": name}
    results = {}
    for leg, make in LEGS.items():
        samples, results[leg] = measure(
            {core: make(workload, module, core) for core in CORES}, rounds
        )
        row[leg] = {core: summary(samples[core]) for core in CORES}
        row[leg]["speedup"] = ratio(samples, "switch", "compiled")
    switch, compiled = results["traced"]["switch"], results["traced"]["compiled"]
    row["events"] = len(switch[0])
    row["steps"] = compiled[1].total_steps
    row["trace_identical"] = _same_trace(switch, compiled)
    row["state_identical"] = _state(switch[1]) == _state(compiled[1])
    row["profile"]["stores_identical"] = (
        results["profile"]["switch"].store.to_dict()
        == results["profile"]["compiled"].store.to_dict()
    )
    return row


def run(quick: bool) -> dict:
    rounds = rounds_for(quick)
    rows = [bench_workload(name, rounds) for name in WORKLOADS]
    traced = [r["traced"]["speedup"]["median"] for r in rows]
    return {
        "workloads": rows,
        "gated": list(WORKLOADS),
        "traced_speedup_geomean": geomean(traced),
        "traced_speedup_min": min(traced),
        "untraced_speedup_geomean": geomean(
            [r["untraced"]["speedup"]["median"] for r in rows]
        ),
        "profile_speedup_geomean": geomean(
            [r["profile"]["speedup"]["median"] for r in rows]
        ),
        "all_traces_identical": all(
            r["trace_identical"] and r["state_identical"] for r in rows
        ),
        "all_stores_identical": all(
            r["profile"]["stores_identical"] for r in rows
        ),
    }


def rows(result: dict) -> list:
    return result["workloads"]


COLUMNS = (
    ("workload", lambda r: r["workload"]),
    ("events", lambda r: r["events"]),
    ("switch ms", lambda r: f"{r['traced']['switch']['median'] * 1e3:.1f}"),
    ("compiled ms",
     lambda r: f"{r['traced']['compiled']['median'] * 1e3:.1f}"),
    ("traced", lambda r: fmt_ratio(r["traced"]["speedup"])),
    ("untraced", lambda r: fmt_ratio(r["untraced"]["speedup"])),
    ("profile", lambda r: fmt_ratio(r["profile"]["speedup"])),
    ("identical", lambda r: r["trace_identical"] and r["state_identical"]),
)

GATES = (
    ("all_traces_identical", lambda r: r["all_traces_identical"]),
    ("all_stores_identical", lambda r: r["all_stores_identical"]),
    ("traced_speedup_geomean", lambda r: r["traced_speedup_geomean"] >= 2.0),
    # profile() also runs the dispatch-independent dependence profiler,
    # so its floor is lower
    ("profile_speedup_geomean",
     lambda r: r["profile_speedup_geomean"] >= 1.25),
)
