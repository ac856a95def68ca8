"""Chapter 2 performance benches: Figures 2.9–2.13, Table 2.7.

Slowdowns are measured against the uninstrumented VM run (the substrate's
"native" execution).  For the parallel profiler the slowdowns are modeled
by the calibrated pipeline cost model (docs/DETECT.md, "The §2.3.3
parallel profiler": the GIL serialises the worker threads, so the scaling
*shape* is carried by the measured per-worker work distribution and
calibrated per-event costs).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (
    emit,
    fmt_table,
    native_time,
    one_round,
    profile_workload,
)
from repro.profiler.parallel import (
    ParallelProfiler,
    calibrate_costs,
    modeled_times,
)
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.skipping import SkippingProfiler
from repro.runtime.interpreter import VM
from repro.workloads import get_workload
from repro.workloads.nas import NAS_NAMES
from repro.workloads.starbench import STARBENCH_NAMES
from repro.workloads.threaded import PTHREAD_NAMES

PERF_SEQ = NAS_NAMES + STARBENCH_NAMES
SIG_SLOTS = 1 << 14


def _parallel_run(name, n_workers, queue_kind):
    w = get_workload(name)
    module = w.compile(1)
    par = ParallelProfiler(
        n_workers,
        mode="simulated",
        queue_kind=queue_kind,
        signature_slots=SIG_SLOTS // n_workers,
    )
    vm = VM(module, par, quantum=16)
    t0 = time.perf_counter()
    vm.run(w.entry)
    par.finish()
    wall = time.perf_counter() - t0
    return par, wall


def test_fig_2_9_profiler_performance(one_round):
    """Fig. 2.9(a): slowdown serial vs 8T lock-based vs 8T/16T lock-free.
    Fig. 2.9(b): memory consumption."""
    costs = calibrate_costs(50_000)
    rows = []
    sums = {"serial": [], "8T_lock": [], "8T_free": [], "16T_free": [],
            "memMB": []}
    for name in PERF_SEQ:
        native, _steps = native_time(name)
        serial_prof, serial_wall = profile_workload(
            name, shadow=SignatureShadow(SIG_SLOTS)
        )
        serial_slow = serial_wall / native
        par8, _ = _parallel_run(name, 8, "spsc")
        t8_free = modeled_times(par8.report, costs, native)
        t8_lock = modeled_times(par8.report, costs, native, lock_based=True)
        par16, _ = _parallel_run(name, 16, "spsc")
        t16_free = modeled_times(par16.report, costs, native)
        mem_mb = par16.memory_bytes() / 1e6
        row = [
            name,
            f"{serial_slow:.0f}x",
            f"{t8_lock['slowdown']:.0f}x",
            f"{t8_free['slowdown']:.0f}x",
            f"{t16_free['slowdown']:.0f}x",
            f"{mem_mb:.1f}",
        ]
        rows.append(row)
        sums["serial"].append(serial_slow)
        sums["8T_lock"].append(t8_lock["slowdown"])
        sums["8T_free"].append(t8_free["slowdown"])
        sums["16T_free"].append(t16_free["slowdown"])
        sums["memMB"].append(mem_mb)
    avg = ["average"] + [
        f"{sum(sums[k]) / len(sums[k]):.0f}x"
        for k in ("serial", "8T_lock", "8T_free", "16T_free")
    ] + [f"{sum(sums['memMB']) / len(sums['memMB']):.1f}"]
    emit(
        "fig_2_9",
        fmt_table(
            ["program", "serial", "8T lock-based model",
             "8T lock-free model", "16T lock-free model", "mem16T MB"],
            rows + [avg],
        ),
    )
    one_round(lambda: profile_workload("CG",
                                       shadow=SignatureShadow(SIG_SLOTS)))
    # paper shape: parallel < serial; 16T <= 8T; lock-free <= lock-based
    mean = lambda k: sum(sums[k]) / len(sums[k])
    assert mean("8T_free") < mean("serial")
    assert mean("16T_free") <= mean("8T_free") * 1.05
    assert mean("8T_free") <= mean("8T_lock")


def test_fig_2_10_2_11_parallel_targets(one_round):
    """Profiling multi-threaded (pthread-style) Starbench programs."""
    costs = calibrate_costs(50_000)
    rows = []
    for name in PTHREAD_NAMES:
        native, _ = native_time(name)
        prof, wall = profile_workload(name, quantum=16)
        par8, _ = _parallel_run(name, 8, "mpsc")
        t8 = modeled_times(par8.report, costs, native)
        par16, _ = _parallel_run(name, 16, "mpsc")
        t16 = modeled_times(par16.report, costs, native)
        rows.append([
            name,
            f"{wall / native:.0f}x",
            f"{t8['slowdown']:.0f}x",
            f"{t16['slowdown']:.0f}x",
            f"{par16.memory_bytes() / 1e6:.1f}",
        ])
    emit(
        "fig_2_10_2_11",
        fmt_table(
            ["program(4 target threads)", "serial", "8T model",
             "16T model", "mem MB"],
            rows,
        ),
    )
    one_round(lambda: profile_workload("md5-pthread", quantum=16))
    assert rows  # all threaded targets profiled


def test_fig_2_12_skipping_slowdown(one_round):
    """Slowdown with (DiscoPoP+opt) and without (DiscoPoP) skipping.

    Substrate note (ROADMAP.md item 9 has the measurements; docs/DETECT.md
    says why the skipping filter runs the per-event loop core beneath
    it): the paper's 41.3 % wall-clock saving comes from avoided
    dependence-*storage* operations, which dominate its C++ profiler.  In
    pure Python the storage (dict) cost is comparable to the skip-check
    itself, so wall-clock reduction only materialises at very high skip
    rates; the *mechanism* — storage operations avoided per skipped
    instruction — reproduces directly and is reported alongside.
    """
    rows = []
    reductions = []
    storage_saved = []
    for name in PERF_SEQ:
        native, _ = native_time(name)
        base_prof, base_wall = profile_workload(name)
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        _, opt_wall = profile_workload(name, sink=skipper)
        reduction = 100.0 * (1 - opt_wall / base_wall)
        reductions.append(reduction)
        saved = 100.0 * (
            1 - skipper.inner.stats.deps_built
            / max(1, base_prof.stats.deps_built)
        )
        storage_saved.append(saved)
        rows.append([
            name,
            f"{base_wall / native:.0f}x",
            f"{opt_wall / native:.0f}x",
            f"{reduction:.1f}%",
            f"{saved:.1f}%",
            f"{skipper.stats.total_skip_percent:.1f}%",
        ])
    avg = ["average", "", "",
           f"{sum(reductions) / len(reductions):.1f}%",
           f"{sum(storage_saved) / len(storage_saved):.1f}%", ""]
    emit(
        "fig_2_12",
        fmt_table(
            ["program", "DiscoPoP", "DiscoPoP+opt", "time reduction",
             "storage ops avoided", "instr skipped"],
            rows + [avg],
        ),
    )
    one_round(lambda: profile_workload(
        "CG", sink=SkippingProfiler(SerialProfiler(PerfectShadow()))
    ))
    # the mechanism: most dependence-storage operations avoided
    assert sum(storage_saved) / len(storage_saved) > 40.0
    # and the saving does materialise where skip rates are extreme
    assert max(reductions) > 20.0


def test_table_2_7_fig_2_13_skip_statistics(one_round):
    """Skipped-instruction statistics and their dep-type distribution."""
    rows = []
    dists = []
    for name in PERF_SEQ:
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        profile_workload(name, sink=skipper)
        s = skipper.stats
        dist = s.skip_distribution()
        dists.append(dist)
        rows.append([
            name,
            s.reads_leading_to_dep, s.reads_skipped,
            f"{s.read_skip_percent:.2f}",
            s.writes_leading_to_dep, s.writes_skipped,
            f"{s.write_skip_percent:.2f}",
            f"{s.total_skip_percent:.2f}",
            f"{dist['RAW']:.1f}/{dist['WAR']:.1f}/{dist['WAW']:.1f}",
        ])
    read_avg = sum(float(r[3]) for r in rows) / len(rows)
    write_avg = sum(float(r[6]) for r in rows) / len(rows)
    total_avg = sum(float(r[7]) for r in rows) / len(rows)
    rows.append(["average", "", "", f"{read_avg:.2f}", "", "",
                 f"{write_avg:.2f}", f"{total_avg:.2f}", ""])
    emit(
        "table_2_7_fig_2_13",
        fmt_table(
            ["program", "reads", "r-skip", "r%", "writes", "w-skip", "w%",
             "total%", "RAW/WAR/WAW skip dist"],
            rows,
        ),
    )
    one_round(lambda: profile_workload(
        "MG", sink=SkippingProfiler(SerialProfiler(PerfectShadow()))
    ))
    # paper shape: most dep-leading instructions skipped; reads more than
    # writes (82.08 % vs 66.56 % in Table 2.7)
    assert total_avg > 50.0
    assert read_avg >= write_avg - 5.0
