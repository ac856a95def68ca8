"""Performance benchmarks: VM dispatch, detection, obs, faults, store.

Five suites live here:

* **vm** (:func:`run_vm_bench`) — switch vs. compiled dispatch
  (:mod:`repro.runtime.compile`): instrumented recording throughput with
  bit-identical traces, untraced execution (the validate/scheduler
  path), and end-to-end engine ``profile()`` wall time
  (``BENCH_vm.json``).
* **detect** (:func:`run_detect_bench`) — loop vs. vectorized vs.
  multi-process sharded detection cores (:mod:`repro.profiler.sharded`):
  detection throughput over a recorded trace with per-run peak memory
  (tracemalloc + detector accounting), a bit-identical-store
  equivalence sweep across the whole workload registry (threaded
  included), sampling-mode precision/recall, and end-to-end engine
  ``profile()`` wall time per core (``BENCH_detect.json``).  The
  large-scale leg (:func:`run_detect_scale_bench`) drives the cores
  with a generated 10⁸-event synthetic stream and gates the out-of-core
  claim on recorded RSS, with the sharded speedup gate conditional on
  available CPUs.
* **obs** (:func:`run_obs_bench`) — the observability layer
  (:mod:`repro.obs`): engine ``profile()`` wall time with obs off /
  metrics-only / full tracing, bit-identical dependence stores across
  all three modes, and the CI-gated *disabled* overhead bound —
  calibrated per-site guard cost times observed site activations, held
  under 2 % of the obs-off wall time (``BENCH_obs.json``).
* **faults** (:func:`run_faults_bench`) — the resilience layer
  (:mod:`repro.resilience`, docs/RESILIENCE.md): deterministic fault
  matrix (kill / hang / drop-ack / corrupt-payload at first, middle and
  last batches, plus seeded scattered mixes) against the supervised
  sharded detection core, gating that every eventually-successful
  schedule recovers without raising and merges a store bit-identical to
  the serial vectorized reference, and that an unrecoverable schedule
  degrades to in-process detection — still bit-identical — instead of
  failing (``BENCH_faults.json``).
* **store** (:func:`run_store_bench`) — the crash-safe artifact store
  (:mod:`repro.store`): concurrent batch runners on one shared resume
  dir under kill-mid-write, torn-write, stale-lease and checksum-flip
  schedules, gating that every schedule converges to a store
  bit-identical to a clean single-writer reference, that corrupt
  entries are healed (quarantined + recomputed, never served), that no
  torn read or leftover tmp survives, and that concurrent writers
  dedupe instead of double-computing (``BENCH_store.json``).
"""

from __future__ import annotations

import resource
import time
import tracemalloc
import warnings
from typing import Optional

from repro.profiler.serial import SerialProfiler
from repro.resilience.faults import KILL_EXIT_CODE
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.runtime.events import TraceSink
from repro.runtime.interpreter import VM


def _geomean(values: list[float]) -> float:
    import math

    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# the VM dispatch suite
# ---------------------------------------------------------------------------

#: the VM bench set: three loop-nest workloads whose hot path is
#: dispatch bound — one textbook, one NAS, one apps-chapter program —
#: plus the call/ret-heavy fft recursion, gated since the untraced
#: variant went lazy (closures build on first execution, so short
#: recursive runs no longer pay for the whole instruction space).  The
#: gated trajectory number is their geomean.
VM_BENCH_WORKLOADS = ("pi", "EP", "mandelbrot", "fft")

#: extra rows reported alongside but not gated
VM_BENCH_EXTRA = ()


def _trace_rows(trace):
    import numpy as np

    return np.concatenate([chunk.rows for chunk in trace.chunks])


def bench_vm_workload(
    name: str,
    *,
    scale: int = 1,
    reps: int = 3,
    chunk_size: int = 4096,
    gated: bool = True,
) -> dict:
    """Measure one workload under both dispatch cores."""
    import numpy as np

    from repro.workloads import get_workload

    workload = get_workload(name)
    module = workload.compile(scale)
    row: dict = {"workload": name, "scale": scale, "gated": gated}

    # -- instrumented recording (trace production) ---------------------
    # timed samples run with the collector paused (and a collect()
    # beforehand): the retained traces make every gen-0 pass scan a
    # large heap, which otherwise dominates short recordings
    import gc

    traces = {}
    states = {}
    for dispatch in ("switch", "compiled"):
        best = float("inf")
        first = None
        for _ in range(reps):
            trace = TraceSink()
            vm = VM(
                module, trace, dispatch=dispatch, chunk_size=chunk_size,
            )
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                vm.run(workload.entry)
                wall = time.perf_counter() - t0
            finally:
                gc.enable()
            if first is None:
                first = wall  # includes one-time closure compilation
            best = min(best, wall)
        traces[dispatch] = (trace, vm)
        states[dispatch] = (vm.memory, vm.output, vm.total_steps)
        row[dispatch] = {
            "record_seconds": best,
            "first_run_seconds": first,
            "events": len(trace),
            "events_per_sec": len(trace) / best if best else 0.0,
        }
    rows_s = _trace_rows(traces["switch"][0])
    rows_c = _trace_rows(traces["compiled"][0])
    row["trace_identical"] = bool(
        np.array_equal(rows_s, rows_c)
        and traces["switch"][1].strings.values
        == traces["compiled"][1].strings.values
        and [len(c) for c in traces["switch"][0].chunks]
        == [len(c) for c in traces["compiled"][0].chunks]
    )
    row["state_identical"] = states["switch"] == states["compiled"]
    row["steps"] = states["compiled"][2]
    row["traced_speedup"] = (
        row["switch"]["record_seconds"] / row["compiled"]["record_seconds"]
        if row["compiled"]["record_seconds"]
        else 0.0
    )

    # -- untraced execution (validate / scheduler path) ----------------
    # pilot runs warm the codegen caches and size an inner loop so every
    # timed sample is tens of milliseconds; the cores are then sampled
    # interleaved, so host frequency drift cannot bias the ratio the way
    # sequential per-core blocks would — short recursive workloads (fft)
    # were otherwise pure scheduler noise
    import statistics

    # CPU time, not wall: the untraced legs are single-threaded and
    # CPU bound, and on shared hosts wall-clock scheduler noise easily
    # exceeds the few milliseconds a short recursion (fft) runs for
    inner = {}
    samples: dict[str, list] = {"switch": [], "compiled": []}
    for dispatch in ("switch", "compiled"):
        vm = VM(module, None, dispatch=dispatch, instrument=False)
        t0 = time.process_time()
        vm.run(workload.entry)
        pilot = time.process_time() - t0
        inner[dispatch] = max(1, int(0.05 / max(pilot, 1e-4)))
    for _ in range(max(3, reps)):
        for dispatch in ("switch", "compiled"):
            vms = [
                VM(module, None, dispatch=dispatch, instrument=False)
                for _ in range(inner[dispatch])
            ]
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                for vm in vms:
                    vm.run(workload.entry)
                samples[dispatch].append(
                    (time.process_time() - t0) / inner[dispatch]
                )
            finally:
                gc.enable()
    row["untraced"] = {
        "switch_seconds": statistics.median(samples["switch"]),
        "compiled_seconds": statistics.median(samples["compiled"]),
        # per-round ratios: adjacent samples see the same host state, so
        # frequency drift cancels instead of crowning a lucky baseline
        "speedup": statistics.median(
            s / c for s, c in zip(samples["switch"], samples["compiled"])
        ),
    }

    # -- end-to-end engine profile() -----------------------------------
    from repro.engine.config import DiscoveryConfig
    from repro.engine.core import DiscoveryEngine

    profile_row: dict = {}
    stores = {}
    best = {"switch": float("inf"), "compiled": float("inf")}
    stats = {}
    # dispatches interleave per repetition so host-speed drift hits
    # both sides of the ratio equally
    for _ in range(reps):
        for dispatch in ("switch", "compiled"):
            engine = DiscoveryEngine(
                config=DiscoveryConfig(
                    source=workload.source(scale), name=name,
                    entry=workload.entry, dispatch=dispatch,
                )
            )
            artifact = engine.profile()
            best[dispatch] = min(best[dispatch], engine.timings["profile"])
            stats[dispatch] = artifact.stats
            stores[dispatch] = artifact.store.to_dict()
    for dispatch in ("switch", "compiled"):
        profile_row[f"{dispatch}_seconds"] = best[dispatch]
        profile_row[f"{dispatch}_events_per_sec"] = stats[dispatch][
            "vm_events_per_sec"
        ]
    profile_row["speedup"] = (
        profile_row["switch_seconds"] / profile_row["compiled_seconds"]
        if profile_row["compiled_seconds"]
        else 0.0
    )
    profile_row["stores_identical"] = (
        stores["switch"] == stores["compiled"]
    )
    row["profile"] = profile_row
    return row


def run_vm_bench(
    workloads=None,
    *,
    scale: int = 1,
    reps: int = 3,
    quick: bool = False,
    chunk_size: int = 4096,
) -> dict:
    """Benchmark the dispatch cores; geomeans computed over gated rows.

    The headline numbers: ``traced_speedup_geomean`` (instrumented
    recording, compiled over switch, traces bit-identical) and
    ``profile_speedup_geomean`` (end-to-end engine profile phase).
    """
    if workloads:
        names = [(w, True) for w in workloads]
    else:
        names = [(w, True) for w in VM_BENCH_WORKLOADS] + [
            (w, False) for w in VM_BENCH_EXTRA
        ]
    if quick:
        reps = max(2, reps - 1)
    rows = [
        bench_vm_workload(
            name, scale=scale, reps=reps, chunk_size=chunk_size,
            gated=gated,
        )
        for name, gated in names
    ]
    gated_rows = [r for r in rows if r["gated"]]
    traced = [r["traced_speedup"] for r in gated_rows]
    untraced = [r["untraced"]["speedup"] for r in gated_rows]
    profile = [r["profile"]["speedup"] for r in gated_rows]
    return {
        "bench": "vm",
        "workloads": rows,
        "gated": [r["workload"] for r in gated_rows],
        "traced_speedup_geomean": _geomean(traced),
        "traced_speedup_min": min(traced) if traced else 0.0,
        "untraced_speedup_geomean": _geomean(untraced),
        "profile_speedup_geomean": _geomean(profile),
        "all_traces_identical": all(
            r["trace_identical"] and r["state_identical"] for r in rows
        ),
        "all_stores_identical": all(
            r["profile"]["stores_identical"] for r in rows
        ),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }


# ---------------------------------------------------------------------------
# the detection-core suite
# ---------------------------------------------------------------------------

#: the detection bench trio: loop-nest workloads whose profile cost is
#: detection bound — one textbook, one NAS, one apps-chapter program.
#: The gated trajectory numbers are their geomeans.
DETECT_BENCH_WORKLOADS = ("matmul", "CG", "mandelbrot")

#: reported alongside but not gated: deep recursion is eviction- and
#: frontier-churn bound, the detection core's least favourable regime
DETECT_BENCH_EXTRA = ("fft",)

#: the detect suite measures at a larger scale than the other suites:
#: detection throughput is the scaling story, and sub-100k-event traces
#: mostly measure fixed costs
DETECT_BENCH_SCALE = 2


def _detector(mode: str, vm, signature_slots=None, *, workers=2,
              sampling=None):
    from repro.profiler.sharded import ShardedDetector
    from repro.profiler.vectorized import VectorizedProfiler

    if mode == "sharded":
        return ShardedDetector(
            signature_slots, vm.loop_signature,
            n_shards=workers, sampling=sampling,
        )
    if mode == "vectorized":
        return VectorizedProfiler(signature_slots, vm.loop_signature)
    shadow = (
        PerfectShadow()
        if signature_slots is None
        else SignatureShadow(signature_slots)
    )
    return SerialProfiler(shadow, vm.loop_signature)


def _detect_trace(trace, vm, mode: str, reps: int):
    """Best-of-``reps`` detection wall time over a recorded trace."""
    best = float("inf")
    profiler = None
    for _ in range(reps):
        profiler = _detector(mode, vm)
        t0 = time.perf_counter()
        for chunk in trace.chunks:
            profiler.process_chunk(chunk)
        if mode == "vectorized":
            profiler.flush()
        best = min(best, time.perf_counter() - t0)
    return profiler, best


def _finish_detector(profiler) -> None:
    """Complete whatever 'all events seen' means for this detector."""
    finalize = getattr(profiler, "finalize", None)
    if finalize is not None:
        finalize()
    else:
        flush = getattr(profiler, "flush", None)
        if flush is not None:
            flush()


def _measured_detect_pass(trace, vm, mode: str, **kwargs) -> dict:
    """One untimed detection pass under tracemalloc.

    Peak-memory probes run separately from the timed loops on purpose:
    tracemalloc's allocation hooks distort throughput, so the timing
    samples stay clean and this pass pays the bookkeeping.  Returns the
    tracemalloc peak (python-level allocations of this process) and the
    detector's own ``memory_bytes`` accounting (which, for the sharded
    core, includes the merged worker-side totals).
    """
    profiler = _detector(mode, vm, **kwargs)
    tracemalloc.start()
    for chunk in trace.chunks:
        profiler.process_chunk(chunk)
    _finish_detector(profiler)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "peak_tracemalloc_bytes": peak,
        "memory_bytes": profiler.memory_bytes(),
    }


def bench_detect_workload(
    name: str,
    *,
    scale: int = DETECT_BENCH_SCALE,
    reps: int = 3,
    chunk_size: int = 4096,
    gated: bool = True,
    sharded_workers: int = 2,
    sampling=None,
) -> dict:
    """Measure one workload under the detection cores.

    ``loop`` vs ``vectorized`` is the gated interleaved comparison; the
    multi-process ``sharded`` core is measured alongside (store checked
    identical against vectorized, throughput reported not gated — on a
    single hot trace the fork/IPC overhead is the point of the
    measurement).  ``sampling`` adds a lossy sharded run scored with
    :func:`repro.profiler.deps.store_accuracy` against the exact store.
    """
    from repro.workloads import get_workload

    workload = get_workload(name)
    module = workload.compile(scale)
    row: dict = {"workload": name, "scale": scale, "gated": gated}

    trace = TraceSink()
    vm = VM(module, trace, chunk_size=chunk_size)
    vm.run(workload.entry)
    events = len(trace)
    row["events"] = events

    # cores sample interleaved per round with the collector paused (the
    # retained trace makes gen passes expensive and host-speed drift
    # would otherwise bias whichever core ran second); the speedup is
    # the median of per-round ratios, so adjacent samples see the same
    # host state
    import gc
    import statistics

    stores = {}
    counts = {}
    samples: dict[str, list] = {"loop": [], "vectorized": []}
    for _ in range(max(3, reps)):
        for mode in ("loop", "vectorized"):
            profiler = _detector(mode, vm)
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                for chunk in trace.chunks:
                    profiler.process_chunk(chunk)
                if mode == "vectorized":
                    profiler.flush()
                samples[mode].append(time.perf_counter() - t0)
            finally:
                gc.enable()
            stores[mode] = profiler.store.to_dict()
            counts[mode] = (
                len(profiler.store), profiler.store.raw_occurrences,
            )
    for mode in ("loop", "vectorized"):
        wall = statistics.median(samples[mode])
        row[mode] = {
            "detect_seconds": wall,
            "events_per_sec": events / wall if wall else 0.0,
            "deps": counts[mode][0],
            "raw_occurrences": counts[mode][1],
        }
    row["stores_identical"] = stores["loop"] == stores["vectorized"]
    row["detect_speedup"] = statistics.median(
        lo / ve
        for lo, ve in zip(samples["loop"], samples["vectorized"])
    )

    # -- per-run peak memory (untimed probe passes) --------------------
    for mode in ("loop", "vectorized"):
        row[mode].update(_measured_detect_pass(trace, vm, mode))

    # -- the multi-process sharded core --------------------------------
    from repro.profiler.deps import DependenceStore, store_accuracy

    sharded = _detector("sharded", vm, workers=sharded_workers)
    gc.collect()
    t0 = time.perf_counter()
    for chunk in trace.chunks:
        sharded.process_chunk(chunk)
    sharded.finalize()
    wall = time.perf_counter() - t0
    row["sharded"] = {
        "workers": sharded_workers,
        "detect_seconds": wall,
        "events_per_sec": events / wall if wall else 0.0,
        "deps": len(sharded.store),
        "store_identical": sharded.store.to_dict() == stores["vectorized"],
        "memory_bytes": sharded.memory_bytes(),
        "speedup_vs_vectorized": (
            statistics.median(samples["vectorized"]) / wall if wall else 0.0
        ),
    }

    if sampling is not None:
        exact_store = DependenceStore.from_dict(stores["vectorized"])
        sampled = _detector(
            "sharded", vm, workers=sharded_workers, sampling=sampling
        )
        t0 = time.perf_counter()
        for chunk in trace.chunks:
            sampled.process_chunk(chunk)
        sampled.finalize()
        wall = time.perf_counter() - t0
        accuracy = store_accuracy(sampled.store, exact_store)
        row["sampled"] = {
            "workers": sharded_workers,
            "rate": sampling,
            "detect_seconds": wall,
            "events_per_sec": events / wall if wall else 0.0,
            "shipped_events": sampled.shipped_events,
            **accuracy,
        }

    # -- end-to-end engine profile() -----------------------------------
    from repro.engine.config import DiscoveryConfig
    from repro.engine.core import DiscoveryEngine

    profile_row: dict = {}
    profile_stores = {}
    for mode in ("loop", "vectorized"):
        best = float("inf")
        stats = None
        for _ in range(reps):
            engine = DiscoveryEngine(
                config=DiscoveryConfig(
                    source=workload.source(scale), name=name,
                    entry=workload.entry, detect=mode,
                )
            )
            artifact = engine.profile()
            best = min(best, engine.timings["profile"])
            stats = artifact.stats
        profile_stores[mode] = artifact.store.to_dict()
        profile_row[f"{mode}_seconds"] = best
        profile_row[f"{mode}_detect_events_per_sec"] = stats[
            "detect_events_per_sec"
        ]
    profile_row["speedup"] = (
        profile_row["loop_seconds"] / profile_row["vectorized_seconds"]
        if profile_row["vectorized_seconds"]
        else 0.0
    )
    profile_row["stores_identical"] = (
        profile_stores["loop"] == profile_stores["vectorized"]
    )
    row["profile"] = profile_row
    return row


def detect_equivalence_sweep(
    *, scale: int = 1, chunk_size: int = 4096
) -> dict:
    """Loop vs. vectorized store equality over the whole registry.

    Every workload — the threaded ones included — is recorded once and
    profiled through both cores; the sweep passes only when every
    :class:`DependenceStore` (and every control-record map) matches
    bit for bit.
    """
    from repro.workloads import REGISTRY, get_workload

    mismatches: list[str] = []
    n_checked = 0
    for name in sorted(REGISTRY):
        workload = get_workload(name)
        module = workload.compile(scale)
        trace = TraceSink()
        vm = VM(
            module, trace, chunk_size=chunk_size
        )
        vm.run(workload.entry)
        results = {}
        for mode in ("loop", "vectorized"):
            profiler, _ = _detect_trace(trace, vm, mode, 1)
            results[mode] = (
                profiler.store.to_dict(),
                {r: c.to_dict() for r, c in profiler.control.items()},
            )
        n_checked += 1
        if results["loop"] != results["vectorized"]:
            mismatches.append(name)
    return {
        "workloads_checked": n_checked,
        "mismatches": mismatches,
        "all_identical": not mismatches,
    }


def run_detect_bench(
    workloads=None,
    *,
    scale: int = DETECT_BENCH_SCALE,
    reps: int = 3,
    quick: bool = False,
    chunk_size: int = 4096,
    sweep: bool = True,
    sharded_workers: int = 2,
    sampling: float = 0.25,
) -> dict:
    """Benchmark the detection cores; geomeans computed over gated rows.

    The headline numbers: ``detect_speedup_geomean`` (vectorized over
    loop detection throughput, stores bit-identical) and
    ``profile_speedup_geomean`` (end-to-end engine profile phase).  The
    multi-process sharded core rides along on every row —
    ``sharded_all_identical`` is its exactness tripwire and
    ``sampling_precision_min`` / ``sampling_recall_min`` the measured
    accuracy floor of the lossy mode (``sampling=None`` skips it).  The
    registry-wide equivalence sweep rides along unless ``sweep=False``.
    """
    if workloads:
        names = [(w, True) for w in workloads]
    else:
        names = [(w, True) for w in DETECT_BENCH_WORKLOADS] + [
            (w, False) for w in DETECT_BENCH_EXTRA
        ]
    if quick:
        reps = max(2, reps - 1)
    rows = [
        bench_detect_workload(
            name, scale=scale, reps=reps, chunk_size=chunk_size,
            gated=gated, sharded_workers=sharded_workers, sampling=sampling,
        )
        for name, gated in names
    ]
    gated_rows = [r for r in rows if r["gated"]]
    detect = [r["detect_speedup"] for r in gated_rows]
    profile = [r["profile"]["speedup"] for r in gated_rows]
    result = {
        "bench": "detect",
        "workloads": rows,
        "gated": [r["workload"] for r in gated_rows],
        "detect_speedup_geomean": _geomean(detect),
        "detect_speedup_min": min(detect) if detect else 0.0,
        "profile_speedup_geomean": _geomean(profile),
        "all_stores_identical": all(
            r["stores_identical"] and r["profile"]["stores_identical"]
            for r in rows
        ),
        "sharded_workers": sharded_workers,
        "sharded_all_identical": all(
            r["sharded"]["store_identical"] for r in rows
        ),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }
    if sampling is not None:
        result["sampling_rate"] = sampling
        result["sampling_precision_min"] = min(
            r["sampled"]["precision"] for r in rows
        )
        result["sampling_recall_min"] = min(
            r["sampled"]["recall"] for r in rows
        )
    if sweep:
        result["equivalence_sweep"] = detect_equivalence_sweep(
            chunk_size=chunk_size
        )
        result["all_stores_identical"] = (
            result["all_stores_identical"]
            and result["equivalence_sweep"]["all_identical"]
        )
    return result


# ---------------------------------------------------------------------------
# the large-scale (synthetic-stream) detection leg
# ---------------------------------------------------------------------------

#: the out-of-core scale point: ~10⁸ events, per the acceptance bar
DETECT_SCALE_EVENTS = 100_000_000

#: sharded-vs-vectorized speedup the scale leg demands at 4 workers —
#: enforced only when the host actually has that many CPUs (a 1-core CI
#: container physically cannot demonstrate process parallelism; the
#: measured ratio and the CPU count are recorded either way)
DETECT_SCALE_SPEEDUP = 2.5


def _available_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_detect_scale_bench(
    *,
    n_events: int = DETECT_SCALE_EVENTS,
    workers: int = 4,
    sampling: float = 0.25,
    quick: bool = False,
) -> dict:
    """Vectorized vs. sharded detection on a synthetic 10⁸-event stream.

    The stream (:class:`repro.profiler.synth.SyntheticStream`) is
    generated chunk-at-a-time, so the input never resides in memory —
    peak RSS is detector state plus one chunk regardless of
    ``n_events`` (the out-of-core claim, gated on the recorded RSS
    deltas, not just throughput).  ``quick`` shrinks the stream to a
    smoke size for CI.

    The sharded speedup gate is **conditional on hardware**: the gate
    object records the required ratio, the measured ratio, the CPU
    count, and whether the gate was enforced (``cpus >= workers``).
    Numbers are never synthesized — on a single-CPU host the measured
    ratio honestly shows the IPC overhead instead.
    """
    import gc

    from repro.profiler.deps import store_accuracy
    from repro.profiler.sharded import ShardedDetector
    from repro.profiler.synth import SyntheticStream
    from repro.profiler.vectorized import VectorizedProfiler

    if quick:
        n_events = min(n_events, 2_000_000)
    stream = SyntheticStream(n_events)
    cpus = _available_cpus()

    def rss_self_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def rss_children_kb() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    result: dict = {
        "bench": "detect_scale",
        "n_events": stream.n_events,
        "workers": workers,
        "cpus": cpus,
        "quick": quick,
    }

    # -- single-process vectorized baseline ----------------------------
    gc.collect()
    rss_before = rss_self_kb()
    vec = VectorizedProfiler(None, stream.sig_decoder)
    t0 = time.perf_counter()
    for chunk in stream.iter_chunks():
        vec.process_chunk(chunk)
    vec.flush()
    vec_wall = time.perf_counter() - t0
    result["vectorized"] = {
        "detect_seconds": vec_wall,
        "events_per_sec": stream.n_events / vec_wall if vec_wall else 0.0,
        "deps": len(vec.store),
        "memory_bytes": vec.memory_bytes(),
        "ru_maxrss_kb": rss_self_kb(),
        "ru_maxrss_delta_kb": max(0, rss_self_kb() - rss_before),
    }

    # -- sharded exact -------------------------------------------------
    gc.collect()
    rss_before = rss_self_kb()
    sharded = ShardedDetector(None, stream.sig_decoder, n_shards=workers)
    t0 = time.perf_counter()
    for chunk in stream.iter_chunks():
        sharded.process_chunk(chunk)
    sharded.finalize()
    sharded_wall = time.perf_counter() - t0
    result["sharded"] = {
        "detect_seconds": sharded_wall,
        "events_per_sec": (
            stream.n_events / sharded_wall if sharded_wall else 0.0
        ),
        "deps": len(sharded.store),
        "memory_bytes": sharded.memory_bytes(),
        "ru_maxrss_kb": rss_self_kb(),
        "ru_maxrss_delta_kb": max(0, rss_self_kb() - rss_before),
        # worker processes are children: their peak RSS lands here
        "children_maxrss_kb": rss_children_kb(),
    }
    result["store_identical"] = (
        sharded.store.to_dict() == vec.store.to_dict()
    )
    speedup = vec_wall / sharded_wall if sharded_wall else 0.0
    result["sharded_speedup"] = speedup
    enforced = cpus >= workers
    result["speedup_gate"] = {
        "required": DETECT_SCALE_SPEEDUP,
        "measured": speedup,
        "cpus": cpus,
        "enforced": enforced,
        "passed": (speedup >= DETECT_SCALE_SPEEDUP) if enforced else None,
    }

    # -- sharded sampled -----------------------------------------------
    if sampling is not None:
        gc.collect()
        sampled = ShardedDetector(
            None, stream.sig_decoder, n_shards=workers, sampling=sampling
        )
        t0 = time.perf_counter()
        for chunk in stream.iter_chunks():
            sampled.process_chunk(chunk)
        sampled.finalize()
        wall = time.perf_counter() - t0
        accuracy = store_accuracy(sampled.store, vec.store)
        result["sampled"] = {
            "rate": sampling,
            "detect_seconds": wall,
            "events_per_sec": stream.n_events / wall if wall else 0.0,
            "shipped_events": sampled.shipped_events,
            "speedup_vs_vectorized": vec_wall / wall if wall else 0.0,
            **accuracy,
        }
    return result


def format_detect_scale_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    lines = [
        f"scale leg: {result['n_events']} synthetic events, "
        f"{result['workers']} workers, {result['cpus']} cpu(s)"
    ]
    for mode in ("vectorized", "sharded", "sampled"):
        row = result.get(mode)
        if not row:
            continue
        extra = ""
        if mode == "sharded":
            extra = f"  children RSS {row['children_maxrss_kb']} kB"
        if mode == "sampled":
            extra = (
                f"  precision {row['precision']:.3f} "
                f"recall {row['recall']:.3f}"
            )
        lines.append(
            f"  {mode:10s} {row['detect_seconds']:8.2f}s "
            f"{row['events_per_sec']:12.0f} ev/s{extra}"
        )
    gate = result["speedup_gate"]
    verdict = (
        "not enforced (cpus < workers)"
        if not gate["enforced"]
        else ("PASS" if gate["passed"] else "FAIL")
    )
    lines.append(
        f"  sharded speedup {result['sharded_speedup']:.2f}x "
        f"(gate {gate['required']:.1f}x: {verdict}); store identical: "
        f"{result['store_identical']}"
    )
    return "\n".join(lines)


def format_detect_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'workload':12s} {'events':>8s} {'loop eps':>10s} "
        f"{'vec eps':>10s} {'shard eps':>10s} {'detect':>7s} "
        f"{'profile':>8s} {'identical':>9s} {'gated':>5s}"
    )
    lines = [header, "-" * len(header)]
    for row in result["workloads"]:
        sharded = row.get("sharded", {})
        lines.append(
            f"{row['workload']:12s} {row['events']:8d} "
            f"{row['loop']['events_per_sec']:10.0f} "
            f"{row['vectorized']['events_per_sec']:10.0f} "
            f"{sharded.get('events_per_sec', 0.0):10.0f} "
            f"{row['detect_speedup']:6.2f}x "
            f"{row['profile']['speedup']:7.2f}x "
            f"{str(row['stores_identical']):>9s} "
            f"{str(row['gated']):>5s}"
        )
    tail = (
        f"gated geomean: detect {result['detect_speedup_geomean']:.2f}x "
        f"(min {result['detect_speedup_min']:.2f}x), profile "
        f"{result['profile_speedup_geomean']:.2f}x"
    )
    if "sharded_all_identical" in result:
        tail += (
            f"; sharded({result['sharded_workers']}w) "
            f"{'identical' if result['sharded_all_identical'] else 'MISMATCHED'}"
        )
    if "sampling_precision_min" in result:
        tail += (
            f"; sampled@{result['sampling_rate']} precision≥"
            f"{result['sampling_precision_min']:.3f} recall≥"
            f"{result['sampling_recall_min']:.3f}"
        )
    sweep = result.get("equivalence_sweep")
    if sweep:
        tail += (
            f"; sweep {sweep['workloads_checked']} workloads "
            f"{'identical' if sweep['all_identical'] else 'MISMATCHED'}"
        )
    tail += f"; peak RSS {result['ru_maxrss_kb']} kB"
    lines.append(tail)
    scale = result.get("scale")
    if scale:
        lines.append(format_detect_scale_table(scale))
    return "\n".join(lines)


def format_vm_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'workload':12s} {'events':>8s} {'switch eps':>11s} "
        f"{'compiled eps':>13s} {'traced':>7s} {'untraced':>9s} "
        f"{'profile':>8s} {'identical':>9s} {'gated':>5s}"
    )
    lines = [header, "-" * len(header)]
    for row in result["workloads"]:
        lines.append(
            f"{row['workload']:12s} {row['switch']['events']:8d} "
            f"{row['switch']['events_per_sec']:11.0f} "
            f"{row['compiled']['events_per_sec']:13.0f} "
            f"{row['traced_speedup']:6.2f}x "
            f"{row['untraced']['speedup']:8.2f}x "
            f"{row['profile']['speedup']:7.2f}x "
            f"{str(row['trace_identical']):>9s} "
            f"{str(row['gated']):>5s}"
        )
    lines.append(
        f"gated geomean: traced {result['traced_speedup_geomean']:.2f}x "
        f"(min {result['traced_speedup_min']:.2f}x), untraced "
        f"{result['untraced_speedup_geomean']:.2f}x, profile "
        f"{result['profile_speedup_geomean']:.2f}x; peak RSS "
        f"{result['ru_maxrss_kb']} kB"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the observability suite
# ---------------------------------------------------------------------------

#: the obs bench trio: one textbook, one NAS, one recursion-heavy
#: workload, so the disabled-overhead bound covers both chunk-dense loops
#: and call/ret-dense traces
OBS_BENCH_WORKLOADS = ("pi", "EP", "fft")

#: instrumentation-site calibration loop length (per measurement pass)
_OBS_CALIBRATION_CALLS = 200_000


def _disabled_site_cost_ns(calls: int = _OBS_CALIBRATION_CALLS) -> float:
    """Per-activation cost of one *disabled* instrumentation site, in ns.

    Every site in the pipeline guards on a single attribute
    (``tracer.enabled``) before doing any tracing work; the most
    expensive disabled form is the unconditional
    ``with tracer.span(...)`` used at phase granularity, which still
    allocates nothing but pays a method call plus the shared
    :data:`~repro.obs.trace.NULL_SPAN` enter/exit.  This measures that
    worst form (best of three passes), so the modelled overhead is an
    upper bound on what real sites pay.
    """
    from repro.obs.trace import Tracer

    tracer = Tracer(enabled=False)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            with tracer.span("calibrate", "obs"):
                pass
        best = min(best, (time.perf_counter_ns() - t0) / calls)
    return best


def bench_obs_workload(
    name: str, *, scale: int = 1, reps: int = 3,
    site_cost_ns: float = 0.0,
) -> dict:
    """One workload through the engine ``profile()`` phase per obs mode.

    Fresh engine per repetition (``profile()`` caches per instance);
    best-of-``reps`` wall per mode from ``engine.timings``.  The
    dependence stores must stay bit-identical across all three modes —
    observability must never perturb what the pipeline computes.
    """
    from repro.engine.config import DiscoveryConfig
    from repro.engine.core import DiscoveryEngine

    from repro.workloads import get_workload

    workload = get_workload(name)
    row: dict = {"workload": name}
    stores = {}
    n_spans = 0
    n_metrics = 0
    for mode in ("off", "metrics", "trace"):
        best = float("inf")
        for _ in range(reps):
            engine = DiscoveryEngine(
                config=DiscoveryConfig(
                    source=workload.source(scale), name=name,
                    entry=workload.entry, obs=mode,
                )
            )
            artifact = engine.profile()
            best = min(best, engine.timings["profile"])
        stores[mode] = artifact.store.to_dict()
        row[f"{mode}_seconds"] = best
        if mode == "trace":
            n_spans = engine.obs.tracer.n_spans
        if engine.obs.metrics is not None:
            n_metrics = len(engine.obs.metrics.snapshot())
    row["events"] = artifact.stats["trace_events"]
    row["n_spans"] = n_spans
    row["n_metrics"] = n_metrics
    row["stores_identical"] = (
        stores["off"] == stores["metrics"] == stores["trace"]
    )
    off = row["off_seconds"]
    row["metrics_overhead_pct"] = (
        (row["metrics_seconds"] / off - 1.0) * 100.0 if off else 0.0
    )
    row["trace_overhead_pct"] = (
        (row["trace_seconds"] / off - 1.0) * 100.0 if off else 0.0
    )
    # the gated number: disabled sites cost one guarded call apiece;
    # the enabled run counts how often sites would activate, so
    # (per-site cost x activations) / obs-off wall bounds what the
    # disabled build pays for carrying the instrumentation at all
    row["disabled_overhead_pct"] = (
        site_cost_ns * n_spans / (off * 1e9) * 100.0 if off else 0.0
    )
    return row


def run_obs_bench(
    workloads=None,
    *,
    scale: int = 1,
    reps: int = 3,
    quick: bool = False,
    chunk_size: int = 4096,
) -> dict:
    """Benchmark the observability layer (``BENCH_obs.json``).

    Two claims are gated: the dependence stores are bit-identical with
    observability off, metrics-only, and full tracing
    (``all_stores_identical``), and the *disabled* layer costs at most
    2 % of profile wall time (``disabled_overhead_pct_max`` — modelled
    as calibrated per-site guard cost times the activation count the
    enabled run observed).  The enabled overheads are reported but not
    gated; tracing is opt-in.
    """
    del chunk_size  # engine profile() owns its chunking; kept for CLI parity
    names = list(workloads) if workloads else list(OBS_BENCH_WORKLOADS)
    if quick:
        reps = max(2, reps - 1)
    site_cost = _disabled_site_cost_ns()
    rows = [
        bench_obs_workload(
            name, scale=scale, reps=reps, site_cost_ns=site_cost,
        )
        for name in names
    ]
    return {
        "bench": "obs",
        "workloads": rows,
        "disabled_site_cost_ns": site_cost,
        "disabled_overhead_pct_max": max(
            r["disabled_overhead_pct"] for r in rows
        ) if rows else 0.0,
        "metrics_overhead_pct_max": max(
            r["metrics_overhead_pct"] for r in rows
        ) if rows else 0.0,
        "trace_overhead_pct_max": max(
            r["trace_overhead_pct"] for r in rows
        ) if rows else 0.0,
        "all_stores_identical": all(r["stores_identical"] for r in rows),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }


def format_obs_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'workload':12s} {'off s':>8s} {'metrics s':>10s} "
        f"{'trace s':>8s} {'spans':>7s} {'metr %':>7s} {'trace %':>8s} "
        f"{'disabled %':>10s} {'identical':>9s}"
    )
    lines = [header, "-" * len(header)]
    for row in result["workloads"]:
        lines.append(
            f"{row['workload']:12s} {row['off_seconds']:8.3f} "
            f"{row['metrics_seconds']:10.3f} {row['trace_seconds']:8.3f} "
            f"{row['n_spans']:7d} {row['metrics_overhead_pct']:+6.1f}% "
            f"{row['trace_overhead_pct']:+7.1f}% "
            f"{row['disabled_overhead_pct']:9.4f}% "
            f"{str(row['stores_identical']):>9s}"
        )
    lines.append(
        f"disabled site {result['disabled_site_cost_ns']:.0f} ns/call; "
        f"worst disabled overhead "
        f"{result['disabled_overhead_pct_max']:.4f}% "
        f"(gate 2%); stores "
        f"{'identical' if result['all_stores_identical'] else 'MISMATCHED'}"
        f"; peak RSS {result['ru_maxrss_kb']} kB"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the resilience fault suite
# ---------------------------------------------------------------------------

#: the fault matrix runs on one detection-bound workload — matrix cost is
#: cases x recovery latency, not trace size, so the smallest gated detect
#: workload suffices
FAULTS_BENCH_WORKLOAD = "matmul"

#: worker-side fault kinds exercised by the matrix (raise_in_phase is an
#: engine-level fault covered by the batch-resume tests, not this suite)
FAULTS_BENCH_KINDS = (
    "kill_worker",
    "hang_worker",
    "drop_slab_ack",
    "corrupt_done_payload",
)

#: small batches so the matrix has a real first/middle/last structure
#: (~140 task messages on the scale-1 trace) without a big trace
FAULTS_BENCH_BATCH_EVENTS = 512

#: supervision knobs tuned for bench latency: recovery behaviour is
#: identical to the defaults, only the waits are shortened so a hung
#: worker costs ~1 s instead of the production 60 s patience
FAULTS_BENCH_POLICY = {
    "hang_timeout": 1.0,
    "poll_interval": 0.1,
    "backoff_base": 0.01,
    "backoff_max": 0.1,
}


def _faults_reference(trace, vm):
    """The serial vectorized store every fault case must reproduce."""
    from repro.profiler.vectorized import VectorizedProfiler

    ref = VectorizedProfiler(None, vm.loop_signature)
    for chunk in trace.chunks:
        ref.process_chunk(chunk)
    ref.flush()
    return _faults_state(ref)


def _faults_state(det) -> dict:
    return {
        "store": det.store.to_dict(),
        "control": {
            line: rec.to_dict() for line, rec in sorted(det.control.items())
        },
    }


def _run_fault_case(trace, vm, plan, *, workers: int = 2) -> dict:
    """One supervised sharded run under a fault plan; never raises."""
    from repro.profiler.sharded import ShardedDetector

    det = ShardedDetector(
        None,
        vm.loop_signature,
        n_shards=workers,
        batch_events=FAULTS_BENCH_BATCH_EVENTS,
        slab_rows=FAULTS_BENCH_BATCH_EVENTS,
        policy=FAULTS_BENCH_POLICY,
        faults=plan,
    )
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # the degrade rung warns by design; the bench records the
            # tally instead of spamming the report
            warnings.simplefilter("ignore", RuntimeWarning)
            for chunk in trace.chunks:
                det.process_chunk(chunk)
            det.finalize()
    except BaseException as exc:
        det.close()
        return {
            "recovered": False,
            "error": f"{type(exc).__name__}: {exc}",
            "seconds": round(time.perf_counter() - t0, 3),
            "recovery": dict(det.recovery),
        }
    return {
        "recovered": True,
        "state": _faults_state(det),
        "seconds": round(time.perf_counter() - t0, 3),
        "recovery": dict(det.recovery),
    }


def run_faults_bench(
    *,
    scale: int = 1,
    workers: int = 2,
    quick: bool = False,
    seed: int = 0,
    chunk_size: int = 4096,
) -> dict:
    """Benchmark the fault-recovery layer (``BENCH_faults.json``).

    Gates three claims: every eventually-successful worker fault
    schedule — each kind at the first, middle and last task batch, plus
    seeded :meth:`~repro.resilience.FaultPlan.scattered` mixes —
    completes without raising (``all_recovered``) with a merged store
    bit-identical to the serial vectorized reference
    (``all_stores_identical``); and a schedule that exhausts every
    retry budget degrades to in-process detection rather than failing,
    still bit-identical (``degraded_runs`` == expected, degraded case
    included in the identity gate).  ``quick`` trims the matrix to one
    position per kind for the CI smoke lane.
    """
    from repro.resilience import FaultEvent, FaultPlan
    from repro.workloads import get_workload

    workload = get_workload(FAULTS_BENCH_WORKLOAD)
    module = workload.compile(scale)
    trace = TraceSink()
    vm = VM(module, trace, chunk_size=chunk_size)
    vm.run(workload.entry)
    reference = _faults_reference(trace, vm)

    events = len(trace)
    n_batches = max(1, -(-events // FAULTS_BENCH_BATCH_EVENTS))
    positions = [0, n_batches // 2, n_batches - 1]
    rows = []

    if quick:
        # one position per kind, rotating so the reduced lane still
        # touches first, middle and last batches across the kinds
        matrix = [
            (kind, positions[i % len(positions)])
            for i, kind in enumerate(FAULTS_BENCH_KINDS)
        ]
    else:
        matrix = [
            (kind, batch)
            for kind in FAULTS_BENCH_KINDS
            for batch in positions
        ]
    for kind, batch in matrix:
        plan = FaultPlan([FaultEvent(kind=kind, shard=0, batch=batch)])
        case = _run_fault_case(trace, vm, plan, workers=workers)
        case.update(case_kind=kind, batch=batch, schedule="single")
        rows.append(case)

    n_scattered = 1 if quick else 3
    for i in range(n_scattered):
        plan = FaultPlan.scattered(
            seed + i, n_shards=workers, n_batches=n_batches,
        )
        case = _run_fault_case(trace, vm, plan, workers=workers)
        case.update(
            case_kind="+".join(e.kind for e in plan.events),
            batch=None,
            schedule=f"scattered[{seed + i}]",
        )
        rows.append(case)

    # unrecoverable: a kill at every generation exhausts shard retries
    # and the pool restart; the ladder's last rung must degrade to
    # in-process detection, not raise
    degrade_plan = FaultPlan(
        [
            FaultEvent(kind="kill_worker", batch=0, gen=gen)
            for gen in range(8)
        ]
    )
    case = _run_fault_case(trace, vm, degrade_plan, workers=workers)
    case.update(case_kind="kill_worker", batch=0, schedule="unrecoverable")
    rows.append(case)

    for row in rows:
        row["store_identical"] = (
            row["recovered"] and row.pop("state", None) == reference
        )
    degraded_runs = sum(r["recovery"].get("degraded", 0) for r in rows)
    return {
        "bench": "faults",
        "workload": FAULTS_BENCH_WORKLOAD,
        "events": events,
        "n_batches": n_batches,
        "workers": workers,
        "cases": rows,
        "all_recovered": all(r["recovered"] for r in rows),
        "all_stores_identical": all(r["store_identical"] for r in rows),
        "degraded_runs": degraded_runs,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
    }


def format_faults_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'schedule':<16} {'fault':<32} {'batch':>5} {'ok':>3} "
        f"{'ident':>5} {'retry':>5} {'pool':>4} {'degr':>4} {'s':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in result["cases"]:
        rec = row["recovery"]
        batch = "-" if row["batch"] is None else str(row["batch"])
        lines.append(
            f"{row['schedule']:<16} {row['case_kind']:<32} {batch:>5} "
            f"{'y' if row['recovered'] else 'n':>3} "
            f"{'y' if row['store_identical'] else 'N':>5} "
            f"{rec.get('shard_retries', 0):>5} "
            f"{rec.get('pool_restarts', 0):>4} "
            f"{rec.get('degraded', 0):>4} {row['seconds']:>6.2f}"
        )
    lines.append(
        f"{len(result['cases'])} cases over {result['events']} events "
        f"({result['n_batches']} batches, {result['workers']} workers); "
        f"recovered {'all' if result['all_recovered'] else 'NOT ALL'}; "
        f"stores "
        f"{'identical' if result['all_stores_identical'] else 'MISMATCHED'}"
        f"; degraded runs {result['degraded_runs']}"
    )
    return "\n".join(lines)


# -- store suite: crash-safe concurrent artifact store -----------------

#: two registry workloads with distinct keys, so two writers have real
#: overlap (same keys, different order) without a long bench wall clock
STORE_BENCH_WORKLOADS = ("fib", "sort")

#: stable result-row fields: what a job *computed*, not how this
#: particular writer got it (resumed/deduped/attempts/seconds differ)
_STORE_ROW_FIELDS = (
    "ok", "name", "return_value", "n_threads", "total_instructions",
    "deps", "loops", "parallelizable_loops", "suggestions", "kinds", "top",
)

#: per-artifact volatility: stats keys that legitimately differ run-to-run
_STORE_VOLATILE_STAT_MARKERS = ("seconds", "per_sec")


def _store_canonical_json(name: str, text: str):
    """Reduce one JSON artifact to its run-invariant content."""
    import json as _json

    data = _json.loads(text)
    if name == "result.json":
        return {k: data.get(k) for k in _STORE_ROW_FIELDS}
    if name == "profile.json" and isinstance(data.get("stats"), dict):
        data = dict(data)
        data["stats"] = {
            k: v
            for k, v in data["stats"].items()
            if not any(m in k for m in _STORE_VOLATILE_STAT_MARKERS)
        }
    return data


def _store_artifact_digest(path: str, name: str) -> str:
    """Content digest of one artifact, ignoring volatile bytes.

    ``trace.npz`` is hashed by loaded array contents (the zip container
    embeds timestamps); JSON artifacts are canonicalized first.
    """
    import hashlib
    import json as _json

    import numpy as np

    digest = hashlib.sha256()
    if name.endswith(".npz"):
        with np.load(path, allow_pickle=False) as archive:
            for key in sorted(archive.files):
                arr = archive[key]
                digest.update(key.encode())
                digest.update(str(arr.dtype).encode())
                digest.update(str(arr.shape).encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if name.endswith(".json"):
        canonical = _json.dumps(
            _store_canonical_json(name, text), sort_keys=True
        )
        digest.update(canonical.encode())
    else:
        digest.update(text.encode())
    return digest.hexdigest()


#: artifacts that never converge across writers, excluded from identity
_STORE_IDENTITY_EXCLUDED = ("config.json", "attempts.json", "manifest.json")


def _store_state(root: str) -> dict:
    """``{key: {artifact: digest}}`` canonical content of a whole store."""
    import os

    from repro.store import ArtifactStore

    store = ArtifactStore(root)
    state = {}
    for key in store.keys():
        key_dir = store.key_dir(key)
        entries = {}
        for name in sorted(os.listdir(key_dir)):
            path = os.path.join(key_dir, name)
            if (
                name.startswith(".")
                or ".tmp-" in name
                or name in _STORE_IDENTITY_EXCLUDED
                or not os.path.isfile(path)
            ):
                continue
            entries[name] = _store_artifact_digest(path, name)
        state[key] = entries
    return state


def _store_healed_count(root: str) -> int:
    """Quarantined artifacts across the store (files under .corrupt-N/)."""
    import glob
    import os

    return sum(
        1
        for path in glob.glob(os.path.join(root, "*", ".corrupt-*", "*"))
        if os.path.isfile(path)
    )


def _store_tmp_count(root: str) -> int:
    import glob
    import os

    return sum(
        1
        for path in glob.glob(os.path.join(root, "**", "*"), recursive=True)
        if ".tmp-" in os.path.basename(path) and os.path.isfile(path)
    )


def _store_bench_jobs(faulty: Optional[dict] = None) -> list:
    """One job per bench workload; ``faulty`` maps workload -> fault plan."""
    from repro.engine.batch import job_for_workload

    jobs = []
    for name in STORE_BENCH_WORKLOADS:
        overrides = {"obs": "metrics"}
        if faulty and name in faulty:
            overrides["fault_plan"] = faulty[name]
        jobs.append(job_for_workload(name, **overrides))
    return jobs


def _store_bench_writer(jobs, resume_dir, queue, store_options) -> None:
    """Process entry point: one concurrent batch runner."""
    from repro.engine.batch import run_batch

    queue.put(
        run_batch(
            jobs,
            jobs_parallel=1,
            resume_dir=resume_dir,
            store_options=store_options,
        )
    )


def _store_run_writers(
    writer_jobs: list, resume_dir: str, store_options: Optional[dict] = None
) -> tuple:
    """Run one batch-runner process per job list; returns (rows, exits).

    A writer killed by an injected fault reports no rows (``None`` in
    that slot) and its exit code carries
    :data:`~repro.resilience.faults.KILL_EXIT_CODE`.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    procs, queues = [], []
    for jobs in writer_jobs:
        queue = ctx.SimpleQueue()
        proc = ctx.Process(
            target=_store_bench_writer,
            args=(jobs, resume_dir, queue, store_options),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
        queues.append(queue)
    rows, exits = [], []
    for proc, queue in zip(procs, queues):
        proc.join(timeout=600)
        if proc.is_alive():  # defensive: a wedged writer fails the gate
            proc.kill()
            proc.join()
        exits.append(proc.exitcode)
        rows.append(queue.get() if not queue.empty() else None)
    return rows, exits


def _store_case_summary(
    schedule: str,
    root: str,
    reference: dict,
    all_rows: list,
    *,
    writers: int,
    expected_kill_exits: int = 0,
    exits: Optional[list] = None,
    t0: float = 0.0,
) -> dict:
    """Post-schedule audit: convergence, healing, torn reads, metrics."""
    from repro.store import ArtifactStore

    rows = [r for batch in all_rows if batch for r in batch]
    report = ArtifactStore(root).verify()
    kill_exits = sum(1 for code in (exits or []) if code == KILL_EXIT_CODE)
    counters: dict = {}
    for row in rows:
        for name, value in row.get("store_counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    # a torn read would surface as a failed row, a verify-corrupt entry,
    # or a tmp file left under a final-looking tree
    torn_reads = (
        sum(1 for r in rows if not r.get("ok"))
        + report["corrupt"]
        + _store_tmp_count(root)
    )
    return {
        "schedule": schedule,
        "writers": writers,
        "rows": len(rows),
        "rows_ok": all(r.get("ok") for r in rows) and bool(rows),
        "deduped": sum(1 for r in rows if r.get("deduped")),
        "computed": sum(1 for r in rows if r.get("phases_run")),
        "kill_exits": kill_exits,
        "expected_kill_exits": expected_kill_exits,
        "exits_ok": kill_exits == expected_kill_exits
        and all(
            code in (0, KILL_EXIT_CODE) for code in (exits or [])
        ),
        "healed": _store_healed_count(root),
        "torn_reads": torn_reads,
        "store_identical": _store_state(root) == reference,
        "lock_waits": counters.get("store.lock_waits", 0),
        "lock_steals": counters.get("store.lock_steals", 0),
        "tmps_swept": counters.get("store.torn_tmp_cleaned", 0),
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run_store_bench(*, quick: bool = False, seed: int = 0) -> dict:
    """Torture the artifact store under concurrent writers + faults.

    Five schedules, each ending with ≥2 concurrent batch runners on one
    shared resume dir (``BENCH_store.json``):

    * ``concurrent_clean`` — two runners, same keys in opposite order:
      every key computed exactly once, the latecomer dedupes.
    * ``kill_mid_write`` — a runner dies (``os._exit``) mid-``detect``
      publish, leaving a torn tmp; two clean runners then converge and
      sweep the orphan, and the killed runner's rerun fully dedupes.
    * ``torn_tmp`` — a runner publishes a truncated ``result.json``
      against its full-payload checksum; the next runners quarantine it
      to ``.corrupt-N/`` and recompute.
    * ``stale_lease`` — lease lock backend with a dead-pid lease planted
      on a key: deterministic takeover, counted on ``store.lock_steals``.
    * ``checksum_flip`` — a byte of a published ``detect.json`` flipped
      on disk (and the finished row removed): verified restore heals the
      poisoned artifact and recomputes from the surviving prefix.

    Gates: every schedule's final store is bit-identical (canonicalized
    content) to a clean single-writer reference, all rows ok, zero torn
    reads/leftover tmps, ≥2 total healed corruptions, ≥1 lease steal,
    and clean-schedule keys computed exactly once.  ``quick`` is
    accepted for CLI symmetry; the matrix is already the minimal one.
    """
    import json as _json
    import shutil
    import tempfile

    from repro.engine.batch import config_for_job, run_batch
    from repro.engine.checkpoint import job_key
    from repro.resilience.faults import FaultPlan, plant_stale_lease
    from repro.store import ArtifactStore

    keys = {
        name: job_key(config_for_job(job))
        for name, job in zip(STORE_BENCH_WORKLOADS, _store_bench_jobs())
    }
    first = STORE_BENCH_WORKLOADS[0]

    roots = []

    def new_root(tag: str) -> str:
        root = tempfile.mkdtemp(prefix=f"repro-store-bench-{tag}-")
        roots.append(root)
        return root

    cases = []
    try:
        ref_dir = new_root("ref")
        t0 = time.perf_counter()
        ref_rows = run_batch(
            _store_bench_jobs(), jobs_parallel=1, resume_dir=ref_dir
        )
        reference = _store_state(ref_dir)
        reference_ok = all(r.get("ok") for r in ref_rows)
        ref_seconds = round(time.perf_counter() - t0, 3)

        jobs_fwd = _store_bench_jobs()
        jobs_rev = list(reversed(_store_bench_jobs()))

        # 1. clean concurrency: dedupe instead of double-compute
        t0 = time.perf_counter()
        root = new_root("clean")
        rows, exits = _store_run_writers([jobs_fwd, jobs_rev], root)
        case = _store_case_summary(
            "concurrent_clean", root, reference, rows,
            writers=2, exits=exits, t0=t0,
        )
        flat = [r for batch in rows if batch for r in batch]
        per_name: dict = {}
        for row in flat:
            if row.get("phases_run"):
                per_name[row["name"]] = per_name.get(row["name"], 0) + 1
        case["computed_once"] = bool(per_name) and all(
            count == 1 for count in per_name.values()
        )
        cases.append(case)

        # 2. kill -9 mid-write, then heal under concurrency, then rerun
        t0 = time.perf_counter()
        root = new_root("kill")
        kill_plan = FaultPlan(
            [{"kind": "kill_in_store_write", "artifact": "detect.json"}]
        ).to_dict()
        _rows1, exits1 = _store_run_writers(
            [_store_bench_jobs({first: kill_plan})], root
        )
        rows2, exits2 = _store_run_writers([jobs_fwd, jobs_rev], root)
        rows3, exits3 = _store_run_writers(
            [_store_bench_jobs({first: kill_plan})], root
        )
        case = _store_case_summary(
            "kill_mid_write", root, reference, rows2 + rows3,
            writers=2, expected_kill_exits=1,
            exits=exits1 + exits2 + exits3, t0=t0,
        )
        case["rerun_deduped"] = bool(rows3[0]) and all(
            r.get("resumed") and r.get("phases_run") == [] for r in rows3[0]
        )
        cases.append(case)

        # 3. torn write published against a full-payload checksum
        t0 = time.perf_counter()
        root = new_root("torn")
        torn_plan = FaultPlan(
            [{"kind": "torn_store_write", "artifact": "result.json"}]
        ).to_dict()
        _rows1, exits1 = _store_run_writers(
            [_store_bench_jobs({first: torn_plan})], root
        )
        rows2, exits2 = _store_run_writers([jobs_fwd, jobs_rev], root)
        cases.append(
            _store_case_summary(
                "torn_tmp", root, reference, rows2,
                writers=2, exits=exits1 + exits2, t0=t0,
            )
        )

        # 4. stale lease left by a dead pid: deterministic takeover
        t0 = time.perf_counter()
        root = new_root("lease")
        lease_opts = {"lock_backend": "lease"}
        plant_stale_lease(ArtifactStore(root).key_dir(keys[first]))
        rows, exits = _store_run_writers(
            [jobs_fwd, jobs_rev], root, store_options=lease_opts
        )
        case = _store_case_summary(
            "stale_lease", root, reference, rows,
            writers=2, exits=exits, t0=t0,
        )
        cases.append(case)

        # 5. silent on-disk corruption of a published artifact
        t0 = time.perf_counter()
        root = new_root("flip")
        rows1, exits1 = _store_run_writers([_store_bench_jobs()], root)
        store = ArtifactStore(root)
        key_dir = store.key_dir(keys[first])
        from repro.resilience.faults import flip_artifact_byte

        flip_artifact_byte(f"{key_dir}/detect.json")
        import os as _os

        _os.unlink(f"{key_dir}/result.json")
        rows2, exits2 = _store_run_writers([jobs_fwd, jobs_rev], root)
        case = _store_case_summary(
            "checksum_flip", root, reference, rows2,
            writers=2, exits=exits1 + exits2, t0=t0,
        )
        flat = [r for batch in rows2 if batch for r in batch]
        case["healed_prefix_resume"] = any(
            r["name"] == first and r.get("phases_restored") == ["profile", "cus"]
            and r.get("phases_run") == ["detect", "rank"]
            for r in flat
        )
        cases.append(case)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "bench": "store",
        "workloads": list(STORE_BENCH_WORKLOADS),
        "keys": keys,
        "reference_ok": reference_ok,
        "reference_seconds": ref_seconds,
        "cases": cases,
        "all_stores_identical": all(c["store_identical"] for c in cases),
        "all_rows_ok": all(c["rows_ok"] for c in cases),
        "all_exits_ok": all(c["exits_ok"] for c in cases),
        "healed_corruptions": sum(c["healed"] for c in cases),
        "torn_reads": sum(c["torn_reads"] for c in cases),
        "deduped_total": sum(c["deduped"] for c in cases),
        "lock_waits": sum(c["lock_waits"] for c in cases),
        "lock_steals": sum(c["lock_steals"] for c in cases),
        "min_concurrent_writers": min(c["writers"] for c in cases),
        "computed_once": all(
            c.get("computed_once", True) for c in cases
        ),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "quick": quick,
        "seed": seed,
    }


def format_store_table(result: dict) -> str:
    """Fixed-width rendering in the benchmarks/out house style."""
    header = (
        f"{'schedule':<18} {'wr':>3} {'rows':>4} {'ok':>3} {'ident':>5} "
        f"{'heal':>4} {'torn':>4} {'dedup':>5} {'waits':>5} {'steal':>5} "
        f"{'s':>6}"
    )
    lines = [header, "-" * len(header)]
    for case in result["cases"]:
        lines.append(
            f"{case['schedule']:<18} {case['writers']:>3} "
            f"{case['rows']:>4} {'y' if case['rows_ok'] else 'N':>3} "
            f"{'y' if case['store_identical'] else 'N':>5} "
            f"{case['healed']:>4} {case['torn_reads']:>4} "
            f"{case['deduped']:>5} {case['lock_waits']:>5} "
            f"{case['lock_steals']:>5} {case['seconds']:>6.2f}"
        )
    lines.append(
        f"{len(result['cases'])} schedules over "
        f"{'+'.join(result['workloads'])}; stores "
        f"{'identical' if result['all_stores_identical'] else 'MISMATCHED'}; "
        f"healed {result['healed_corruptions']} corruptions; "
        f"{result['torn_reads']} torn reads; "
        f"{result['deduped_total']} deduped jobs, "
        f"{result['lock_waits']} lock waits, "
        f"{result['lock_steals']} steals"
    )
    return "\n".join(lines)
