"""Detection-core suite: the vectorized scans against the loop reference.

Per workload, one recorded trace runs through the loop and vectorized
cores (the stores must be bit-identical) and the engine's ``profile()``
phase runs once per core.  Each core's detector reports the bytes it
holds; an untimed tracemalloc pass gives the vectorized core's peak.
The multi-process sharded core rides along (its store must equal the
vectorized one), and so does its lossy sampling mode, scored against
the exact store.
"""

from __future__ import annotations

import tracemalloc

from repro.engine.config import DiscoveryConfig
from repro.engine.core import DiscoveryEngine
from repro.profiler.deps import store_accuracy
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.profiler.sharded import ShardedDetector
from repro.profiler.vectorized import VectorizedProfiler
from repro.runtime.events import TraceSink
from repro.runtime.interpreter import VM
from repro.workloads import get_workload

from benchmarks.suites.method import (
    fmt_ratio, geomean, measure, ratio, rounds_for, summary,
)

#: loop nests whose profile cost is detection bound (one textbook, one
#: NAS, one apps-chapter program); their geomeans are gated
WORKLOADS = ("matmul", "CG", "mandelbrot")
#: reported, not gated: deep recursion is eviction- and frontier-churn
#: bound, the detection core's least favourable regime
EXTRA = ("fft",)
#: larger than the other suites' scale 1: detection throughput is the
#: scaling story, and sub-100k-event traces mostly measure fixed costs
SCALE = 2
CHUNK_SIZE = 4096
SHARDED_WORKERS = 2
SAMPLING = 0.25
CORES = ("loop", "vectorized")


def _detector(core: str, **kwargs):
    if core == "loop":
        return SerialProfiler(PerfectShadow())
    if core == "vectorized":
        return VectorizedProfiler()
    return ShardedDetector(n_shards=SHARDED_WORKERS, **kwargs)


def _finish(detector) -> None:
    if isinstance(detector, ShardedDetector):
        detector.finalize()
    elif isinstance(detector, VectorizedProfiler):
        detector.flush()


def _detect(chunks: list, core: str, **kwargs):
    def setup():
        detector = _detector(core, **kwargs)

        def run():
            for chunk in chunks:
                detector.process_chunk(chunk)
            _finish(detector)
            return detector
        return run
    return setup


def _profile(workload, core):
    def setup():
        engine = DiscoveryEngine(config=DiscoveryConfig(
            source=workload.source(SCALE), name=workload.name,
            entry=workload.entry, detect=core,
        ))
        return engine.profile
    return setup


def _peak_tracemalloc_bytes(chunks: list) -> int:
    """One untimed vectorized pass under tracemalloc, whose hooks would
    distort a timed sample.  The loop core gets none: its per-event walk
    runs ~17x slower under the hooks."""
    detector = VectorizedProfiler()
    tracemalloc.start()
    for chunk in chunks:
        detector.process_chunk(chunk)
    detector.flush()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def bench_workload(name: str, rounds: int, gated: bool) -> dict:
    workload = get_workload(name)
    trace = TraceSink()
    VM(workload.compile(SCALE), trace, chunk_size=CHUNK_SIZE).run(
        workload.entry
    )
    events = len(trace)
    # widened once, outside every timed leg
    chunks = list(trace.iter_chunks())
    samples, results = measure(
        {core: _detect(chunks, core) for core in CORES}, rounds
    )
    row: dict = {"workload": name, "gated": gated, "events": events}
    for core in CORES:
        wall = summary(samples[core])
        store = results[core].store
        row[core] = {
            "detect": wall,
            "events_per_sec": events / wall["median"],
            "deps": len(store),
            "raw_occurrences": store.raw_occurrences,
            "memory_bytes": results[core].memory_bytes(),
        }
    row["vectorized"]["peak_tracemalloc_bytes"] = _peak_tracemalloc_bytes(
        chunks
    )
    exact = results["vectorized"].store
    row["stores_identical"] = results["loop"].store.to_dict() == exact.to_dict()
    row["detect_speedup"] = ratio(samples, "loop", "vectorized")

    samples, results = measure(
        {core: _profile(workload, core) for core in CORES}, rounds
    )
    row["profile"] = {core: summary(samples[core]) for core in CORES}
    row["profile"]["speedup"] = ratio(samples, "loop", "vectorized")
    row["profile"]["stores_identical"] = (
        results["loop"].store.to_dict()
        == results["vectorized"].store.to_dict()
    )

    # reported, not gated: on one hot trace the fork and IPC overhead is
    # what the sharded numbers show
    samples, results = measure({
        "sharded": _detect(chunks, "sharded"),
        "sampled": _detect(chunks, "sampled", sampling=SAMPLING),
    }, 1)
    sharded, sampled = results["sharded"], results["sampled"]
    row["sharded"] = {
        "workers": SHARDED_WORKERS,
        "detect": summary(samples["sharded"]),
        "events_per_sec": events / samples["sharded"][0],
        "deps": len(sharded.store),
        "store_identical": sharded.store.to_dict() == exact.to_dict(),
        "memory_bytes": sharded.memory_bytes(),
    }
    row["sampled"] = {
        "workers": SHARDED_WORKERS,
        "rate": SAMPLING,
        "detect": summary(samples["sampled"]),
        "events_per_sec": events / samples["sampled"][0],
        "shipped_events": sampled.shipped_events,
        **store_accuracy(sampled.store, exact),
    }
    return row


def run(quick: bool) -> dict:
    rounds = rounds_for(quick)
    rows = [bench_workload(name, rounds, True) for name in WORKLOADS]
    rows += [bench_workload(name, rounds, False) for name in EXTRA]
    gated = [r for r in rows if r["gated"]]
    detect = [r["detect_speedup"]["median"] for r in gated]
    return {
        "workloads": rows,
        "gated": list(WORKLOADS),
        "detect_speedup_geomean": geomean(detect),
        "detect_speedup_min": min(detect),
        "profile_speedup_geomean": geomean(
            [r["profile"]["speedup"]["median"] for r in gated]
        ),
        "all_stores_identical": all(
            r["stores_identical"] and r["profile"]["stores_identical"]
            for r in rows
        ),
        "sharded_workers": SHARDED_WORKERS,
        "sharded_all_identical": all(
            r["sharded"]["store_identical"] for r in rows
        ),
        "sampling_rate": SAMPLING,
        "sampling_precision_min": min(r["sampled"]["precision"] for r in rows),
        "sampling_recall_min": min(r["sampled"]["recall"] for r in rows),
    }


def rows(result: dict) -> list:
    return result["workloads"]


COLUMNS = (
    ("workload", lambda r: r["workload"]),
    ("events", lambda r: r["events"]),
    ("loop eps", lambda r: f"{r['loop']['events_per_sec']:.0f}"),
    ("vec eps", lambda r: f"{r['vectorized']['events_per_sec']:.0f}"),
    ("shard eps", lambda r: f"{r['sharded']['events_per_sec']:.0f}"),
    ("detect", lambda r: fmt_ratio(r["detect_speedup"])),
    ("profile", lambda r: fmt_ratio(r["profile"]["speedup"])),
    ("identical", lambda r: r["stores_identical"]),
    ("sharded", lambda r: r["sharded"]["store_identical"]),
    ("precision", lambda r: f"{r['sampled']['precision']:.3f}"),
    ("recall", lambda r: f"{r['sampled']['recall']:.3f}"),
    ("gated", lambda r: r["gated"]),
)

GATES = (
    ("all_stores_identical", lambda r: r["all_stores_identical"]),
    ("detect_speedup_geomean", lambda r: r["detect_speedup_geomean"] >= 3.0),
    # profile() also records the trace on the VM, which no detection
    # core speeds up, so its floor is lower
    ("profile_speedup_geomean",
     lambda r: r["profile_speedup_geomean"] >= 1.5),
    ("sharded_all_identical", lambda r: r["sharded_all_identical"]),
    ("sampling_precision_min",
     lambda r: r["sampling_precision_min"] >= 0.95),
    ("sampling_recall_min", lambda r: r["sampling_recall_min"] >= 0.95),
)
