"""Detection at scale: vectorized against sharded on a synthetic stream.

The stream (:class:`benchmarks.suites.synth.SyntheticStream`) is
generated one chunk at a time, so the input never resides in memory:
peak RSS is detector state plus one chunk whatever the stream length
(the out-of-core claim, recorded as RSS deltas).  The sharded speedup
gate holds only where the host has a CPU per worker, since a host with
fewer cannot show process parallelism; the measured ratio and the CPU
count are recorded either way.
"""

from __future__ import annotations

import os
import resource

from repro.profiler.deps import store_accuracy
from repro.profiler.sharded import ShardedDetector
from repro.profiler.vectorized import VectorizedProfiler

from benchmarks.suites.method import measure
from benchmarks.suites.synth import SyntheticStream

#: (events, sharded workers): the CI smoke size and the 10⁸-event point
QUICK = (2_000_000, 2)
FULL = (100_000_000, 4)
SAMPLING = 0.25
LEGS = ("vectorized", "sharded", "sampled")


def _rss_kb(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


def _leg(stream, make, probes: list):
    """Time ``make()``'s detector over the stream; every run appends its
    (RSS before, RSS after) to ``probes``."""
    def setup():
        detector = make()

        def run():
            before = _rss_kb()
            for chunk in stream.iter_chunks():
                detector.process_chunk(chunk)
            if isinstance(detector, ShardedDetector):
                detector.finalize()
            else:
                detector.flush()
            probes.append((before, _rss_kb()))
            return detector
        return run
    return setup


def run(quick: bool) -> dict:
    n_events, workers = QUICK if quick else FULL
    stream = SyntheticStream(n_events)
    makers = {
        "vectorized": VectorizedProfiler,
        "sharded": lambda: ShardedDetector(n_shards=workers),
        "sampled": lambda: ShardedDetector(
            n_shards=workers, sampling=SAMPLING
        ),
    }
    probes: dict = {leg: [] for leg in LEGS}
    # one round: a full-size leg runs for minutes
    samples, results = measure(
        {leg: _leg(stream, makers[leg], probes[leg]) for leg in LEGS}, 1
    )
    result: dict = {
        "n_events": stream.n_events,
        "workers": workers,
        "cpus": len(os.sched_getaffinity(0)),
    }
    for leg in LEGS:
        wall = samples[leg][0]
        # the first run of each leg is its warm-up; the vectorized leg's
        # runs first in the process, so its delta is the detector's peak
        before, after = probes[leg][0]
        result[leg] = {
            "detect_seconds": wall,
            "events_per_sec": stream.n_events / wall,
            "deps": len(results[leg].store),
            "memory_bytes": results[leg].memory_bytes(),
            "ru_maxrss_delta_kb": max(0, after - before),
        }
    exact = results["vectorized"].store
    # worker processes are children: their peak RSS lands here
    result["sharded"]["children_maxrss_kb"] = _rss_kb(resource.RUSAGE_CHILDREN)
    result["store_identical"] = (
        results["sharded"].store.to_dict() == exact.to_dict()
    )
    result["sharded_speedup"] = samples["vectorized"][0] / samples["sharded"][0]
    result["sampled"].update(
        rate=SAMPLING,
        shipped_events=results["sampled"].shipped_events,
        **store_accuracy(results["sampled"].store, exact),
    )
    return result


def rows(result: dict) -> list:
    return [dict(result[leg], leg=leg) for leg in LEGS]


COLUMNS = (
    ("leg", lambda r: r["leg"]),
    ("seconds", lambda r: f"{r['detect_seconds']:.2f}"),
    ("events/s", lambda r: f"{r['events_per_sec']:.0f}"),
)

GATES = (
    ("store_identical", lambda r: r["store_identical"]),
    ("sampled.precision", lambda r: r["sampled"]["precision"] >= 0.95),
    ("sampled.recall", lambda r: r["sampled"]["recall"] >= 0.95),
    ("sharded_speedup",
     lambda r: r["cpus"] < r["workers"] or r["sharded_speedup"] >= 2.5),
)
