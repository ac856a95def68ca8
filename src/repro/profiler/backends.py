"""The profiler backend: the engine's detection sink, built from config.

The profiler is one algorithm with three independent properties, each
set by its own :class:`~repro.engine.config.DiscoveryConfig` field:
signature shadow memory (§2.3.2, ``signature_slots``), address-sharded
consumption (§2.3.3, ``detect="sharded"``: worker processes behind
shared-memory slabs) and loop skipping (§2.4, ``skip_loops``).
:class:`SerialBackend` builds the core those fields select, times it as
a VM chunk sink, and hands back one :class:`BackendResult` from
:meth:`~SerialBackend.finish`.

The in-process §2.3.3 producer/consumer reproduction,
:class:`~repro.profiler.parallel.ParallelProfiler`, is built directly
by the Chapter-2 benches and its tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.profiler.deps import DependenceStore
from repro.profiler.serial import ControlRecord, SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.vectorized import VectorizedProfiler


@dataclass
class BackendResult:
    """What :meth:`SerialBackend.finish` hands back."""

    store: DependenceStore
    control: dict[int, ControlRecord] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


class SerialBackend:
    """Serial profiling: one consumer, optional signature + skipping.

    ``detect`` selects the detection core: ``"vectorized"`` (the
    segmented-scan core of :mod:`repro.profiler.vectorized`, the
    default), ``"loop"`` (the per-event reference walk), or
    ``"sharded"`` (the multi-process address-sharded core of
    :mod:`repro.profiler.sharded`; ``detect_workers`` worker
    processes, optional ``detect_sampling`` lossy mode).  All exact
    cores build bit-identical stores; the §2.4 skipping filter is an
    inherently per-event state machine, so ``skip_loops`` always runs
    the loop core underneath.
    """

    def __init__(
        self,
        *,
        signature_slots: Optional[int] = None,
        skip_loops: bool = False,
        detect: str = "vectorized",
        detect_workers: int = 4,
        detect_sampling: Optional[float] = None,
        resilience: Optional[dict] = None,
        fault_plan: Optional[dict] = None,
    ) -> None:
        if detect not in ("loop", "vectorized", "sharded"):
            raise ValueError(
                f"unknown detection core {detect!r} "
                "(expected 'loop', 'vectorized', or 'sharded')"
            )
        if skip_loops:
            detect = "loop"
        self.detect = detect
        if detect == "sharded":
            from repro.profiler.sharded import ShardedDetector

            self.profiler = ShardedDetector(
                signature_slots,
                n_shards=detect_workers,
                sampling=detect_sampling,
                policy=resilience,
                faults=fault_plan,
            )
        elif resilience or fault_plan is not None:
            raise ValueError(
                "resilience / fault_plan options apply to the sharded "
                "detection core only"
            )
        elif detect == "vectorized":
            self.profiler = VectorizedProfiler(signature_slots)
        else:
            shadow = (
                PerfectShadow()
                if signature_slots is None
                else SignatureShadow(signature_slots)
            )
            self.profiler = SerialProfiler(shadow)
        self.sink = self.profiler
        if skip_loops:
            from repro.profiler.skipping import SkippingProfiler

            self.sink = SkippingProfiler(self.profiler)
        self.skip_loops = skip_loops
        self.detect_seconds = 0.0
        self.detect_events = 0
        self._tracer = None

    def attach_obs(self, tracer, metrics) -> None:
        """Adopt the engine's observability bundle (obs on only).

        A sharded profiler inherits both so the detector can span slab
        shipments, absorb worker span buffers, and merge worker metrics.
        """
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
        if self.detect == "sharded":
            self.profiler.attach_obs(tracer, metrics)

    def __call__(self, chunk) -> None:
        t0 = time.perf_counter()
        if self._tracer is not None:
            with self._tracer.span(
                "detect.batch", "detect", n_events=len(chunk)
            ):
                self.sink(chunk)
        else:
            self.sink(chunk)
        self.detect_seconds += time.perf_counter() - t0
        self.detect_events += len(chunk)

    def finish(self) -> BackendResult:
        profiler = self.profiler
        if self.detect == "sharded":
            # joins the workers and merges shard stores + frontiers;
            # billed as detection time (the workers were scanning)
            t0 = time.perf_counter()
            profiler.finalize()
            self.detect_seconds += time.perf_counter() - t0
            collisions = profiler.collisions
        elif self.detect == "vectorized":
            t0 = time.perf_counter()
            profiler.flush()
            self.detect_seconds += time.perf_counter() - t0
            collisions = profiler.collisions
        else:
            collisions = profiler.shadow.collisions
        stats = {
            "detect": self.detect,
            "detect_seconds": self.detect_seconds,
            "detect_events_per_sec": (
                self.detect_events / self.detect_seconds
                if self.detect_seconds > 0
                else 0.0
            ),
            "reads": profiler.stats.reads,
            "writes": profiler.stats.writes,
            "accesses": profiler.stats.accesses,
            "deps": len(profiler.store),
            "raw_occurrences": profiler.store.raw_occurrences,
            "evictions": profiler.stats.evictions,
            "shadow_collisions": collisions,
        }
        if self.detect == "sharded":
            stats["detect_workers"] = profiler.n_shards
            stats["shipped_events"] = profiler.shipped_events
            if profiler.sampler is not None:
                stats["detect_sampling"] = profiler.sampler.rate
                stats["sampled_events"] = profiler.sampler.kept_events
        if self.skip_loops:
            stats["skipped"] = self.sink.stats.skipped
        return BackendResult(
            store=profiler.store, control=profiler.control, stats=stats
        )
