"""Profiler backends behind one name table.

The profiler grew a matrix of execution strategies — serial vs. parallel
consumption, perfect vs. signature shadow memory, §2.4 skipping on or off —
that callers previously wired by hand (pick a shadow, wrap a skipping
filter, remember which attribute carries the control records).
:class:`ProfilerBackend` unifies them: a backend is a VM chunk sink with a
``finish()`` that returns one :class:`BackendResult`, and :data:`BACKENDS`
maps the names exposed by ``DiscoveryConfig.backend`` / ``repro discover
--backend`` onto constructors.

Built-in names:

``serial``
    :class:`~repro.profiler.serial.SerialProfiler`; ``signature_slots``
    selects the shadow, ``skip_loops`` wraps the §2.4 filter.
``signature``
    serial with a :class:`~repro.profiler.shadow.SignatureShadow`
    (``signature_slots`` defaults to :data:`DEFAULT_SIGNATURE_SLOTS`).
``skipping``
    serial with the skipping filter forced on.
``parallel``
    the §2.3.3 producer/consumer profiler (``n_workers`` shards,
    vectorized ``addr % W`` partitioning on columnar chunks).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.profiler.deps import DependenceStore
from repro.profiler.parallel import ParallelProfiler
from repro.profiler.serial import ControlRecord, SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.sharded import ShardedDetector
from repro.profiler.skipping import SkippingProfiler
from repro.profiler.vectorized import VectorizedProfiler

#: signature size used when the ``signature`` backend is selected without
#: an explicit ``signature_slots``
DEFAULT_SIGNATURE_SLOTS = 1 << 16


@dataclass
class BackendResult:
    """What every backend hands back from :meth:`ProfilerBackend.finish`."""

    store: DependenceStore
    control: dict[int, ControlRecord] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    #: backend-specific extras (skip stats, parallel report, ...)
    extras: dict = field(default_factory=dict)


@runtime_checkable
class ProfilerBackend(Protocol):
    """A VM chunk sink that can be finished into a :class:`BackendResult`."""

    name: str

    def __call__(self, chunk) -> None: ...

    def finish(self) -> BackendResult: ...

    def memory_bytes(self) -> int: ...


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
        lifetime_analysis: bool = True,
        detect: str = "vectorized",
        detect_workers: int = 4,
        detect_sampling: Optional[float] = None,
        resilience: Optional[dict] = None,
        fault_plan: Optional[dict] = None,
        name: str = "serial",
    ) -> None:
        if detect not in ("loop", "vectorized", "sharded"):
            raise ValueError(
                f"unknown detection core {detect!r} "
                "(expected 'loop', 'vectorized', or 'sharded')"
            )
        if skip_loops:
            detect = "loop"
        self.name = name
        self.detect = detect
        self.detect_workers = detect_workers
        self.detect_sampling = detect_sampling
        if detect == "sharded":
            self.profiler = ShardedDetector(
                signature_slots,
                n_shards=detect_workers,
                sampling=detect_sampling,
                lifetime_analysis=lifetime_analysis,
                policy=resilience,
                faults=fault_plan,
            )
        elif resilience or fault_plan is not None:
            raise ValueError(
                "resilience / fault_plan options apply to the sharded "
                "detection core only"
            )
        elif detect == "vectorized":
            self.profiler = VectorizedProfiler(
                signature_slots, lifetime_analysis=lifetime_analysis
            )
        else:
            shadow = (
                PerfectShadow()
                if signature_slots is None
                else SignatureShadow(signature_slots)
            )
            self.profiler = SerialProfiler(
                shadow, lifetime_analysis=lifetime_analysis
            )
        self.sink = (
            SkippingProfiler(self.profiler) if skip_loops else self.profiler
        )
        self.skip_loops = skip_loops
        self.detect_seconds = 0.0
        self.detect_events = 0
        self._tracer = None
        self._batches = None
        self._batch_events = None

    def attach_obs(self, tracer, metrics) -> None:
        """Adopt the engine's observability bundle (obs on only).

        A sharded profiler inherits both so the detector can span slab
        shipments, absorb worker span buffers, and merge worker metrics.
        """
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
        if metrics is not None:
            self._batches = metrics.counter(
                "detect.batches", "event chunks fed to the detection core"
            )
            self._batch_events = metrics.histogram(
                "detect.batch_events", "events per detection chunk"
            )
        if isinstance(self.profiler, ShardedDetector):
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
        if self._batches is not None:
            self._batches.inc()
            self._batch_events.observe(len(chunk))

    def finish(self) -> BackendResult:
        profiler = self.profiler
        if isinstance(profiler, ShardedDetector):
            # joins the workers and merges shard stores + frontiers;
            # billed as detection time (the workers were scanning)
            t0 = time.perf_counter()
            profiler.finalize()
            self.detect_seconds += time.perf_counter() - t0
            collisions = profiler.collisions
        elif isinstance(profiler, VectorizedProfiler):
            t0 = time.perf_counter()
            profiler.flush()
            self.detect_seconds += time.perf_counter() - t0
            collisions = profiler.collisions
        else:
            collisions = profiler.shadow.collisions
        stats = {
            "backend": self.name,
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
        if isinstance(profiler, ShardedDetector):
            stats["detect_workers"] = profiler.n_shards
            stats["shipped_events"] = profiler.shipped_events
            if profiler.sampler is not None:
                stats["detect_sampling"] = profiler.sampler.rate
                stats["sampled_events"] = profiler.sampler.kept_events
        extras: dict = {}
        if self.skip_loops:
            extras["skip_stats"] = self.sink.stats
            stats["skipped"] = self.sink.stats.skipped
        return BackendResult(
            store=profiler.store,
            control=profiler.control,
            stats=stats,
            extras=extras,
        )

    def memory_bytes(self) -> int:
        return self.sink.memory_bytes()


class ParallelBackend:
    """Sharded profiling (§2.3.3) behind the unified interface."""

    def __init__(
        self,
        *,
        signature_slots: Optional[int] = None,
        skip_loops: bool = False,
        n_workers: int = 8,
        queue_kind: str = "spsc",
        mode: str = "simulated",
        lifetime_analysis: bool = True,
        detect: str = "vectorized",
        name: str = "parallel",
    ) -> None:
        if skip_loops:
            # the skipping filter runs producer-side, before sharding
            raise ValueError(
                "skip_loops is not supported by the parallel backend yet; "
                "wrap the serial backend instead"
            )
        self.name = name
        self.detect = detect
        self.profiler = ParallelProfiler(
            n_workers,
            signature_slots=signature_slots,
            queue_kind=queue_kind,
            mode=mode,
            lifetime_analysis=lifetime_analysis,
            detect=detect,
        )
        self.detect_seconds = 0.0
        self.detect_events = 0
        self._result: Optional[BackendResult] = None
        self._tracer = None
        self._batches = None
        self._batch_events = None

    def attach_obs(self, tracer, metrics) -> None:
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
        if metrics is not None:
            self._batches = metrics.counter(
                "detect.batches", "event chunks fed to the detection core"
            )
            self._batch_events = metrics.histogram(
                "detect.batch_events", "events per detection chunk"
            )

    def __call__(self, chunk) -> None:
        t0 = time.perf_counter()
        if self._tracer is not None:
            with self._tracer.span(
                "detect.batch", "detect", n_events=len(chunk)
            ):
                self.profiler.process_chunk(chunk)
        else:
            self.profiler.process_chunk(chunk)
        self.detect_seconds += time.perf_counter() - t0
        self.detect_events += len(chunk)
        if self._batches is not None:
            self._batches.inc()
            self._batch_events.observe(len(chunk))

    def finish(self) -> BackendResult:
        if self._result is None:
            t0 = time.perf_counter()
            store = self.profiler.finish()
            finish_wall = time.perf_counter() - t0
            report = self.profiler.report
            # finish() drains the vectorized workers' staged batches —
            # detection work; only the final map merge is merge time
            self.detect_seconds += max(
                0.0, finish_wall - report.merge_seconds
            )
            reads = sum(w.stats.reads for w in self.profiler.workers)
            writes = sum(w.stats.writes for w in self.profiler.workers)
            self._result = BackendResult(
                store=store,
                control=self.profiler.control,
                stats={
                    "backend": self.name,
                    "detect": self.detect,
                    "detect_seconds": self.detect_seconds,
                    "detect_events_per_sec": (
                        self.detect_events / self.detect_seconds
                        if self.detect_seconds > 0
                        else 0.0
                    ),
                    "reads": reads,
                    "writes": writes,
                    "accesses": reads + writes,
                    "deps": len(store),
                    "raw_occurrences": store.raw_occurrences,
                    "n_workers": report.n_workers,
                    "load_imbalance": report.load_imbalance,
                    "shadow_collisions": sum(
                        w.collisions
                        if isinstance(w, VectorizedProfiler)
                        else w.shadow.collisions
                        for w in self.profiler.workers
                    ),
                },
                extras={"report": report},
            )
        return self._result

    def memory_bytes(self) -> int:
        return self.profiler.memory_bytes()


def _serial(**options) -> SerialBackend:
    return SerialBackend(name="serial", **options)


def _signature(**options) -> SerialBackend:
    options.setdefault("signature_slots", DEFAULT_SIGNATURE_SLOTS)
    return SerialBackend(name="signature", **options)


def _skipping(**options) -> SerialBackend:
    options["skip_loops"] = True
    return SerialBackend(name="skipping", **options)


def _parallel(**options) -> ParallelBackend:
    return ParallelBackend(name="parallel", **options)


#: backend name -> factory(options dict) -> ProfilerBackend
BACKENDS: dict[str, Callable[..., ProfilerBackend]] = {
    "serial": _serial,
    "signature": _signature,
    "skipping": _skipping,
    "parallel": _parallel,
}


def make_backend(name: str, **options) -> ProfilerBackend:
    """Instantiate a backend by name.

    Unknown options are rejected by the backend constructor, keeping
    config typos loud.
    """
    factory = BACKENDS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown profiler backend {name!r} "
            f"(one of: {', '.join(sorted(BACKENDS))})"
        )
    return factory(**options)
