"""Unified observability: span tracing, metrics, self-profiling.

One subsystem answers "where does the pipeline's own time and memory
go?" across every layer — engine phases, VM execution windows,
detection batches, sharded-worker lifecycles, ParallelVM worker ticks,
and batch jobs:

* :mod:`repro.obs.trace` — nested span recording on ring-buffered
  lanes, merged across processes onto one timeline, exported as Chrome
  trace-event JSON (Perfetto-loadable).
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms behind a
  registry whose snapshot rides on ``DiscoveryResult.metrics``.
* :mod:`repro.obs.selfprof` — flame-style aggregates over the tracer:
  a deterministic span fold (:func:`~repro.obs.selfprof.hotness`) and
  a sampling wall-clock profiler.

Depth is selected by ``DiscoveryConfig.obs``:

``"off"``
    Nothing is recorded.  Instrumentation sites guard on a single
    attribute (or on ``tracer is None``), so the pipeline takes the
    pre-observability code path; the obs bench suite
    (``python -m benchmarks.suites obs``) measures the residual cost
    and gates it at ≤ 2 %.
``"metrics"``
    The metrics registry records; the tracer stays disabled.
``"trace"``
    Metrics plus span tracing (and the self-profiling aggregates on
    the assembled result).

:class:`ObsSession` is the per-run bundle the engine owns and threads
down: the mode, one tracer, one registry.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics_table,
)
from repro.obs.selfprof import SamplingProfiler, hotness
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer

#: valid DiscoveryConfig.obs values, shallow to deep
OBS_MODES = ("off", "metrics", "trace")


class ObsSession:
    """One run's observability state: mode + tracer + metrics registry.

    ``obs.tracer`` is always a :class:`Tracer` (disabled unless the
    mode is ``"trace"``) and ``obs.metrics`` is ``None`` unless the
    mode records metrics — call sites pick the guard that matches the
    cost they are protecting.
    """

    __slots__ = ("mode", "tracer", "metrics")

    def __init__(self, mode: str = "off") -> None:
        if mode not in OBS_MODES:
            raise ValueError(
                f"unknown obs mode {mode!r} (expected one of "
                f"{', '.join(OBS_MODES)})"
            )
        self.mode = mode
        self.tracer = Tracer(enabled=(mode == "trace"))
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if mode != "off" else None
        )

    @property
    def active(self) -> bool:
        return self.mode != "off"

    def snapshot(self) -> dict:
        """The metrics snapshot ({} when metrics are off)."""
        return self.metrics.snapshot() if self.metrics is not None else {}


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "OBS_MODES",
    "ObsSession",
    "SamplingProfiler",
    "Tracer",
    "format_metrics_table",
    "hotness",
]
