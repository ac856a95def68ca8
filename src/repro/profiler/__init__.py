"""The DiscoPoP data-dependence profiler (Chapter 2).

Components:

* :mod:`repro.profiler.deps` — dependence records, runtime merging store
  (§2.3.5), text serialisation identity rules.
* :mod:`repro.profiler.shadow` — shadow-memory implementations: the exact
  ("perfect signature") baseline and the fixed-size signature (§2.3.2).
* :mod:`repro.profiler.serial` — the serial profiling algorithm
  (Algorithm 2) + control-structure tracking + variable lifetime analysis.
* :mod:`repro.profiler.skipping` — skipping repeatedly-executed memory
  operations in loops (§2.4) with its statistics.
* :mod:`repro.profiler.queues` — SPSC / MPSC queue variants (lock-based and
  lock-free-style) used by the parallel pipeline.
* :mod:`repro.profiler.parallel` — the producer/consumer parallel profiler
  (§2.3.3): address-sharded workers, hot-address redistribution, thread-mode
  for wall-clock runs and a deterministic mode with a calibrated cost model.
* :mod:`repro.profiler.races` — timestamp-inversion race flagging (§2.3.4).
* :mod:`repro.profiler.pet` — the Program Execution Tree (§2.3.6).
* :mod:`repro.profiler.reportfmt` — the NOM/BGN/END text format of Fig. 2.1.
* :mod:`repro.profiler.backends` — the backend table unifying the
  serial/parallel × perfect/signature × skipping matrix behind one
  interface, selected via ``DiscoveryConfig.backend``.
"""

from repro.profiler.backends import (
    BACKENDS,
    BackendResult,
    ParallelBackend,
    ProfilerBackend,
    SerialBackend,
    make_backend,
)
from repro.profiler.deps import (
    DepKey,
    DepType,
    Dependence,
    DependenceStore,
)
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.serial import SerialProfiler, profile_source
from repro.profiler.skipping import SkippingProfiler, SkipStats
from repro.profiler.parallel import ParallelProfiler, ParallelReport
from repro.profiler.pet import PETBuilder, PETNode
from repro.profiler.reportfmt import format_report, parse_report

__all__ = [
    "BACKENDS",
    "BackendResult",
    "ParallelBackend",
    "ProfilerBackend",
    "SerialBackend",
    "make_backend",
    "DepKey",
    "DepType",
    "Dependence",
    "DependenceStore",
    "PerfectShadow",
    "SignatureShadow",
    "SerialProfiler",
    "profile_source",
    "SkippingProfiler",
    "SkipStats",
    "ParallelProfiler",
    "ParallelReport",
    "PETBuilder",
    "PETNode",
    "format_report",
    "parse_report",
]
