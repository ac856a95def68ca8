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
* :mod:`repro.profiler.vectorized` / :mod:`repro.profiler.sharded` — the
  segmented-scan detection core and its multi-process address-sharded
  front end.
* :mod:`repro.profiler.backends` — :class:`SerialBackend`, the engine's
  detection sink, built from ``DiscoveryConfig.signature_slots``,
  ``skip_loops`` and ``detect``.

The skipping, parallel and report-format names are imported on first
use; :class:`SerialBackend` imports the sharded and skipping cores only
when the config selects them.
"""

from repro import _lazy_exports
from repro.profiler.backends import BackendResult, SerialBackend
from repro.profiler.deps import (
    DepKey,
    DepType,
    Dependence,
    DependenceStore,
)
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.serial import SerialProfiler
from repro.profiler.pet import PETBuilder, PETNode

__all__ = [
    "BackendResult",
    "SerialBackend",
    "DepKey",
    "DepType",
    "Dependence",
    "DependenceStore",
    "PerfectShadow",
    "SignatureShadow",
    "SerialProfiler",
    "SkippingProfiler",
    "SkipStats",
    "ParallelProfiler",
    "ParallelReport",
    "PETBuilder",
    "PETNode",
    "format_report",
    "parse_report",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "SkippingProfiler": "repro.profiler.skipping",
    "SkipStats": "repro.profiler.skipping",
    "ParallelProfiler": "repro.profiler.parallel",
    "ParallelReport": "repro.profiler.parallel",
    "format_report": "repro.profiler.reportfmt",
    "parse_report": "repro.profiler.reportfmt",
})
