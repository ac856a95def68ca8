"""Per-layer attribution, recorded from outside the program.

During a traced round every entry of :data:`TARGETS` is replaced by a
wrapper that records one span per call in the round's own
:class:`repro.obs.Tracer`, and the originals are put back when the round
ends.  Nothing under ``src/`` knows about it.  :meth:`Recorder.fold`
turns the spans into per-layer numbers with :func:`repro.obs.hotness`:
a layer's time is the self time of its spans (its duration minus the
wrapped calls nested in it), so the layers never double-count.

Module-level functions are wrapped where :mod:`repro.engine.core` (or
the batch runner) looks them up; methods are wrapped on their class, so
``runtime.vm`` covers every ``VM.run``: the profiling run and the
sequential reference of the validate phase.  The parallel validation
runs are ``ParallelVM.run`` and stay inside ``parallelize.validate``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict

from repro.obs import Tracer, hotness

ALL = ("kernels-large", "apps-tasks", "python-suite", "batch-corpus")
DISCOVER = ALL[:3]
BATCH = ALL[3:]

#: (span, module, attribute, workloads on which the span must record a
#: call).  A wrapper that records nothing where it is expected, or whose
#: target is gone, fails the coverage guard: a refactor detached it.
TARGETS = (
    ("engine.profile", "repro.engine.core", "DiscoveryEngine.profile", ALL),
    ("engine.build_cus", "repro.engine.core", "DiscoveryEngine.build_cus",
     ALL),
    ("engine.detect", "repro.engine.core", "DiscoveryEngine.detect", ALL),
    ("engine.rank", "repro.engine.core", "DiscoveryEngine.rank", ALL),
    ("engine.parallelize", "repro.engine.core",
     "DiscoveryEngine.parallelize", DISCOVER),
    ("engine.validate", "repro.engine.core", "DiscoveryEngine.validate",
     DISCOVER),
    ("frontend.compile", "repro.engine.core", "compile_source",
     ("kernels-large", "apps-tasks", "batch-corpus")),
    ("frontend.compile", "repro.frontend.lowering", "compile_python_source",
     ("python-suite",)),
    ("runtime.vm", "repro.engine.core", "VM.run", ALL),
    ("profiler.detect", "repro.profiler.backends", "SerialBackend.__call__",
     ALL),
    ("profiler.detect", "repro.profiler.backends", "SerialBackend.finish",
     ALL),
    ("profiler.pet", "repro.engine.core", "PETBuilder.process_chunk", ALL),
    ("cu.topdown", "repro.engine.core", "TopDownBuilder.process_chunks",
     ALL),
    ("cu.topdown", "repro.engine.core", "TopDownBuilder.build", ALL),
    ("discovery.anchored", "repro.engine.core",
     "SerialProfiler.process_chunk", ALL),
    ("cu.graph", "repro.engine.core", "build_cu_graph", ALL),
    ("discovery.spmd", "repro.engine.core", "find_spmd_tasks", ALL),
    ("discovery.mpmd", "repro.engine.core", "find_mpmd_tasks", ALL),
    ("discovery.loops", "repro.engine.core", "analyze_loops", ALL),
    ("parallelize.plan", "repro.engine.core", "build_transform_plan",
     DISCOVER),
    ("parallelize.seq_ref", "repro.engine.core", "run_sequential_reference",
     DISCOVER),
    ("parallelize.validate", "repro.engine.core", "validate_plan", DISCOVER),
    ("simulate.iteration_costs", "repro.engine.core",
     "collect_iteration_costs", DISCOVER),
    ("engine.batch", "repro.engine.batch", "run_batch", BATCH),
    ("engine.job", "repro.engine.batch", "run_job", BATCH),
    ("engine.checkpoint_save", "repro.engine.checkpoint",
     "JobCheckpoint.save_phases", BATCH),
    ("engine.checkpoint_save", "repro.engine.checkpoint",
     "JobCheckpoint.save_result", BATCH),
    ("engine.checkpoint_load", "repro.engine.checkpoint",
     "JobCheckpoint.load_result", BATCH),
    ("store.put", "repro.store.core", "ArtifactStore.put_file", BATCH),
    ("store.read", "repro.store.core", "ArtifactStore.read_text", BATCH),
    ("store.lock_wait", "repro.store.locks", "KeyLock.acquire", BATCH),
)

PHASES = ("profile", "build_cus", "detect", "rank", "parallelize",
          "validate")
_PHASE_SPANS = frozenset(f"engine.{p}" for p in PHASES)

#: per-layer metric -> span whose self time it reports
SELF_TIME = {
    "frontend.compile_s": "frontend.compile",
    "runtime.vm_self_s": "runtime.vm",
    "profiler.detect_s": "profiler.detect",
    "profiler.pet_s": "profiler.pet",
    "cu.topdown_s": "cu.topdown",
    "discovery.anchored_s": "discovery.anchored",
    "cu.graph_s": "cu.graph",
    "discovery.spmd_s": "discovery.spmd",
    "discovery.mpmd_s": "discovery.mpmd",
    "discovery.loops_s": "discovery.loops",
    "parallelize.plan_s": "parallelize.plan",
    "parallelize.seq_ref_s": "parallelize.seq_ref",
    "parallelize.validate_s": "parallelize.validate",
    "simulate.iteration_costs_s": "simulate.iteration_costs",
    "engine.checkpoint_save_s": "engine.checkpoint_save",
    "engine.checkpoint_load_s": "engine.checkpoint_load",
    "store.put_s": "store.put",
    "store.read_s": "store.read",
    "store.lock_wait_s": "store.lock_wait",
}

#: spans whose self time no other per-layer metric reports: the
#: benchmark's own round/program spans and the batch runner around its
#: jobs.  Together they are ``engine.other_s``, so the reported times
#: partition the traced round.
UNATTRIBUTED_SPANS = ("bench.round", "bench.program", "engine.batch",
                      "engine.job")


def _resolve(module: str, attr: str):
    """(owner, name, original) of a wrapper target, or None when gone.

    A method must be defined on the named class itself, so that putting
    the original back restores exactly what was there.
    """
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    namespace = vars(owner)
    if name not in namespace:
        return None
    return owner, name, namespace[name]


class Recorder:
    """Spans and layer counts of one traced round."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.tracer = Tracer(enabled=True, process_label="e2e-bench")
        #: calls recorded per target
        self.calls = {target: 0 for target in targets}
        #: "module:attribute" of targets that no longer exist
        self.missing: list = []
        self.counts: dict = defaultdict(float)
        #: events of the trace the anchored walks are replaying
        self._trace_events = 0

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for target in self.targets:
                _span, module, attr, _workloads = target
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}:{attr}")
                    continue
                owner, name, original = found
                setattr(owner, name, self._wrap(target, original))
                undo.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _wrap(self, target, fn):
        span, _module, attr, _workloads = target
        tracer, calls = self.tracer, self.calls
        pre, post = _HOOKS.get(attr, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[target] += 1
            before = pre(args) if pre is not None else None
            with tracer.span(span, "layer"):
                out = fn(*args, **kwargs)
            if post is not None:
                post(self, args, out, before)
            return out

        return wrapper

    # -- count hooks: read the layer's own return values ----------------

    def _on_profile(self, args, artifact, runs_before) -> None:
        if args[0].vm_runs == runs_before:
            return  # served from the engine's phase cache
        stats = artifact.stats
        counts = self.counts
        counts["runtime.events"] += stats["trace_events"]
        counts["runtime.steps"] += stats["vm_steps"]
        counts["vm_wall"] += stats["vm_wall_seconds"]
        counts["runtime.trace_mb"] = max(
            counts["runtime.trace_mb"], stats["trace_nbytes"] / 2**20
        )
        counts["profiler.deps"] += stats["deps"]
        counts["profiler.raw_occurrences"] += stats["raw_occurrences"]
        self._trace_events = stats["trace_events"]

    def _on_cus(self, _args, registry, _before) -> None:
        self.counts["cu.count"] += len(registry.all_cus)

    def _on_anchored(self, _args, _out, _before) -> None:
        # the anchored walk replays the whole trace once per container
        self.counts["discovery.containers"] += 1
        self.counts["discovery.anchored_events"] += self._trace_events

    def _on_loops(self, _args, loops, _before) -> None:
        self.counts["discovery.suggestions"] += sum(
            1 for info in loops if info.is_parallelizable
        )

    def _on_validate(self, _args, reports, _before) -> None:
        counts = self.counts
        for report in reports:
            if report.feasible:
                counts["parallelize.feasible"] += 1
                counts["identical"] += report.identical
                counts["parallelize.pvm_ticks"] += report.scheduler.get(
                    "ticks", 0)
                counts["parallelize.pvm_steals"] += report.scheduler.get(
                    "steals", 0)

    # -- results ---------------------------------------------------------

    def fold(self) -> dict:
        """Per-layer values of the round (times in seconds)."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        # an engine phase owns everything under it except nested phases
        # (validate calls parallelize; detect re-enters the cached profile)
        phase_s: dict = defaultdict(float)
        for path, entry in hotness(self.tracer)["flame"].items():
            parent, _, leaf = path.rpartition(";")
            self_s[leaf] += entry["self_ns"] / 1e9
            calls[leaf] += entry["count"]
            if leaf in _PHASE_SPANS:
                total = entry["total_ns"] / 1e9
                phase_s[leaf] += total
                parent_leaf = parent.rpartition(";")[2]
                if parent_leaf in _PHASE_SPANS:
                    phase_s[parent_leaf] -= total
        counts = self.counts
        feasible = counts["parallelize.feasible"]
        values = {
            f"engine.{p}_s": phase_s[f"engine.{p}"] for p in PHASES
        }
        values.update(
            {metric: self_s[span] for metric, span in SELF_TIME.items()}
        )
        for name in ("runtime.events", "runtime.steps", "runtime.trace_mb",
                     "profiler.deps", "profiler.raw_occurrences",
                     "cu.count", "discovery.containers",
                     "discovery.anchored_events", "discovery.suggestions",
                     "parallelize.feasible", "parallelize.pvm_ticks",
                     "parallelize.pvm_steals"):
            values[name] = counts[name]
        values["runtime.events_per_s"] = (
            counts["runtime.events"] / counts["vm_wall"]
            if counts["vm_wall"] else 0.0
        )
        values["parallelize.identical_frac"] = (
            counts["identical"] / feasible if feasible else 0.0
        )
        values["store.put_calls"] = calls["store.put"]
        values["engine.other_s"] = sum(self_s[s] for s in UNATTRIBUTED_SPANS)
        values["bench.spans_dropped"] = sum(
            lane[4] for lane in self.tracer.ship()
        )
        return values


def coverage_failures(recorders, workload: str) -> list:
    """Guard messages: targets gone, or silent in every traced round of a
    workload they are declared for."""
    missing = sorted({name for rec in recorders for name in rec.missing})
    failures = [f"wrapper target missing: {name}" for name in missing]
    for target in recorders[0].targets:
        span, module, attr, workloads = target
        if (
            workload in workloads
            and f"{module}:{attr}" not in missing
            and not any(rec.calls[target] for rec in recorders)
        ):
            failures.append(
                f"span {span} ({module}:{attr}) recorded no call "
                f"on {workload}"
            )
    return failures


_HOOKS = {
    "DiscoveryEngine.profile": (
        lambda args: args[0].vm_runs, Recorder._on_profile,
    ),
    "TopDownBuilder.build": (None, Recorder._on_cus),
    "SerialProfiler.process_chunk": (None, Recorder._on_anchored),
    "analyze_loops": (None, Recorder._on_loops),
    "validate_plan": (None, Recorder._on_validate),
}
