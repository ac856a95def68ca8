"""Discovery configuration.

:class:`DiscoveryConfig` replaces the loose keyword soup (``entry``,
``n_threads``, ``signature_slots``, ``vm_kwargs``, ...) that the old
monolithic ``discover()`` call threaded through every layer.  A config is a
plain value object: JSON-serializable, hashable enough to key batch runs,
and safe to ship across process boundaries for the batch runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class DiscoveryConfig:
    """Everything a :class:`~repro.engine.core.DiscoveryEngine` run needs.

    ``source`` is optional — an engine can also be built from an
    already-compiled :class:`~repro.mir.module.Module` — but batch workers
    and ``from_dict`` round-trips carry the source text so a config alone
    fully describes a run.
    """

    #: source text (optional when a compiled Module is supplied)
    source: Optional[str] = None
    #: source language the text is lowered with: "minic" | "python"
    frontend: str = "minic"
    #: original source file path (diagnostics / result provenance)
    source_path: Optional[str] = None
    #: first line of ``source`` within the original file — analyze()
    #: extracts function bodies, so lowered line numbers keep pointing at
    #: the real file position
    source_firstline: int = 1
    #: display name for reports / batch rows
    name: str = "<source>"
    #: entry function executed by the profiling VM
    entry: str = "main"
    #: thread count assumed by the ranking phase
    n_threads: int = 4
    #: signature shadow size; None selects the exact PerfectShadow baseline
    signature_slots: Optional[int] = None
    #: enable the §2.4 skipping optimization in the profiler
    skip_loops: bool = False
    #: keep the full event trace on the assembled DiscoveryResult
    keep_trace: bool = False
    #: VM random seed (convenience; folded into vm_kwargs)
    seed: Optional[int] = None
    #: profiler backend name (see :mod:`repro.profiler.backends`):
    #: serial | signature | skipping | parallel | any other BACKENDS key
    backend: str = "serial"
    #: extra backend constructor options (n_workers, queue_kind, ...)
    backend_options: dict = field(default_factory=dict)
    #: VM execution core: "compiled" (closure-specialized dispatch with
    #: fused superinstructions, see :mod:`repro.runtime.compile`) or
    #: "switch" (the bit-exact string-dispatch reference loop)
    dispatch: str = "compiled"
    #: dependence detection core: "vectorized" (segmented numpy scans,
    #: see :mod:`repro.profiler.vectorized`), "loop" (the bit-exact
    #: per-event reference walk), or "sharded" (multi-process address
    #: sharding, see :mod:`repro.profiler.sharded`)
    detect: str = "vectorized"
    #: worker processes of the sharded detection core
    detect_workers: int = 4
    #: sharded-core lossy mode: keep roughly this fraction of memory
    #: events (deterministic, stratified per region/line); None = exact
    detect_sampling: Optional[float] = None
    #: bound trace memory: spill all but the newest chunks to disk
    spill_trace: bool = False
    #: resident chunk window of the spilling sink
    max_resident_chunks: int = 64
    #: where spill segments go (None = a private temp dir)
    spill_dir: Optional[str] = None
    #: spill segment format: True = compressed .npz (smaller), False =
    #: raw .npy (mmap-able zero-copy by the sharded detection workers)
    spill_compress: bool = True
    #: extra VM constructor keywords (quantum, instrument, ...)
    vm_kwargs: dict = field(default_factory=dict)
    #: worker-pool width of the parallelize/validate phases
    n_workers: int = 4
    #: run the parallelize + validate phases as part of ``run()`` and
    #: attach ValidationReports (and the prediction error) to the result
    validate: bool = False
    #: steps one worker executes per scheduler tick
    parallel_quantum: int = 256
    #: observability depth (see :mod:`repro.obs`): "off" records
    #: nothing, "metrics" fills DiscoveryResult.metrics, "trace" adds
    #: span tracing + self-profiling (export with ``repro trace``)
    obs: str = "off"
    #: supervision knobs for the sharded detection core, as a
    #: :meth:`repro.resilience.RetryPolicy.to_dict` mapping (attempt
    #: budgets, seeded backoff, done/join/hang timeout budgets); empty =
    #: the RetryPolicy defaults.  See docs/RESILIENCE.md.
    resilience: dict = field(default_factory=dict)
    #: test-only deterministic fault schedule, as a
    #: :meth:`repro.resilience.FaultPlan.to_dict` mapping; None (the
    #: production value) injects nothing
    fault_plan: Optional[dict] = None

    def replace(self, **changes) -> "DiscoveryConfig":
        """A copy with the given fields changed (dataclasses.replace)."""
        return replace(self, **changes)

    def resolved_vm_kwargs(self) -> dict:
        kwargs = dict(self.vm_kwargs)
        if self.seed is not None:
            kwargs.setdefault("seed", self.seed)
        kwargs.setdefault("dispatch", self.dispatch)
        return kwargs

    def resolved_backend_options(self) -> dict:
        """Backend constructor options implied by this config.

        ``skip_loops`` is forwarded to every backend so an unsupported
        combination (e.g. ``parallel`` + skipping) fails loudly instead
        of silently running without the optimization.
        """
        options = dict(self.backend_options)
        if self.signature_slots is not None:
            options.setdefault("signature_slots", self.signature_slots)
        if self.skip_loops:
            options.setdefault("skip_loops", True)
        if self.detect != "vectorized":
            # non-default only, like the options above: the built-in
            # backends already default to the vectorized core, and a
            # custom BACKENDS entry without a ``detect`` kwarg must
            # keep working under a default config
            options.setdefault("detect", self.detect)
        if self.detect == "sharded":
            options.setdefault("detect_workers", self.detect_workers)
            if self.detect_sampling is not None:
                options.setdefault("detect_sampling", self.detect_sampling)
            if self.resilience:
                options.setdefault("resilience", dict(self.resilience))
            if self.fault_plan is not None:
                options.setdefault("fault_plan", dict(self.fault_plan))
        return options

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "frontend": self.frontend,
            "source_path": self.source_path,
            "source_firstline": self.source_firstline,
            "name": self.name,
            "entry": self.entry,
            "n_threads": self.n_threads,
            "signature_slots": self.signature_slots,
            "skip_loops": self.skip_loops,
            "keep_trace": self.keep_trace,
            "seed": self.seed,
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
            "dispatch": self.dispatch,
            "detect": self.detect,
            "detect_workers": self.detect_workers,
            "detect_sampling": self.detect_sampling,
            "spill_trace": self.spill_trace,
            "max_resident_chunks": self.max_resident_chunks,
            "spill_dir": self.spill_dir,
            "spill_compress": self.spill_compress,
            "vm_kwargs": dict(self.vm_kwargs),
            "n_workers": self.n_workers,
            "validate": self.validate,
            "parallel_quantum": self.parallel_quantum,
            "obs": self.obs,
            "resilience": dict(self.resilience),
            "fault_plan": (
                dict(self.fault_plan) if self.fault_plan is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscoveryConfig":
        return cls(
            source=data.get("source"),
            frontend=data.get("frontend", "minic"),
            source_path=data.get("source_path"),
            source_firstline=data.get("source_firstline", 1),
            name=data.get("name", "<source>"),
            entry=data.get("entry", "main"),
            n_threads=data.get("n_threads", 4),
            signature_slots=data.get("signature_slots"),
            skip_loops=data.get("skip_loops", False),
            keep_trace=data.get("keep_trace", False),
            seed=data.get("seed"),
            backend=data.get("backend", "serial"),
            backend_options=dict(data.get("backend_options") or {}),
            dispatch=data.get("dispatch", "compiled"),
            detect=data.get("detect", "vectorized"),
            detect_workers=data.get("detect_workers", 4),
            detect_sampling=data.get("detect_sampling"),
            spill_trace=data.get("spill_trace", False),
            max_resident_chunks=data.get("max_resident_chunks", 64),
            spill_dir=data.get("spill_dir"),
            spill_compress=data.get("spill_compress", True),
            vm_kwargs=dict(data.get("vm_kwargs") or {}),
            n_workers=data.get("n_workers", 4),
            validate=data.get("validate", False),
            parallel_quantum=data.get("parallel_quantum", 256),
            obs=data.get("obs", "off"),
            resilience=dict(data.get("resilience") or {}),
            fault_plan=(
                dict(data["fault_plan"])
                if data.get("fault_plan") is not None
                else None
            ),
        )
