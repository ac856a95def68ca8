"""The staged discovery engine (Fig. 1.3, re-entrant).

The paper's pipeline is conceptually staged — profile → CU construction →
detection → ranking — and :class:`DiscoveryEngine` exposes exactly those
stages as independently runnable, cached phases:

* :meth:`DiscoveryEngine.profile`   — Phase 1: execute the instrumented VM,
  collect the trace, merged dependences and the PET.  The only phase that
  runs the program; ``vm_runs`` counts its executions.
* :meth:`DiscoveryEngine.build_cus` — Phase 2a: top-down CU construction
  over the recorded trace.
* :meth:`DiscoveryEngine.detect`    — Phase 2b: loop classification (DOALL /
  DOACROSS) and SPMD/MPMD task detection per container.
* :meth:`DiscoveryEngine.rank`      — Phase 3: score + order suggestions for
  a thread count.  Cheap: re-ranking for a new ``n_threads`` reuses every
  cached upstream phase without re-executing the VM.
* :meth:`DiscoveryEngine.parallelize` — Phase 4: transform ranked DOALL
  loops and MPMD task graphs into executable parallel form
  (:class:`~repro.parallelize.plan.TransformPlan`).
* :meth:`DiscoveryEngine.validate`  — Phase 5: execute each transform on the
  work-stealing scheduler and compare against the sequential run
  (:class:`~repro.engine.artifacts.ValidationArtifact`); these runs count in
  ``validation_runs``, not ``vm_runs``.

Each phase returns a typed artifact (:mod:`repro.engine.artifacts`) and
caches it on the engine; ``force=True`` re-runs a phase and invalidates its
downstream caches.  :meth:`DiscoveryEngine.run` assembles the classic
:class:`~repro.engine.artifacts.DiscoveryResult`.
"""

from __future__ import annotations

from typing import Optional

from repro.cu.graph import build_cu_graph, container_cus
from repro.cu.topdown import TopDownBuilder
from repro.discovery.lifting import anchor_events
from repro.discovery.loops import analyze_loops
from repro.discovery.ranking import (
    RankingScores,
    rank_suggestions,
    score_loop,
    score_task_graph,
)
from repro.discovery.suggestions import Suggestion
from repro.discovery.tasks import call_sites, find_mpmd_tasks, find_spmd_tasks
from repro.engine.artifacts import (
    CUArtifact,
    DetectArtifact,
    DiscoveryResult,
    FunctionTaskAnalysis,
    ProfileArtifact,
    RankArtifact,
    ValidationArtifact,
)
from repro.engine.config import DiscoveryConfig
from repro.mir.lowering import compile_source
from repro.mir.module import Module
from repro.obs import ObsSession
from repro.parallelize import (
    build_transform_plan,
    run_sequential_reference,
    validate_plan,
)
from repro.profiler.backends import make_backend
from repro.profiler.pet import PETBuilder
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.events import SpillingTraceSink, TraceSink, add_line_counts
from repro.runtime.interpreter import VM
from repro.simulate.exec_model import collect_iteration_costs

#: a task graph must promise at least this inherent speedup to be suggested
MPMD_MIN_SPEEDUP = 1.2
#: and represent at least this fraction of the program's work
MPMD_MIN_COVERAGE = 0.01


def compile_config_source(config: DiscoveryConfig) -> Module:
    """Compile ``config.source`` with the frontend the config selects."""
    if config.frontend == "python":
        from repro.frontend.lowering import compile_python_source

        return compile_python_source(
            config.source,
            name=config.name,
            filename=config.source_path or "<python>",
            first_line=config.source_firstline,
        )
    if config.frontend != "minic":
        raise ValueError(
            f"unknown frontend {config.frontend!r} (expected minic|python)"
        )
    return compile_source(config.source, name=config.name)


class DiscoveryEngine:
    """Staged, re-entrant front door to the discovery pipeline."""

    def __init__(
        self,
        module: Optional[Module] = None,
        config: Optional[DiscoveryConfig] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = DiscoveryConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        if module is None:
            if config.source is None:
                raise ValueError(
                    "DiscoveryEngine needs a compiled module or a config "
                    "with source text"
                )
            module = compile_config_source(config)
        self.module = module
        #: number of instrumented VM executions (the expensive phase)
        self.vm_runs = 0
        #: number of validation executions (sequential reference + one
        #: parallel run per feasible transform)
        self.validation_runs = 0
        #: accumulated wall seconds per phase (re-entrant phases add up)
        self.timings: dict[str, float] = {}
        #: per-phase {count, total, last} behind the totals above
        self.timing_detail: dict[str, dict] = {}
        #: per-run observability bundle (mode, tracer, metrics)
        self.obs = ObsSession(config.obs)
        #: test-only deterministic fault schedule (config.fault_plan);
        #: None in production.  ``fault_attempt`` is matched against
        #: ``FaultEvent.gen`` so a resumed/retried run (attempt 1+) sails
        #: past the faults that crashed attempt 0.
        self._faults = None
        self.fault_attempt = 0
        if config.fault_plan is not None:
            from repro.resilience import FaultPlan

            self._faults = FaultPlan.from_dict(config.fault_plan)
        self._profile: Optional[ProfileArtifact] = None
        self._cus: Optional[CUArtifact] = None
        self._detect: Optional[DetectArtifact] = None
        self._rank: Optional[RankArtifact] = None
        self._transform = None
        self._validate: Optional[ValidationArtifact] = None
        #: cached sequential reference run (module/entry/vm_kwargs are
        #: fixed per engine, so one uninstrumented run serves every
        #: worker-count sweep)
        self._seq_ref = None

    @classmethod
    def from_source(cls, source: str, **overrides) -> "DiscoveryEngine":
        """Build an engine straight from MiniC source text."""
        return cls(config=DiscoveryConfig(source=source, **overrides))

    def _check_fault(self, phase: str) -> None:
        """Raise an injected ``raise_in_phase`` fault if one is due."""
        if self._faults is not None:
            self._faults.check_phase(phase, attempt=self.fault_attempt)

    def adopt(
        self,
        *,
        profile: Optional[ProfileArtifact] = None,
        cus: Optional[CUArtifact] = None,
        detect: Optional[DetectArtifact] = None,
        rank: Optional[RankArtifact] = None,
    ) -> None:
        """Install previously computed phase artifacts (checkpoint resume).

        Artifacts must form a prefix of the phase chain — adopting a
        downstream artifact without its upstream inputs would let a
        later ``force=True`` silently recompute from nothing.  The batch
        runner restores a crashed job this way and re-enters at the
        first missing phase; adopted phases never count in ``vm_runs``
        or ``timings``.
        """
        chain = [
            ("profile", profile), ("cus", cus),
            ("detect", detect), ("rank", rank),
        ]
        seen_gap = False
        for name, artifact in chain:
            if artifact is None:
                seen_gap = True
            elif seen_gap:
                raise ValueError(
                    f"adopt() artifacts must form a phase prefix: "
                    f"{name!r} supplied but an upstream phase is missing"
                )
        if profile is not None:
            self._profile = profile
        if cus is not None:
            self._cus = cus
        if detect is not None:
            self._detect = detect
        if rank is not None:
            self._rank = rank

    def _record_timing(self, phase: str, wall: float) -> None:
        """Accumulate a phase wall time (re-entrant phases add, not clobber).

        ``timings[phase]`` stays the float *total* for backward compat;
        ``timing_detail[phase]`` carries count/total/last so a forced
        re-run is distinguishable from a single slow one.
        """
        detail = self.timing_detail.get(phase)
        if detail is None:
            detail = self.timing_detail[phase] = {
                "count": 0, "total": 0.0, "last": 0.0,
            }
        detail["count"] += 1
        detail["total"] += wall
        detail["last"] = wall
        self.timings[phase] = detail["total"]

    def _wrap_tee(self, inner):
        """Observe each VM execution window flowing through the tee.

        Per-window, not per-event: one span / histogram update per chunk
        keeps the instrumented overhead proportional to chunk count.
        """
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        windows = window_events = None
        if metrics is not None:
            windows = metrics.counter(
                "vm.windows", "execution windows shipped through the tee"
            )
            window_events = metrics.histogram(
                "vm.window_events", "events per execution window"
            )

        def tee(chunk) -> None:
            n = len(chunk)
            if tracer.enabled:
                with tracer.span("vm.window", "vm", n_events=n):
                    inner(chunk)
            else:
                inner(chunk)
            if windows is not None:
                windows.inc()
                window_events.observe(n)

        return tee

    # ------------------------------------------------------------------
    # Phase 1: profile
    # ------------------------------------------------------------------

    def profile(self, *, force: bool = False) -> ProfileArtifact:
        """Execute the instrumented VM once; cache trace + dependences."""
        if self._profile is None or force:
            import time as _time

            self._check_fault("profile")
            t0 = _time.perf_counter()
            with self.obs.tracer.span("phase.profile", "engine"):
                self._profile = self._run_profile()
            self._record_timing("profile", _time.perf_counter() - t0)
            self._cus = self._detect = self._rank = None
            self._transform = self._validate = None
        return self._profile

    def _run_profile(self) -> ProfileArtifact:
        config = self.config
        if config.spill_trace:
            trace = SpillingTraceSink(
                config.max_resident_chunks,
                spill_dir=config.spill_dir,
                compress=config.spill_compress,
            )
        else:
            trace = TraceSink()
        backend = make_backend(
            config.backend, **config.resolved_backend_options()
        )
        pet = PETBuilder()

        def tee(chunk) -> None:
            trace(chunk)
            backend(chunk)
            pet.process_chunk(chunk)

        if self.obs.active:
            tee = self._wrap_tee(tee)
            attach = getattr(backend, "attach_obs", None)
            if attach is not None:
                attach(self.obs.tracer, self.obs.metrics)

        vm = VM(self.module, tee, **config.resolved_vm_kwargs())
        self.vm_runs += 1
        import time as _time

        t0 = _time.perf_counter()
        with self.obs.tracer.span("vm.run", "vm", entry=config.entry):
            return_value = vm.run(config.entry)
        vm_wall = _time.perf_counter() - t0
        # per-variant wall time: the instrumented execution (event
        # staging and sink processing included) under the core that ran
        self._record_timing(f"vm_{vm.dispatch}", vm_wall)
        result = backend.finish()
        stats = dict(result.stats)
        stats["dispatch"] = vm.dispatch
        # source provenance: which frontend lowered the module and where
        # the text came from, serialized with the result like dispatch/
        # detect so downstream consumers can map lines back to the file
        stats["frontend"] = config.frontend
        stats["source_file"] = config.source_path
        stats["source_firstline"] = config.source_firstline
        stats["vm_wall_seconds"] = vm_wall
        stats["vm_events_per_sec"] = (
            trace.n_events / vm_wall if vm_wall > 0 else 0.0
        )
        stats["vm_steps"] = vm.total_steps
        stats["trace_events"] = trace.n_events
        stats["trace_nbytes"] = trace.nbytes
        if self.obs.metrics is not None:
            m = self.obs.metrics
            m.counter(
                "engine.vm_runs", "instrumented VM executions"
            ).inc()
            m.counter(
                "engine.vm_steps", "interpreter/compiled steps executed"
            ).inc(vm.total_steps)
            m.counter(
                "engine.trace_events", "runtime events recorded"
            ).inc(trace.n_events)
            m.gauge(
                "engine.trace_nbytes", "bytes held by the trace sink"
            ).set(trace.nbytes)
            deps = stats.get("deps")
            raw = stats.get("raw_occurrences")
            if deps is not None:
                m.gauge("detect.deps", "merged dependence edges").set(deps)
            if raw is not None and deps:
                m.gauge("detect.raw_occurrences",
                        "pre-merge dependence occurrences").set(raw)
                m.gauge(
                    "detect.dedup_ratio",
                    "raw occurrences per merged dependence",
                ).set(round(raw / deps, 4))
        if isinstance(trace, SpillingTraceSink):
            stats["spilled_chunks"] = trace.n_spilled_chunks
            stats["spilled_bytes"] = trace.spilled_bytes
        return ProfileArtifact(
            return_value=return_value,
            store=result.store,
            control=result.control,
            stats=stats,
            module=self.module,
            trace=trace,
            pet=pet,
            backend_result=result,
        )

    # ------------------------------------------------------------------
    # Phase 2a: CU construction
    # ------------------------------------------------------------------

    def build_cus(self, *, force: bool = False) -> CUArtifact:
        """Top-down CU construction over the cached trace.

        Walks the trace chunk-wise: a spilling sink re-reads its segments
        lazily, so the full trace never needs to be resident.
        """
        if self._cus is None or force:
            import time as _time

            self._check_fault("cus")
            profile = self.profile()
            t0 = _time.perf_counter()
            with self.obs.tracer.span("phase.build_cus", "engine"):
                builder = TopDownBuilder(self.module)
                builder.process_chunks(profile.trace.iter_chunks())
                registry = builder.build()
            self._cus = CUArtifact(
                registry=registry,
                line_counts=builder.line_counts,
                total_instructions=sum(builder.line_counts.values()),
            )
            if self.obs.metrics is not None:
                self.obs.metrics.gauge(
                    "engine.cus", "computational units constructed"
                ).set(len(registry.all_cus))
            self._record_timing("build_cus", _time.perf_counter() - t0)
            self._detect = self._rank = None
            self._transform = self._validate = None
        return self._cus

    # ------------------------------------------------------------------
    # Phase 2b: detection
    # ------------------------------------------------------------------

    def detect(self, *, force: bool = False) -> DetectArtifact:
        """Loop classification + per-container task detection."""
        if self._detect is None or force:
            import time as _time

            self._check_fault("detect")
            profile = self.profile()
            cus = self.build_cus()
            t0 = _time.perf_counter()
            self.obs.tracer.begin("phase.detect", "engine")
            module = self.module
            registry = cus.registry

            loops = analyze_loops(
                module,
                profile.store,
                registry,
                profile.control,
                cus.line_counts,
            )

            functions: dict[str, FunctionTaskAnalysis] = {}
            for name, func in module.functions.items():
                region = module.regions.get(func.region_id)
                if region is None or region.region_id not in registry.by_region:
                    continue  # never executed
                functions[name] = self._analyze_container(name, region)

            # loop bodies containing call sites are task containers too (the
            # FaceDetection frame loop of Fig. 4.10 is the canonical case)
            loop_tasks: dict[int, FunctionTaskAnalysis] = {}
            for region in module.loops():
                if region.region_id not in registry.by_region:
                    continue
                if not call_sites(module, region):
                    continue
                loop_tasks[region.region_id] = self._analyze_container(
                    region.func, region
                )

            self._detect = DetectArtifact(
                loops=loops, functions=functions, loop_tasks=loop_tasks
            )
            self.obs.tracer.end()
            if self.obs.metrics is not None:
                m = self.obs.metrics
                m.gauge("detect.loops", "loops classified").set(len(loops))
                m.gauge(
                    "detect.task_containers",
                    "functions + loop bodies analyzed for tasks",
                ).set(len(functions) + len(loop_tasks))
            self._record_timing("detect", _time.perf_counter() - t0)
            self._rank = None
            self._transform = self._validate = None
        return self._detect

    def _analyze_container(self, name: str, region) -> FunctionTaskAnalysis:
        profile = self.profile()
        cus = self.build_cus()
        module = self.module
        anchored_prof = SerialProfiler(PerfectShadow())
        # anchored line counts attribute a call's entire dynamic subtree to
        # its call site — the work a task node really carries
        anchored_counts: dict[int, int] = {}
        trace = profile.trace.iter_chunks()
        for chunk in anchor_events(trace, module, region):
            anchored_prof.process_chunk(chunk)
            add_line_counts(anchored_counts, chunk)
        # each call site becomes its own CU: calls are the task units
        call_lines = frozenset(call_sites(module, region))
        graph = build_cu_graph(
            cus.registry,
            anchored_prof.store,
            module,
            region,
            isolate_lines=call_lines,
            line_counts=anchored_counts,
        )
        return FunctionTaskAnalysis(
            func=name,
            region_id=region.region_id,
            anchored_store=anchored_prof.store,
            cu_graph=graph,
            spmd_groups=find_spmd_tasks(
                module, region, graph, anchored_prof.store
            ),
            task_graph=find_mpmd_tasks(graph, region),
        )

    # ------------------------------------------------------------------
    # Phase 3: ranking
    # ------------------------------------------------------------------

    def rank(
        self, n_threads: Optional[int] = None, *, force: bool = False
    ) -> RankArtifact:
        """Score and order suggestions; cheap to re-run per thread count.

        With no ``n_threads``, an existing cached ranking is reused
        whatever its thread count — downstream phases (parallelize,
        validate) depend on *the* current ranking, not on a particular
        count — so ``run(n_threads=8)`` validates against the 8-thread
        suggestions it returns.
        """
        if n_threads is None and self._rank is not None and not force:
            return self._rank
        n = n_threads if n_threads is not None else self.config.n_threads
        if self._rank is None or force or self._rank.n_threads != n:
            import time as _time

            self._check_fault("rank")
            t0 = _time.perf_counter()
            with self.obs.tracer.span("phase.rank", "engine", n_threads=n):
                self._rank = self._run_rank(n)
            if self.obs.metrics is not None:
                self.obs.metrics.gauge(
                    "rank.suggestions", "ranked parallelization suggestions"
                ).set(len(self._rank.suggestions))
            self._record_timing("rank", _time.perf_counter() - t0)
            self._transform = self._validate = None
        return self._rank

    def _run_rank(self, n_threads: int) -> RankArtifact:
        cus = self.build_cus()
        detect = self.detect()
        module = self.module
        registry = cus.registry
        total_instructions = cus.total_instructions

        suggestions: list[Suggestion] = []
        for info in detect.loops:
            if not info.is_parallelizable:
                continue
            region = module.regions[info.region_id]
            body_work = [
                cu.instructions
                for cu in container_cus(
                    registry, module, region, cus.line_counts
                )
            ]
            scores = score_loop(
                info, total_instructions, n_threads, body_work
            )
            suggestions.append(
                Suggestion(
                    kind=info.classification,
                    func=info.func,
                    start_line=info.start_line,
                    end_line=info.end_line,
                    scores=scores,
                    loop=info,
                )
            )
        analyses = list(detect.functions.values()) + list(
            detect.loop_tasks.values()
        )
        for analysis in analyses:
            region = module.regions[analysis.region_id]
            for group in analysis.spmd_groups:
                if not group.independent:
                    continue
                scores = RankingScores(
                    instruction_coverage=min(
                        1.0,
                        sum(
                            analysis.cu_graph.cu(c).instructions
                            for c in group.cu_ids
                        )
                        / max(1, total_instructions),
                    ),
                    local_speedup=float(
                        min(n_threads, len(group.call_lines))
                    ),
                    cu_imbalance=0.0,
                )
                suggestions.append(
                    Suggestion(
                        kind="SPMD",
                        func=analysis.func,
                        start_line=min(group.call_lines),
                        end_line=max(group.call_lines),
                        scores=scores,
                        spmd=group,
                    )
                )
            tg = analysis.task_graph
            if tg is not None and tg.width >= 2 and len(tg.nodes) >= 2:
                scores = score_task_graph(tg, total_instructions, n_threads)
                if (
                    tg.inherent_speedup >= MPMD_MIN_SPEEDUP
                    and scores.instruction_coverage >= MPMD_MIN_COVERAGE
                ):
                    suggestions.append(
                        Suggestion(
                            kind="MPMD",
                            func=analysis.func,
                            start_line=region.start_line,
                            end_line=region.end_line,
                            scores=scores,
                            task_graph=tg,
                        )
                    )

        return RankArtifact(
            n_threads=n_threads, suggestions=rank_suggestions(suggestions)
        )

    # ------------------------------------------------------------------
    # Phase 4: parallelize (suggestion-driven MIR transforms)
    # ------------------------------------------------------------------

    def parallelize(
        self, n_workers: Optional[int] = None, *, force: bool = False
    ):
        """Transform ranked DOALL/MPMD suggestions into parallel form.

        Returns the :class:`~repro.parallelize.plan.TransformPlan`: per
        suggestion either the chunking/outlining recipe plus a transformed
        module clone, or the reason the transform was declined.  Attaches a
        ``transform`` summary to each planned suggestion.
        """
        workers = n_workers if n_workers is not None else self.config.n_workers
        if (
            self._transform is None
            or force
            or self._transform.n_workers != workers
        ):
            import time as _time

            profile = self.profile()
            ranked = self.rank()
            t0 = _time.perf_counter()
            with self.obs.tracer.span(
                "phase.parallelize", "engine", n_workers=workers
            ):
                self._transform = build_transform_plan(
                    self.module,
                    ranked.suggestions,
                    profile.control,
                    n_workers=workers,
                    name=self.config.name,
                )
            if self.obs.metrics is not None:
                self.obs.metrics.gauge(
                    "parallelize.feasible",
                    "suggestions transformed into runnable plans",
                ).set(len(self._transform.feasible_entries))
            self._record_timing("parallelize", _time.perf_counter() - t0)
            self._validate = None
        return self._transform

    # ------------------------------------------------------------------
    # Phase 5: validate (execute transforms, compare, measure)
    # ------------------------------------------------------------------

    def validate(
        self, n_workers: Optional[int] = None, *, force: bool = False
    ) -> ValidationArtifact:
        """Execute every feasible transform and validate it bit-for-bit."""
        workers = n_workers if n_workers is not None else self.config.n_workers
        if (
            self._validate is None
            or force
            or self._validate.n_workers != workers
        ):
            import time as _time

            plan = self.parallelize(workers)
            ranked = self.rank()
            vm_kwargs = self.config.resolved_vm_kwargs()
            t0 = _time.perf_counter()
            self.obs.tracer.begin("phase.validate", "engine")
            if self._seq_ref is None:
                with self.obs.tracer.span("seq.reference", "vm"):
                    self._seq_ref = run_sequential_reference(
                        self.module, entry=self.config.entry, **vm_kwargs
                    )
                self.validation_runs += 1
            # per-iteration cost profiles of the DOALL regions, from the
            # cached trace (one scan for every region): the exec model
            # then predicts with the real chunk work distribution
            # instead of a uniform estimate
            profile = self.profile()
            iteration_costs = collect_iteration_costs(
                profile.trace,
                {
                    entry.region_id
                    for entry in plan.feasible_entries
                    if getattr(entry, "chunks", None)
                },
            )
            reports = validate_plan(
                self.module,
                plan,
                n_workers=workers,
                entry=self.config.entry,
                suggestions=ranked.suggestions,
                quantum=self.config.parallel_quantum,
                vm_kwargs=vm_kwargs,
                seq=self._seq_ref,
                iteration_costs=iteration_costs,
                tracer=(
                    self.obs.tracer if self.obs.tracer.enabled else None
                ),
            )
            self.validation_runs += sum(1 for r in reports if r.feasible)
            self._validate = ValidationArtifact(
                n_workers=workers, reports=reports
            )
            self.obs.tracer.end()
            if self.obs.metrics is not None:
                m = self.obs.metrics
                for report in reports:
                    sched = getattr(report, "scheduler", None) or {}
                    for key in ("ticks", "steals", "tasks_forked"):
                        if key in sched:
                            m.counter(
                                f"pvm.{key}",
                                f"scheduler {key} across validation runs",
                            ).inc(sched[key])
            self._record_timing("validate", _time.perf_counter() - t0)
        return self._validate

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def run(self, n_threads: Optional[int] = None) -> DiscoveryResult:
        """Run (or reuse) every phase and assemble a DiscoveryResult."""
        sampler = None
        if self.obs.tracer.enabled:
            from repro.obs import SamplingProfiler

            sampler = SamplingProfiler(self.obs.tracer).start()
        try:
            profile = self.profile()
            cus = self.build_cus()
            detect = self.detect()
            ranked = self.rank(n_threads)
            validations = []
            prediction_error = None
            if self.config.validate:
                artifact = self.validate()
                validations = list(artifact.reports)
                prediction_error = artifact.mean_abs_prediction_error
        finally:
            if sampler is not None:
                sampler.stop()
        selfprof: dict = {}
        if self.obs.tracer.enabled:
            from repro.obs import hotness

            hot = hotness(self.obs.tracer)
            selfprof = {
                "phases": hot["phases"],
                "hottest": [list(row) for row in hot["hottest"]],
                "sampling": sampler.aggregates(),
            }
        return DiscoveryResult(
            module=self.module,
            return_value=profile.return_value,
            store=profile.store,
            control=profile.control,
            registry=cus.registry,
            line_counts=cus.line_counts,
            total_instructions=cus.total_instructions,
            loops=detect.loops,
            functions=detect.functions,
            suggestions=ranked.suggestions,
            pet=profile.pet,
            loop_tasks=detect.loop_tasks,
            trace=profile.trace if self.config.keep_trace else None,
            n_threads=ranked.n_threads,
            timings=dict(self.timings),
            timing_detail={
                phase: dict(detail)
                for phase, detail in self.timing_detail.items()
            },
            metrics=self.obs.snapshot(),
            selfprof=selfprof,
            profile_stats=dict(profile.stats),
            validations=validations,
            prediction_error=prediction_error,
        )
