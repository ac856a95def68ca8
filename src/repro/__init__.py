"""repro — a reproduction of *Discovery of Potential Parallelism in
Sequential Programs* (DiscoPoP: data-dependence profiler + computational
units + CU-based parallelism discovery).

Public API tour
---------------

The staged engine is the front door.  Phases run independently, cache
their artifacts, and cheap phases re-run against cached expensive ones::

    from repro import DiscoveryEngine

    engine = DiscoveryEngine.from_source(open("prog.mc").read())
    profile = engine.profile()      # Phase 1: the only VM execution
    cus     = engine.build_cus()    # Phase 2a: CU construction
    detect  = engine.detect()       # Phase 2b: loop + task detection
    ranked  = engine.rank()         # Phase 3: scored suggestions
    ranked8 = engine.rank(n_threads=8)   # re-rank WITHOUT re-profiling

    result = engine.run()           # assembled DiscoveryResult
    print(result.format_report())

Configuration is a value object instead of loose kwargs::

    from repro import DiscoveryConfig
    config = DiscoveryConfig(source=src, n_threads=8,
                             signature_slots=1 << 20, seed=7)
    result = DiscoveryEngine(config=config).run()

Every artifact — ``DiscoveryResult``, ``Suggestion``, ``LoopInfo``,
``TaskGraph``, ``SPMDTaskGroup``, ``RankingScores``, the phase artifacts —
round-trips through JSON::

    from repro.engine import save_artifact, load_artifact
    save_artifact(result, "out.json")
    same_report = load_artifact("out.json").format_report()

Batch analysis fans workloads across a process pool (also available as
``repro batch`` on the command line)::

    from repro.engine import job_for_workload, run_batch
    rows = run_batch([job_for_workload(n) for n in ("fib", "sort", "CG")])

Live Python functions analyze directly — no MiniC port needed
(:mod:`repro.frontend` lowers a typed Python subset to the same MIR)::

    import repro

    @repro.candidate
    def saxpy(x: list, y: list, a: float, n: int) -> float:
        for i in range(n):
            y[i] = a * x[i] + y[i]
        return y[0]

    result = repro.analyze(saxpy,
                           args=([1.0] * 64, [2.0] * 64, 3.0, 64))
    print(result.format_report())   # lines point at this file

The profiler alone, without the later phases: the VM streams event
chunks straight into it::

    from repro import VM, SerialProfiler, SignatureShadow, compile_source
    profiler = SerialProfiler(SignatureShadow(1 << 20))
    exit_value = VM(compile_source(source), profiler).run("main")
    profiler.store                  # the merged dependences

Lower-level layers are exposed as subpackages: :mod:`repro.minic` (the
C-like language), :mod:`repro.mir` (the LLVM-like IR), :mod:`repro.runtime`
(the instrumenting VM), :mod:`repro.profiler`, :mod:`repro.cu`,
:mod:`repro.discovery`, :mod:`repro.engine`, :mod:`repro.simulate`,
:mod:`repro.apps`, and :mod:`repro.workloads` (the benchmark suite with
ground truth).  The command line lives in :mod:`repro.cli` (``repro
profile|discover|report|batch``).
"""

from repro.mir.lowering import compile_source
from repro.runtime.interpreter import VM, run_source
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.parallel import ParallelProfiler
from repro.profiler.skipping import SkippingProfiler
from repro.profiler.reportfmt import format_report
from repro.cu import build_cu_graph, build_cus
from repro.engine import (
    DiscoveryConfig,
    DiscoveryEngine,
    DiscoveryResult,
    load_artifact,
    save_artifact,
)
from repro.frontend import (
    FrontendError,
    analyze,
    candidate,
    compile_python_source,
)

__version__ = "1.1.0"

__all__ = [
    "compile_source",
    "VM",
    "run_source",
    "SerialProfiler",
    "PerfectShadow",
    "SignatureShadow",
    "ParallelProfiler",
    "SkippingProfiler",
    "format_report",
    "build_cus",
    "build_cu_graph",
    "DiscoveryConfig",
    "DiscoveryEngine",
    "DiscoveryResult",
    "load_artifact",
    "save_artifact",
    "analyze",
    "candidate",
    "compile_python_source",
    "FrontendError",
    "__version__",
]
