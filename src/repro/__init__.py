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
profile|discover|parallelize|report|batch|trace|stats|store``).

``import repro`` loads this package alone: each public name, and each
subpackage, is imported the first time it is used (PEP 562), so
compiling a workload never loads numpy, the engine or the profiler.
"""


def _lazy_exports(package: str, exports: dict) -> tuple:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package facade.

    ``exports`` maps each public name to the module that defines it; the
    module is imported the first time the name is looked up, and the
    value is then bound in the package, so later lookups are plain
    attribute reads.  Any other name resolves to the package's submodule
    of that name, imported on demand; a name that is neither raises
    :class:`AttributeError`.
    """
    import sys
    from importlib import import_module
    from importlib.util import find_spec

    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif find_spec(f"{package}.{name}") is not None:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


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

__getattr__, __dir__ = _lazy_exports(__name__, {
    "compile_source": "repro.mir.lowering",
    "VM": "repro.runtime.interpreter",
    "run_source": "repro.runtime.interpreter",
    "SerialProfiler": "repro.profiler.serial",
    "PerfectShadow": "repro.profiler.shadow",
    "SignatureShadow": "repro.profiler.shadow",
    "ParallelProfiler": "repro.profiler.parallel",
    "SkippingProfiler": "repro.profiler.skipping",
    "format_report": "repro.profiler.reportfmt",
    "build_cus": "repro.cu",
    "build_cu_graph": "repro.cu",
    "DiscoveryConfig": "repro.engine",
    "DiscoveryEngine": "repro.engine",
    "DiscoveryResult": "repro.engine",
    "load_artifact": "repro.engine",
    "save_artifact": "repro.engine",
    "analyze": "repro.frontend",
    "candidate": "repro.frontend",
    "compile_python_source": "repro.frontend",
    "FrontendError": "repro.frontend",
})
