"""Domain example: profiling a multi-threaded target (§2.3.4 + §5.3).

Profiles a pthread-style k-means under the simulated reordering of access
vs. push (the Fig. 2.4 hazard), shows cross-thread dependences with thread
ids (Fig. 2.3 format), flags potential races, and derives the thread
communication matrix (Fig. 5.1).

Run:  python examples/profile_threaded_program.py
"""

from repro.apps.commpattern import communication_matrix
from repro.profiler.races import DeferredSink
from repro.profiler.reportfmt import format_report
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.interpreter import VM
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("kmeans-pthread")
    module = workload.compile(1)

    profiler = SerialProfiler(PerfectShadow())
    # model the access-vs-push scheduling window of real pthread targets
    deferred = DeferredSink(profiler.process_chunk, window=6, seed=11)
    vm = VM(module, deferred, quantum=8, schedule="random", seed=3)
    result = vm.run()
    deferred.finish()

    print(f"program exit: {result}, threads: {len(vm.threads)}")

    cross = [d for d in profiler.store if d.sink_tid != d.source_tid]
    print(f"\ncross-thread dependences: {len(cross)}")
    for dep in cross[:10]:
        print(f"  {dep.format(with_tid=True)} <- sink thread {dep.sink_tid}")

    races = [d for d in profiler.store if d.maybe_race]
    print(f"\npotential data races flagged: {len(races)}")
    for dep in races[:5]:
        print(f"  {dep.var}: {dep.sink_line}<-{dep.source_line} "
              f"(threads {dep.sink_tid}/{dep.source_tid})")
    if not races:
        print("  (none — the lock-protected accumulation serialises pushes)")

    print("\n== thread communication matrix (Fig. 5.1) ==")
    matrix = communication_matrix(profiler.store)
    print(matrix.heatmap())
    print(f"pattern: {matrix.classify()}")

    print("\n== report fragment with thread ids (Fig. 2.3 format) ==")
    text = format_report(profiler.store, with_tid=True)
    print("\n".join(text.splitlines()[:12]))


if __name__ == "__main__":
    main()
