"""Domain example: finding block-level parallelism in a compressor.

Reproduces the paper's gzip/bzip2 use case (Table 4.5): the profiler shows
that per-block compression iterations are independent — exactly the
transformation pigz applies to gzip — and predicts the speedup of adopting
the suggestion.

Run:  python examples/parallelize_compression.py
"""

from repro.discovery.ranking import loop_local_speedup
from repro.engine import DiscoveryEngine
from repro.simulate import simulate_doall, whole_program_speedup
from repro.workloads import get_workload


def main() -> None:
    for name in ("gzip-like", "bzip2-like"):
        workload = get_workload(name)
        print(f"=== {name} ===")
        result = DiscoveryEngine.from_source(workload.source(1)).run()

        print(result.format_report())

        # predicted whole-program speedup from the loop suggestions
        for threads in (2, 4, 8):
            fractions = [
                (s.scores.instruction_coverage,
                 loop_local_speedup(s.loop, threads))
                for s in result.suggestions
                if s.loop is not None and s.loop.is_parallelizable
            ]
            speedup = whole_program_speedup(fractions)
            print(f"  predicted speedup with {threads} threads: "
                  f"{speedup:.2f}x")

        # per-block loop in detail
        block_loops = [
            info for info in result.loops
            if info.is_parallelizable and info.iterations == 8
        ]
        if block_loops:
            info = block_loops[0]
            per_iter = info.instructions / max(1, info.iterations)
            print(f"  block loop @{info.start_line}: "
                  f"{info.iterations} blocks x {per_iter:.0f} work units")
            print(f"  DOALL block-level speedup (4 workers): "
                  f"{simulate_doall([per_iter] * info.iterations, 4):.2f}x")
        print()


if __name__ == "__main__":
    main()
