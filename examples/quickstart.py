"""Quickstart: profile a MiniC program and discover its parallelism.

Run:  python examples/quickstart.py
"""

import json

import repro
from repro.engine import DiscoveryEngine, DiscoveryResult
from repro.profiler.reportfmt import format_report

SOURCE = """int image[4096];
int hist[64];
int edges[4096];
int total;

int main() {
  // synthesize an image
  for (int i = 0; i < 4096; i++) {
    image[i] = (i * 2654435761) % 256;
  }
  // histogram of intensities (shared bins!)
  for (int i = 0; i < 4096; i++) {
    hist[image[i] / 4] += 1;
  }
  // an edge filter (pure stencil)
  for (int i = 1; i < 4095; i++) {
    edges[i] = image[i + 1] - image[i - 1];
  }
  // total edge energy (reduction)
  for (int i = 0; i < 4096; i++) {
    total += edges[i] * edges[i];
  }
  return total;
}
"""


@repro.candidate
def saxpy(x: list, y: list, a: float, n: int) -> float:
    """A live Python function the frontend lowers straight to MIR."""
    for i in range(n):
        y[i] = a * x[i] + y[i]
    return y[0]


def main() -> None:
    print("== running the full DiscoPoP-style pipeline ==")
    result = DiscoveryEngine.from_source(SOURCE).run()

    print(f"\nprogram exit value: {result.return_value}")
    print(f"memory accesses profiled: {sum(result.line_counts.values())}")
    print(f"merged data dependences: {len(result.store)}")

    print("\n== data-dependence report (Fig. 2.1 format) ==")
    print(format_report(result.store, result.control))

    print("== loop classification ==")
    for info in result.loops:
        extras = []
        if info.reduction_vars:
            extras.append(f"reduction({', '.join(sorted(info.reduction_vars))})")
        if info.private_vars:
            extras.append(f"private({', '.join(sorted(info.private_vars))})")
        print(f"  loop @{info.start_line}: {info.classification} "
              f"[{info.iterations} iterations] {' '.join(extras)}")

    print("\n== ranked parallelization suggestions ==")
    print(result.format_report())

    print("\n== staged engine: re-rank without re-profiling ==")
    engine = DiscoveryEngine.from_source(SOURCE)
    engine.profile()                     # Phase 1: the only VM execution
    for n_threads in (2, 8, 32):
        ranked = engine.rank(n_threads=n_threads)
        top = ranked.suggestions[0]
        print(f"  {n_threads:>2} threads -> top {top.kind} {top.location} "
              f"(local speedup {top.scores.local_speedup:.1f})")
    print(f"  instrumented VM executions: {engine.vm_runs}")

    print("\n== parallelize + validate: is the potential real? ==")
    plan = engine.parallelize(n_workers=4)   # Phase 4: MIR transforms
    print("  " + plan.format_table().replace("\n", "\n  "))
    checked = engine.validate()              # Phase 5: execute + compare
    for report in checked.reports:
        if not report.feasible:
            continue
        verdict = "identical" if report.identical else "MISMATCH"
        print(f"  [{report.kind}] {report.location}: {verdict}, "
              f"measured {report.measured_speedup:.2f}x vs predicted "
              f"{report.predicted_speedup:.2f}x "
              f"({report.prediction_error:+.1%} error)")
    error = checked.mean_abs_prediction_error
    if error is not None:
        print(f"  exec-model mean |prediction error|: {error:.1%}")

    print("\n== artifacts round-trip through JSON ==")
    payload = json.dumps(engine.run().to_dict())
    reloaded = DiscoveryResult.from_dict(json.loads(payload))
    assert reloaded.format_report() == engine.run().format_report()
    print(f"  serialized result: {len(payload)} bytes; report identical "
          "after reload")

    print("\n== repro.analyze: live Python functions, no MiniC port ==")
    n = 256
    py_result = repro.analyze(saxpy, args=([0.5] * n, [1.0] * n, 2.0, n))
    for suggestion in py_result.suggestions:
        print(f"  [{suggestion.kind}] {suggestion.location} "
              f"(lines in THIS file)")
    print(f"  frontend recorded in stats: "
          f"{py_result.profile_stats['frontend']}")


if __name__ == "__main__":
    main()
