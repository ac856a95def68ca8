"""Chapter 2 accuracy benches: Tables 2.2–2.6.

* Table 2.2 — dependences of the Fig. 2.7 loop.
* Tables 2.3–2.5 — the Fig. 2.8 skipping walk-through.
* Table 2.6 — FPR/FNR of signature profiling vs the perfect baseline over
  Starbench, for three signature sizes (scaled to our address counts the
  way the paper's 1e6/1e7/1e8 slots relate to its address counts).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, fmt_table, one_round, profile_workload
from repro.mir.lowering import compile_source
from repro.profiler.deps import compare_dependences
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.skipping import SkippingProfiler
from repro.runtime.interpreter import VM
from repro.workloads.starbench import STARBENCH_NAMES

FIG27 = """int sum;
int k;
int main() {
  k = 10;
  while (k > 0) {
    sum += k * 2;
    k--;
  }
  return sum;
}
"""


def test_table_2_2_fig27_dependences(one_round):
    def run():
        module = compile_source(FIG27)
        prof = SerialProfiler(PerfectShadow())
        vm = VM(module, prof)
        vm.run()
        return prof

    prof = one_round(run)
    rows = []
    for i, dep in enumerate(
        d for d in prof.store.all()
        if 5 <= d.sink_line <= 7 and 5 <= d.source_line <= 7
    ):
        rows.append(
            [i + 1, dep.sink_line, dep.source_line, dep.type, dep.var,
             "yes" if dep.loop_carried else "no"]
        )
    emit(
        "table_2_2",
        fmt_table(["ID", "sink", "source", "type", "variable",
                   "loop-carried"], rows),
    )
    assert len(rows) == 8  # the paper's eight dependences


def test_tables_2_3_2_5_fig28_skipping(one_round):
    src = """int x;
int main() {
  for (int it = 0; it < 50; it++) {
    x = it;
    int r1 = x;
    int r2 = x;
    x = r1 + r2;
  }
  return x;
}
"""

    def run():
        module = compile_source(src)
        skipper = SkippingProfiler(SerialProfiler(PerfectShadow()))
        vm = VM(module, skipper)
        vm.run()
        return skipper

    skipper = one_round(run)
    deps = [
        [d.sink_line, d.source_line, d.type, d.var,
         "yes" if d.loop_carried else "no"]
        for d in skipper.store.all() if d.var == "x"
    ]
    stats = skipper.stats
    text = fmt_table(["sink", "source", "type", "var", "loop-carried"], deps)
    text += (
        f"\n\nprocessed={stats.processed} skipped={stats.skipped} "
        f"({stats.total_skip_percent:.1f}% of dep-leading instructions), "
        f"pure skips={stats.pure_skips}"
    )
    emit("tables_2_3_to_2_5", text)
    assert stats.skipped > stats.processed  # steady state dominates


@pytest.mark.parametrize("scale", [1])
def test_table_2_6_fpr_fnr(one_round, scale):
    """Signature accuracy vs size over Starbench (Table 2.6)."""
    slot_sizes = (1 << 8, 1 << 11, 1 << 16)

    def run():
        rows = []
        for name in STARBENCH_NAMES:
            baseline, _ = profile_workload(name, scale)
            n_addresses = baseline.shadow.n_tracked
            row = [name, n_addresses,
                   baseline.stats.accesses, len(baseline.store)]
            for slots in slot_sizes:
                prof, _ = profile_workload(
                    name, scale, shadow=SignatureShadow(slots)
                )
                fpr, fnr, _, _ = compare_dependences(prof.store, baseline.store)
                row.extend([f"{fpr:.2f}", f"{fnr:.2f}"])
            rows.append(row)
        return rows

    rows = run()
    one_round(lambda: profile_workload("rgbyuv", scale,
                                       shadow=SignatureShadow(1 << 11)))
    headers = ["program", "#addr", "#acc", "#deps"]
    for slots in slot_sizes:
        headers += [f"FPR@{slots}", f"FNR@{slots}"]
    avg = ["average", "", "", ""]
    for i in range(4, 4 + 2 * len(slot_sizes)):
        avg.append(f"{sum(float(r[i]) for r in rows) / len(rows):.2f}")
    emit("table_2_6", fmt_table(headers, rows + [avg]))

    # shape: accuracy improves monotonically with signature size
    mean_fpr = [
        sum(float(r[4 + 2 * i]) for r in rows) / len(rows)
        for i in range(len(slot_sizes))
    ]
    mean_fnr = [
        sum(float(r[5 + 2 * i]) for r in rows) / len(rows)
        for i in range(len(slot_sizes))
    ]
    assert mean_fpr[0] > mean_fpr[-1]
    assert mean_fnr[0] >= mean_fnr[-1]
    assert mean_fpr[-1] < 1.0 and mean_fnr[-1] < 1.0  # paper: ~0.35/0.04
