"""Ablation benches for the profiler's design choices (the parallel
profiler's are in docs/DETECT.md, "The §2.3.3 parallel profiler"):

* runtime dependence merging on/off (the §2.3.5 output-size factor);
* hot-address redistribution on/off (parallel load balance);
* the §2.4.3 special case on/off;
* signature size sweep (memory/accuracy frontier beyond Table 2.6).
"""

from __future__ import annotations

from benchmarks.conftest import emit, fmt_table, one_round, profile_workload
from repro.profiler.deps import compare_dependences
from repro.profiler.parallel import ParallelProfiler
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow, SignatureShadow
from repro.profiler.skipping import SkippingProfiler
from repro.runtime.interpreter import VM
from repro.workloads import get_workload


def test_merging_output_size(one_round):
    """§2.3.5: merging shrinks dependence output by orders of magnitude."""
    rows = []
    for name in ("CG", "MG", "rotate"):
        prof, _ = one_round(profile_workload, name) \
            if name == "CG" else profile_workload(name)
        raw = prof.store.raw_occurrences
        merged = len(prof.store)
        rows.append([name, raw, merged, f"{raw / max(1, merged):.0f}x"])
    emit(
        "ablation_merging",
        fmt_table(["program", "raw dep instances", "merged", "factor"], rows),
    )
    # the paper reports ~1e5x on NAS class W; at our scale: >= 50x
    assert all(float(r[3][:-1]) >= 50 for r in rows)


def test_redistribution_load_balance(one_round):
    """Hot-address redistribution evens the parallel worker load."""
    src = """int hot1;
int hot2;
int a[64];
int main() {
  for (int i = 0; i < 800; i++) {
    hot1 += i;
    hot2 += i * 2;
    a[i % 64] += 1;
  }
  return hot1 + hot2;
}
"""
    from repro.mir.lowering import compile_source

    def run(redistribute: bool):
        module = compile_source(src)
        par = ParallelProfiler(
            4,
            mode="simulated",
            redistribute_every=2 if redistribute else 10**9,
        )
        vm = VM(module, par, chunk_size=256)
        vm.run()
        par.finish()
        return par.report

    without = run(False)
    with_r = one_round(run, True)
    rows = [
        ["off", without.work_units, f"{without.load_imbalance:.2f}", 0],
        ["on", with_r.work_units, f"{with_r.load_imbalance:.2f}",
         with_r.redistributions],
    ]
    emit(
        "ablation_redistribution",
        fmt_table(["redistribution", "per-worker work", "imbalance",
                   "moves"], rows),
    )
    assert with_r.load_imbalance <= without.load_imbalance + 1e-9


def test_special_case_skip_rate(one_round):
    """§2.4.3 special case contributes extra pure skips at equal output."""
    name = "md5"

    def run(enable: bool):
        skipper = SkippingProfiler(
            SerialProfiler(PerfectShadow()), enable_special_case=enable
        )
        profile_workload(name, sink=skipper)
        return skipper

    on = one_round(run, True)
    off = run(False)
    rows = [
        ["on", on.stats.skipped, on.stats.pure_skips],
        ["off", off.stats.skipped, off.stats.pure_skips],
    ]
    emit(
        "ablation_special_case",
        fmt_table(["special case", "skipped", "pure skips"], rows),
    )
    assert on.stats.pure_skips > 0
    assert off.stats.pure_skips == 0
    assert on.store.keys() == off.store.keys()


def test_signature_size_frontier(one_round):
    """Memory vs accuracy as the signature grows (Formula 2.2 in action)."""
    name = "c-ray"
    baseline, _ = profile_workload(name)
    rows = []
    for bits in (6, 8, 10, 12, 16):
        slots = 1 << bits
        prof, _ = profile_workload(name, shadow=SignatureShadow(slots))
        fpr, fnr, _, _ = compare_dependences(prof.store, baseline.store)
        expected = SignatureShadow.expected_false_positive_rate(
            slots, baseline.shadow.n_tracked
        )
        rows.append([
            slots,
            f"{prof.shadow.memory_bytes() / 1024:.0f} KiB",
            f"{fpr:.2f}",
            f"{fnr:.2f}",
            f"{100 * expected:.1f}",
        ])
    emit(
        "ablation_signature_size",
        fmt_table(
            ["slots", "signature memory", "FPR%", "FNR%",
             "collision% (Formula 2.2)"],
            rows,
        ),
    )
    one_round(lambda: profile_workload(name, shadow=SignatureShadow(1 << 10)))
    assert float(rows[0][2]) >= float(rows[-1][2])
