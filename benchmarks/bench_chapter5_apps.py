"""Chapter 5 benches: Tables 5.1–5.4 and Fig. 5.1."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import discovery_of, emit, fmt_table, one_round
from repro.apps.commpattern import communication_matrix
from repro.apps.doall_classifier import DoallClassifier, build_dataset
from repro.apps.features import LOOP_FEATURES
from repro.apps.stm import analyze_transactions
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import PerfectShadow
from repro.runtime.interpreter import VM
from repro.workloads import get_workload
from repro.workloads.nas import NAS_NAMES
from repro.workloads.starbench import STARBENCH_NAMES
from repro.workloads.textbook import TEXTBOOK_NAMES
from repro.workloads.threaded import SPLASH_NAMES

CORPUS = NAS_NAMES + STARBENCH_NAMES + TEXTBOOK_NAMES


def test_tables_5_1_to_5_3_doall_classification(one_round):
    """DOALL loop characterization: features, AdaBoost importances,
    classification scores split by pragma presence."""
    corpus = []
    for name in CORPUS:
        w = get_workload(name)
        res = discovery_of(name)
        corpus.append((name, res, w.ground_truth(1)))
    samples = build_dataset(corpus)

    def train():
        return DoallClassifier().fit(samples, seed=3)

    report = one_round(train)
    lines = [f"dataset: {len(samples)} loops from {len(corpus)} programs",
             "", "Table 5.1 features / Table 5.2 importances:"]
    importances = sorted(
        report["importances"].items(), key=lambda kv: kv[1], reverse=True
    )
    lines.append(fmt_table(
        ["feature", "importance"],
        [[k, f"{v:.3f}"] for k, v in importances],
    ))
    lines.append("")
    lines.append("Table 5.3 classification scores (held-out):")
    score_rows = []
    for split in ("overall", "with_pragmas", "without_pragmas"):
        if split in report:
            s = report[split]
            score_rows.append([
                split, f"{s['accuracy']:.2f}", f"{s['precision']:.2f}",
                f"{s['recall']:.2f}", f"{s['f1']:.2f}",
            ])
    lines.append(fmt_table(
        ["split", "accuracy", "precision", "recall", "F1"], score_rows
    ))
    emit("tables_5_1_to_5_3", "\n".join(lines))
    assert report["overall"]["accuracy"] > 0.6
    assert abs(sum(report["importances"].values()) - 1.0) < 1e-6


def test_table_5_4_stm_transactions(one_round):
    """Number of transactions in NAS benchmarks from profiler output."""
    rows = []
    for name in NAS_NAMES:
        res = discovery_of(name)
        analysis = analyze_transactions(res, name)
        rows.append([
            name,
            analysis.total_transactions,
            analysis.max_read_set(),
            analysis.max_write_set(),
        ])
    emit(
        "table_5_4",
        fmt_table(
            ["program", "#transactions", "max read set", "max write set"],
            rows,
        ),
    )
    one_round(lambda: analyze_transactions(discovery_of("CG"), "CG"))
    # NAS kernels with cross-iteration shared state need transactions
    assert any(r[1] > 0 for r in rows)


def test_fig_5_1_communication_patterns(one_round):
    """Thread-to-thread communication matrices of splash2x-style kernels."""

    def profile(name):
        w = get_workload(name)
        module = w.compile(1)
        prof = SerialProfiler(PerfectShadow())
        vm = VM(module, prof, quantum=16)
        vm.run()
        return prof

    sections = []
    patterns = {}
    for name in SPLASH_NAMES:
        prof = one_round(profile, name) if name == SPLASH_NAMES[0] \
            else profile(name)
        matrix = communication_matrix(prof.store)
        patterns[name] = matrix.classify()
        sections.append(
            f"{name}  (classified: {patterns[name]})\n"
            + matrix.heatmap()
        )
    emit("fig_5_1", "\n\n".join(sections))
    # the three kernels were designed with distinct shapes
    assert patterns["splash2x-ocean"] in ("neighbour", "irregular")
    assert patterns["splash2x-fft"] in ("all-to-all", "irregular")
