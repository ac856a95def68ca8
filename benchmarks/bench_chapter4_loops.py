"""Chapter 4 loop benches: Tables 4.1–4.5."""

from __future__ import annotations

from benchmarks.conftest import discovery_of, emit, fmt_table, one_round
from repro.discovery.loops import LoopClass
from repro.discovery.ranking import loop_local_speedup
from repro.simulate import simulate_doall, whole_program_speedup
from repro.workloads import get_workload
from repro.workloads.nas import NAS_NAMES
from repro.workloads.starbench import STARBENCH_NAMES
from repro.workloads.textbook import TEXTBOOK_NAMES


def test_table_4_1_nas_parallel_loops(one_round):
    """Detection of parallelizable loops in NAS (92.5 % recall headline)."""
    rows = []
    found = total = extra = 0
    for name in NAS_NAMES:
        res = discovery_of(name)
        truth = get_workload(name).ground_truth(1)
        detected = {l.start_line: l for l in res.loops}
        ref_parallel = [l for l, par in truth.items() if par]
        ok = sum(
            1 for line in ref_parallel
            if line in detected and detected[line].is_parallelizable
        )
        additional = sum(
            1
            for line, info in detected.items()
            if info.is_parallelizable and not truth.get(line, False)
        )
        rows.append([
            name, len(detected), len(ref_parallel), ok,
            f"{100.0 * ok / len(ref_parallel):.1f}%", additional,
        ])
        found += ok
        total += len(ref_parallel)
        extra += additional
    recall = 100.0 * found / total
    rows.append(["overall", "", total, found, f"{recall:.1f}%", extra])
    emit(
        "table_4_1",
        fmt_table(
            ["program", "#loops", "ref-parallel", "identified", "recall",
             "additional"],
            rows,
        ),
    )
    one_round(lambda: discovery_of("MG"))
    # paper: 92.5 % — our deliberate misses (EP seed chain, IS histogram)
    # put us in the same band
    assert 85.0 <= recall < 100.0


def test_table_4_2_textbook_speedups(one_round):
    """Predicted 4-thread speedups after adopting the suggestions."""
    rows = []
    for name in TEXTBOOK_NAMES:
        res = discovery_of(name)
        # only outermost parallel loops count: nested suggestions overlap
        # the same covered instructions
        candidates = [
            s for s in res.suggestions
            if s.loop is not None and s.loop.is_parallelizable
        ]
        outermost = []
        for s in candidates:
            contained = any(
                o is not s
                and o.start_line <= s.start_line
                and s.end_line <= o.end_line
                for o in candidates
            )
            if not contained:
                outermost.append(s)
        fractions = [
            (s.scores.instruction_coverage, loop_local_speedup(s.loop, 4))
            for s in outermost
        ]
        speedup = whole_program_speedup(fractions)
        top = res.suggestions[0] if res.suggestions else None
        rows.append([
            name,
            len([s for s in res.suggestions if s.loop is not None]),
            top.kind if top else "-",
            f"{speedup:.2f}x",
        ])
    emit(
        "table_4_2",
        fmt_table(
            ["program", "loop suggestions", "top suggestion",
             "predicted speedup (4T)"],
            rows,
        ),
    )
    one_round(lambda: discovery_of("matmul"))
    # textbook DOALL programs should approach 4x; the RNG-chained pi stays low
    by_name = {r[0]: float(r[3][:-1]) for r in rows}
    assert by_name["matmul"] > 2.5
    assert by_name["mandelbrot"] > 2.5
    # pi's seed chain blocks DOALL: only a modest DOACROSS overlap remains
    assert by_name["pi"] < 2.5


def test_table_4_3_histogram_suggestions(one_round):
    res = one_round(lambda: discovery_of("histogram"))
    emit("table_4_3", res.format_report())
    # the fill loop carries bin conflicts: it must NOT be plain DOALL;
    # the init and max loops are suggested
    truth = get_workload("histogram").ground_truth(1)
    fill_line = [l for l, t in truth.items() if t][1]
    info = res.loop_at(fill_line)
    assert info is not None
    assert info.classification != LoopClass.DOALL


def test_table_4_4_doacross_hot_loops(one_round):
    """DOACROSS detection in the biggest hot loops of Starbench + NAS."""
    rows = []
    for name in NAS_NAMES + STARBENCH_NAMES:
        res = discovery_of(name)
        if not res.loops:
            continue
        hot = max(res.loops, key=lambda l: l.instructions)
        rows.append([
            name,
            f"{hot.func}:{hot.start_line}",
            f"{100.0 * hot.instructions / max(1, res.total_instructions):.0f}%",
            hot.classification,
            hot.stages,
            f"{hot.parallel_fraction:.0%}",
        ])
    emit(
        "table_4_4",
        fmt_table(
            ["program", "hottest loop", "coverage", "classification",
             "stages", "parallel fraction"],
            rows,
        ),
    )
    one_round(lambda: discovery_of("h264dec"))
    classes = {r[0]: r[3] for r in rows}
    # wavefront programs pipeline; image kernels are DOALL
    assert classes["rgbyuv"] in (LoopClass.DOALL, LoopClass.DOALL_REDUCTION)


def test_table_4_5_gzip_bzip2(one_round):
    """Suggestions for the compression apps vs the known parallel versions
    (pigz / bzip2smp parallelize per-block)."""
    rows = []
    #: (program, verdict is parallel, block loop marked // PAR)
    verdicts = []
    for name in ("gzip-like", "bzip2-like"):
        res = discovery_of(name)
        truth = get_workload(name).ground_truth(1)
        block_line = None
        src = get_workload(name).source(1)
        for lineno, text in enumerate(src.splitlines(), 1):
            if "for (int b = 0; b < nblk" in text:
                block_line = lineno
                break
        info = res.loop_at(block_line)
        verdicts.append(
            (name, info is not None and info.is_parallelizable,
             truth[block_line])
        )
        rows.append([
            name,
            len(res.suggestions),
            f"block loop @{block_line}",
            info.classification if info else "-",
            res.suggestions[0].location if res.suggestions else "-",
        ])
    emit(
        "table_4_5",
        fmt_table(
            ["program", "#suggestions", "headline opportunity",
             "classification", "top-ranked"],
            rows,
        ),
    )
    one_round(lambda: discovery_of("gzip-like"))
    # gzip's per-block loop is the known opportunity (pigz)
    assert rows[0][3] in (LoopClass.DOALL, LoopClass.DOALL_REDUCTION)
    # both block loops are marked // PAR — pigz and bzip2smp compress
    # blocks in parallel, and bzip2-like re-initializes its MTF table per
    # block: each verdict must match that ground truth
    for name, parallel, marked in verdicts:
        assert parallel == marked, name
