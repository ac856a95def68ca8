"""Chapter 3 benches: CU construction and CU graphs (Figs. 3.4, 3.6, 3.7) +
the top-down vs bottom-up granularity ablation (§3.3)."""

from __future__ import annotations

from benchmarks.conftest import discovery_of, emit, fmt_table, one_round
from repro.cu import build_cu_graph, build_cus_bottom_up
from repro.cu.graph import container_cus
from repro.discovery import discover_source
from repro.workloads import get_workload


def test_fig_3_6_rot_cc_cu_graph(one_round):
    res = one_round(lambda: discover_source(
        get_workload("rot-cc").source(1), keep_trace=True))
    main = res.functions["main"]
    text = main.cu_graph.format_text()
    emit("fig_3_6_rot_cc", text)
    # the phased structure: independent phase CUs with RAW chains between
    # rotate -> convert -> checksum
    assert main.task_graph.width >= 1
    assert len(main.cu_graph.cus) >= 3


def test_fig_3_7_cg_cu_graph(one_round):
    res = one_round(lambda: discovery_of("CG"))
    fn = res.functions["conj_grad"]
    lines = [fn.cu_graph.format_text()]
    lines.append("")
    lines.append(f"CUs: {len(fn.cu_graph.cus)}, "
                 f"edges: {fn.cu_graph.graph.number_of_edges()}")
    emit("fig_3_7_cg", "\n".join(lines))
    assert fn.cu_graph.graph.number_of_edges() > 3


def test_granularity_top_down_vs_bottom_up(one_round):
    """§3.3 ablation: bottom-up CUs are finer than top-down CUs."""
    rows = []
    for name in ("rot-cc", "CG", "rgbyuv", "matmul"):
        w = get_workload(name)
        res = one_round(lambda w=w: discover_source(w.source(1),
                                                    keep_trace=True)) \
            if name == "rot-cc" else discover_source(w.source(1),
                                                     keep_trace=True)
        module = res.module
        td_counts = []
        bu_counts = []
        for loop in module.loops():
            if loop.region_id not in res.registry.by_region:
                continue
            td = len(container_cus(res.registry, module, loop,
                                   res.line_counts))
            bu = build_cus_bottom_up(module, loop, res.trace.iter_chunks())
            td_counts.append(td)
            bu_counts.append(bu.n_cus)
        rows.append([
            name,
            len(res.registry.all_cus),
            sum(td_counts),
            sum(bu_counts),
        ])
    emit(
        "granularity_ablation",
        fmt_table(
            ["program", "top-down CUs (all)", "top-down CUs (loops)",
             "bottom-up CUs (loops, 1st instance)"],
            rows,
        ),
    )
    assert rows
