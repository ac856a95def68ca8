"""Dynamic features for DOALL loop classification (Table 5.1).

The features are computed from profiler + CU artefacts only — never from
the DOALL detector's own verdict — so a classifier trained on them learns
to *predict* parallelizability from execution characteristics, which is the
point of §5.1 (the detector provides labels during training; the trained
model generalises to unseen loops without profiling them to completion).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cu.graph import container_cus
from repro.engine import DiscoveryResult
from repro.discovery.loops import LoopInfo
from repro.profiler.deps import DepType

#: feature names, in vector order (the rows of Table 5.1)
LOOP_FEATURES = (
    "iterations",
    "instructions",
    "instructions_per_iteration",
    "n_deps_total",
    "n_carried_raw",
    "n_carried_war_waw",
    "carried_raw_fraction",
    "n_body_cus",
    "max_cu_work_fraction",
    "has_reduction_shape",
    "nesting_depth",
    "write_fraction",
)


def _nesting_depth(result: DiscoveryResult, region_id: int) -> int:
    depth = 0
    region = result.module.regions[region_id]
    parent = region.parent
    while parent is not None:
        pr = result.module.regions[parent]
        if pr.kind == "loop":
            depth += 1
        parent = pr.parent
    return depth


def loop_feature_vector(
    result: DiscoveryResult, info: LoopInfo
) -> np.ndarray:
    """Feature vector of one analysed loop."""
    module = result.module
    region = module.regions[info.region_id]
    deps_in_loop = [
        d
        for d in result.store
        if region.contains_line(d.sink_line)
        and region.contains_line(d.source_line)
    ]
    carried = [d for d in deps_in_loop if info.region_id in d.carriers]
    carried_raw = [d for d in carried if d.type == DepType.RAW]
    carried_name = [d for d in carried if d.type != DepType.RAW]
    n_deps = len(deps_in_loop)

    cus = container_cus(result.registry, module, region)
    cu_work = [cu.instructions for cu in cus]
    total_cu_work = sum(cu_work) or 1

    reads = writes = 0
    for line, count in result.line_counts.items():
        if region.contains_line(line):
            # line_counts mixes reads+writes; approximate the write share
            # from the dependence mix below instead
            pass
    writes_deps = sum(
        1 for d in deps_in_loop if d.type in (DepType.WAW, DepType.WAR)
    )
    write_fraction = writes_deps / n_deps if n_deps else 0.0

    reduction_shape = any(
        d.sink_line == d.source_line for d in carried_raw
    )

    iters = max(1, info.iterations)
    return np.array(
        [
            float(info.iterations),
            float(info.instructions),
            float(info.instructions) / iters,
            float(n_deps),
            float(len(carried_raw)),
            float(len(carried_name)),
            len(carried_raw) / n_deps if n_deps else 0.0,
            float(len(cus)),
            max(cu_work) / total_cu_work if cu_work else 0.0,
            1.0 if reduction_shape else 0.0,
            float(_nesting_depth(result, info.region_id)),
            write_fraction,
        ],
        dtype=np.float64,
    )
