"""The four workloads of the e2e benchmark, as plain data.

This module imports nothing from :mod:`repro`, so the command-line
parent can time set-up (which must start from a fresh interpreter) and
check the checkout before anything heavy is loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: the checkout root (``benchmarks/e2e/spec.py`` -> ``.``)
ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Workload:
    """One set of programs measured together as a round."""

    name: str
    programs: tuple
    scale: int
    #: the program used for the warm-up round and for ``--quick``
    smallest: str
    #: rounds are a cold + resumed ``run_batch`` instead of one
    #: ``DiscoveryEngine.run(validate=True)`` per program
    batch: bool = False


#: Two programs per registry suite family (one for splash2x), threaded
#: ones included, none much above a second, so the two-process pool stays
#: balanced.  The corpus is frozen rather than drawn per ``--seed``: a
#: per-seed draw moves every batch metric, loop precision included, by
#: more than its bound, so no two seeds would be comparable.
BATCH_CORPUS = (
    "CG", "IS", "md5", "rot-cc", "sort", "sparselu", "histogram",
    "dotprod", "blackscholes", "dedup", "ferret", "md5-pthread",
    "c-ray-pthread", "splash2x-ocean", "histogram_py", "taskgraph_py",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kernels-large", ("matmul", "mandelbrot", "nbody"), 2,
            smallest="nbody",
        ),
        Workload(
            "apps-tasks",
            ("facedetection", "bzip2-like", "gzip-like", "libvorbis-like"),
            1, smallest="libvorbis-like",
        ),
        Workload(
            "python-suite",
            ("matmul_py", "cg_py", "mandelbrot_py", "histogram_py",
             "pipeline_py", "taskgraph_py"),
            1, smallest="histogram_py",
        ),
        Workload(
            "batch-corpus", BATCH_CORPUS, 1, smallest="splash2x-ocean",
            batch=True,
        ),
    )
}

#: Failed operations recorded when the benchmark was defined, as
#: (program, "KIND func:line").  Both are transforms that the pipeline
#: calls feasible but that do not validate bit-identical.  They still
#: lower ``ok_frac``; they do not count in ``failed`` or make a run
#: incorrect, so a fix shows as a rise in ``ok_frac``.
BASELINE_FAILURES = frozenset({
    # globals and return value differ after the parallel run
    ("libvorbis-like", "MPMD main:22"),
    # IndexError during the parallel run
    ("cg_py", "MPMD main:8"),
})


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
