"""The one timing method of the bench suites.

:func:`measure` runs every variant once untimed first: the warm-up, since
the first compiled run pays for closure compilation.  Then come
``rounds`` rounds.  Each round runs every variant once, rotating the
order from round to round so that host drift does not favour whichever
variant runs second.  Each sample is taken after ``gc.collect()`` with
the collector disabled while it runs: retained traces make every
collector pass scan a large heap, which would otherwise dominate short
samples.

A timing is reported as its median, quartiles and sample count
(:func:`summary`).  A speedup is the median of the per-round ratios
(:func:`ratio`): the two samples of one round see the same host state.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Callable

#: rounds per timed leg, fixed before anything was measured; ``--quick``
#: is the CI size
QUICK_ROUNDS = 5
FULL_ROUNDS = 10


def rounds_for(quick: bool) -> int:
    return QUICK_ROUNDS if quick else FULL_ROUNDS


def measure(
    variants: dict[str, Callable[[], Callable[[], object]]], rounds: int
) -> tuple[dict[str, list[float]], dict[str, object]]:
    """Time every variant ``rounds`` times, interleaved.

    ``variants`` maps a name to a set-up function that returns the
    callable to time, so set-up work (building a VM or an engine) stays
    outside the sample.  Returns the samples in seconds per name, and
    what each variant's last timed call returned.
    """
    names = list(variants)
    for name in names:
        variants[name]()()
    samples: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, object] = {}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            run = variants[name]()
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                results[name] = run()
                samples[name].append(time.perf_counter() - t0)
            finally:
                gc.enable()
    return samples, results


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of a list of samples."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def ratio(samples: dict[str, list[float]], num: str, den: str) -> dict:
    """Summary of the per-round ratios ``num / den``."""
    return summary([a / b for a, b in zip(samples[num], samples[den])])


def fmt_ratio(s: dict) -> str:
    """``2.31x (2.20-2.40)``: a median ratio and its quartiles."""
    return f"{s['median']:.2f}x ({s['q1']:.2f}-{s['q3']:.2f})"


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
