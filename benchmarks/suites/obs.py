"""Observability suite: the disabled-cost bound and mode transparency.

Per workload, the engine's ``profile()`` phase runs with obs off,
metrics only and full tracing; the dependence stores must be identical
in all three modes.  The gated number is the *disabled* overhead:
every instrumentation site guards on one attribute before doing any
tracing work, so a disabled site costs one guarded call.  The traced
run counts how often sites activate, and (per-site cost x activations)
over the obs-off wall time bounds what carrying the instrumentation
costs when nothing records.  The enabled overheads are reported, not
gated: tracing is opt-in.
"""

from __future__ import annotations

from repro.engine.config import DiscoveryConfig
from repro.engine.core import DiscoveryEngine
from repro.obs.trace import Tracer
from repro.workloads import get_workload

from benchmarks.suites.method import measure, ratio, rounds_for, summary

#: one textbook, one NAS and one recursion-heavy workload, so the bound
#: covers both chunk-dense loops and call/ret-dense traces
WORKLOADS = ("pi", "EP", "fft")
MODES = ("off", "metrics", "trace")
#: calls per timed calibration sample
CALIBRATION_CALLS = 200_000


def _site_cost_ns(rounds: int) -> float:
    """Median cost of one disabled ``with tracer.span(...)``, in ns.

    That is the most expensive disabled form (a method call plus the
    shared ``NULL_SPAN`` enter and exit; real sites mostly test
    ``tracer.enabled`` alone), so the modelled overhead is an upper
    bound.
    """
    tracer = Tracer(enabled=False)

    def setup():
        def run():
            for _ in range(CALIBRATION_CALLS):
                with tracer.span("calibrate", "obs"):
                    pass
        return run

    samples, _ = measure({"site": setup}, rounds)
    return summary(samples["site"])["median"] * 1e9 / CALIBRATION_CALLS


def _profile(workload, mode):
    def setup():
        engine = DiscoveryEngine(config=DiscoveryConfig(
            source=workload.source(1), name=workload.name,
            entry=workload.entry, obs=mode,
        ))

        def run():
            return engine.profile(), engine
        return run
    return setup


def bench_workload(name: str, rounds: int, site_cost_ns: float) -> dict:
    workload = get_workload(name)
    samples, results = measure(
        {mode: _profile(workload, mode) for mode in MODES}, rounds
    )
    stores = [results[mode][0].store.to_dict() for mode in MODES]
    n_spans = results["trace"][1].obs.tracer.n_spans
    row: dict = {mode: summary(samples[mode]) for mode in MODES}
    row.update(
        workload=name,
        events=results["off"][0].stats["trace_events"],
        n_spans=n_spans,
        n_metrics=len(results["metrics"][1].obs.metrics.snapshot()),
        stores_identical=stores[0] == stores[1] == stores[2],
        disabled_overhead_pct=(
            site_cost_ns * n_spans / (row["off"]["median"] * 1e9) * 100.0
        ),
    )
    for mode in ("metrics", "trace"):
        row[f"{mode}_overhead_pct"] = (
            ratio(samples, mode, "off")["median"] - 1.0
        ) * 100.0
    return row


def run(quick: bool) -> dict:
    rounds = rounds_for(quick)
    site_cost = _site_cost_ns(rounds)
    rows = [bench_workload(name, rounds, site_cost) for name in WORKLOADS]
    return {
        "workloads": rows,
        "disabled_site_cost_ns": site_cost,
        "disabled_overhead_pct_max": max(
            r["disabled_overhead_pct"] for r in rows
        ),
        "metrics_overhead_pct_max": max(
            r["metrics_overhead_pct"] for r in rows
        ),
        "trace_overhead_pct_max": max(r["trace_overhead_pct"] for r in rows),
        "all_stores_identical": all(r["stores_identical"] for r in rows),
    }


def rows(result: dict) -> list:
    return result["workloads"]


COLUMNS = (
    ("workload", lambda r: r["workload"]),
    ("off ms", lambda r: f"{r['off']['median'] * 1e3:.1f}"),
    ("metrics ms", lambda r: f"{r['metrics']['median'] * 1e3:.1f}"),
    ("trace ms", lambda r: f"{r['trace']['median'] * 1e3:.1f}"),
    ("spans", lambda r: r["n_spans"]),
    ("metrics %", lambda r: f"{r['metrics_overhead_pct']:+.1f}"),
    ("trace %", lambda r: f"{r['trace_overhead_pct']:+.1f}"),
    ("disabled %", lambda r: f"{r['disabled_overhead_pct']:.4f}"),
    ("identical", lambda r: r["stores_identical"]),
)

GATES = (
    ("all_stores_identical", lambda r: r["all_stores_identical"]),
    ("disabled_overhead_pct_max",
     lambda r: r["disabled_overhead_pct_max"] <= 2.0),
)
