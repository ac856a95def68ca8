"""Resilience suite: the deterministic fault matrix (docs/RESILIENCE.md).

Worker kills, hangs, dropped slab acks and corrupted done payloads hit
the supervised sharded detection core at the first, middle and last
task batch, plus seeded scattered mixes.  Every such schedule must
complete without raising, with a store bit-identical to the serial
vectorized reference.  One unrecoverable schedule must degrade to
in-process detection, still bit-identical, instead of failing.
"""

from __future__ import annotations

import time
import warnings

from repro.profiler.sharded import ShardedDetector
from repro.profiler.vectorized import VectorizedProfiler
from repro.resilience import FaultEvent, FaultPlan
from repro.runtime.events import TraceSink
from repro.runtime.interpreter import VM
from repro.workloads import get_workload

#: the matrix costs cases x recovery latency, not trace size, so the
#: smallest gated detect workload suffices
WORKLOAD = "matmul"
CHUNK_SIZE = 4096
WORKERS = 2
#: first seed of the scattered schedules
SEED = 0

#: worker-side kinds; raise_in_phase is an engine-level fault covered by
#: the batch-resume tests
KINDS = ("kill_worker", "hang_worker", "drop_slab_ack", "corrupt_done_payload")

#: small batches give the matrix a real first/middle/last structure
#: (~140 task messages on the scale-1 trace) without a big trace
BATCH_EVENTS = 512

#: recovery as with the defaults, with the waits shortened so a hung
#: worker costs ~1 s instead of the production 60 s patience
POLICY = {
    "hang_timeout": 1.0,
    "poll_interval": 0.1,
    "backoff_base": 0.01,
    "backoff_max": 0.1,
}


def _state(detector) -> dict:
    return {
        "store": detector.store.to_dict(),
        "control": {
            line: rec.to_dict()
            for line, rec in sorted(detector.control.items())
        },
    }


def _reference(chunks: list) -> dict:
    """The serial vectorized state every fault case must reproduce."""
    ref = VectorizedProfiler()
    for chunk in chunks:
        ref.process_chunk(chunk)
    ref.flush()
    return _state(ref)


def _run_case(chunks: list, plan) -> dict:
    """One supervised sharded run under a fault plan; never raises."""
    det = ShardedDetector(
        n_shards=WORKERS,
        batch_events=BATCH_EVENTS,
        slab_rows=BATCH_EVENTS,
        policy=POLICY,
        faults=plan,
    )
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # the degrade rung warns by design; the tally is recorded
            warnings.simplefilter("ignore", RuntimeWarning)
            for chunk in chunks:
                det.process_chunk(chunk)
            det.finalize()
    except Exception as exc:
        det.close()
        return {
            "recovered": False,
            "error": f"{type(exc).__name__}: {exc}",
            "seconds": round(time.perf_counter() - t0, 3),
            "recovery": dict(det.recovery),
        }
    return {
        "recovered": True,
        "state": _state(det),
        "seconds": round(time.perf_counter() - t0, 3),
        "recovery": dict(det.recovery),
    }


def run(quick: bool) -> dict:
    """``quick`` trims the matrix to one position per kind."""
    workload = get_workload(WORKLOAD)
    trace = TraceSink()
    VM(workload.compile(1), trace, chunk_size=CHUNK_SIZE).run(workload.entry)
    # widened once, outside every timed case
    chunks = list(trace.iter_chunks())
    reference = _reference(chunks)

    events = len(trace)
    n_batches = max(1, -(-events // BATCH_EVENTS))
    positions = [0, n_batches // 2, n_batches - 1]
    if quick:
        # rotating, so the kinds together still touch the first, middle
        # and last batches
        matrix = [
            (kind, positions[i % len(positions)])
            for i, kind in enumerate(KINDS)
        ]
    else:
        matrix = [(kind, batch) for kind in KINDS for batch in positions]

    cases = []
    for kind, batch in matrix:
        plan = FaultPlan([FaultEvent(kind=kind, shard=0, batch=batch)])
        case = _run_case(chunks, plan)
        case.update(case_kind=kind, batch=batch, schedule="single")
        cases.append(case)
    for seed in range(SEED, SEED + (1 if quick else 3)):
        plan = FaultPlan.scattered(
            seed, n_shards=WORKERS, n_batches=n_batches,
        )
        case = _run_case(chunks, plan)
        case.update(
            case_kind="+".join(e.kind for e in plan.events),
            batch=None,
            schedule=f"scattered[{seed}]",
        )
        cases.append(case)
    # a kill at every generation exhausts the shard retries and the pool
    # restart: the ladder's last rung must degrade, not raise
    degrade_plan = FaultPlan(
        [FaultEvent(kind="kill_worker", batch=0, gen=gen) for gen in range(8)]
    )
    case = _run_case(chunks, degrade_plan)
    case.update(case_kind="kill_worker", batch=0, schedule="unrecoverable")
    cases.append(case)

    for case in cases:
        case["store_identical"] = (
            case["recovered"] and case.pop("state", None) == reference
        )
    return {
        "workload": WORKLOAD,
        "events": events,
        "n_batches": n_batches,
        "workers": WORKERS,
        "cases": cases,
        "all_recovered": all(c["recovered"] for c in cases),
        "all_stores_identical": all(c["store_identical"] for c in cases),
        "degraded_runs": sum(c["recovery"].get("degraded", 0) for c in cases),
    }


def rows(result: dict) -> list:
    return result["cases"]


COLUMNS = (
    ("schedule", lambda c: c["schedule"]),
    ("fault", lambda c: c["case_kind"]),
    ("batch", lambda c: "-" if c["batch"] is None else c["batch"]),
    ("recovered", lambda c: c["recovered"]),
    ("identical", lambda c: c["store_identical"]),
    ("retries", lambda c: c["recovery"].get("shard_retries", 0)),
    ("restarts", lambda c: c["recovery"].get("pool_restarts", 0)),
    ("degraded", lambda c: c["recovery"].get("degraded", 0)),
    ("s", lambda c: f"{c['seconds']:.2f}"),
)

GATES = (
    ("all_recovered", lambda r: r["all_recovered"]),
    ("all_stores_identical", lambda r: r["all_stores_identical"]),
    # exactly the unrecoverable schedule degrades
    ("degraded_runs", lambda r: r["degraded_runs"] == 1),
)
