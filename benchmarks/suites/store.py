"""Store suite: concurrent batch runners on one resume dir under faults.

Five schedules, each ending with two concurrent batch runners on one
shared resume dir (docs/RESILIENCE.md):

* ``concurrent_clean``: two runners, same keys in opposite order; every
  key is computed exactly once and the latecomer dedupes.
* ``kill_mid_write``: a runner dies (``os._exit``) mid-publish of
  ``detect.json``, leaving a torn tmp; two clean runners then converge
  and sweep the orphan, and the killed runner's rerun fully dedupes.
* ``torn_tmp``: a runner publishes a truncated ``result.json`` against
  its full-payload checksum; the next runners quarantine it to
  ``.corrupt-N/`` and recompute.
* ``stale_lease``: lease lock backend with a dead-pid lease planted on
  a key; the takeover is counted on ``store.lock_steals``.
* ``checksum_flip``: a byte of a published ``detect.json`` flipped on
  disk (and the finished row removed); the verified restore heals the
  poisoned artifact and recomputes from the surviving prefix.

Every schedule's final store must be bit-identical (canonicalized
content) to a clean single-writer reference, with every row ok, no
torn read or leftover tmp, both planted corruptions healed, the lease
taken over, and clean-schedule keys computed exactly once.
"""

from __future__ import annotations

import glob
import hashlib
import json
import multiprocessing
import os
import shutil
import tempfile
import time

import numpy as np

from repro.engine.batch import config_for_job, job_for_workload, run_batch
from repro.engine.checkpoint import job_key
from repro.resilience.faults import (
    KILL_EXIT_CODE,
    FaultPlan,
    flip_artifact_byte,
    plant_stale_lease,
)
from repro.store import ArtifactStore

#: two registry workloads with distinct keys, so two writers have real
#: overlap (same keys, different order) without a long wall clock
WORKLOADS = ("fib", "sort")

#: stable result-row fields: what a job *computed*, not how this
#: particular writer got it (resumed/deduped/attempts/seconds differ)
ROW_FIELDS = (
    "ok", "name", "return_value", "n_threads", "total_instructions",
    "deps", "loops", "parallelizable_loops", "suggestions", "kinds", "top",
)

#: stats keys that legitimately differ run to run
VOLATILE_STAT_MARKERS = ("seconds", "per_sec")

#: artifacts that never converge across writers, excluded from identity
IDENTITY_EXCLUDED = ("config.json", "attempts.json", "manifest.json")


def _canonical_json(name: str, text: str):
    """One JSON artifact reduced to its run-invariant content."""
    data = json.loads(text)
    if name == "result.json":
        return {k: data.get(k) for k in ROW_FIELDS}
    if name == "profile.json" and isinstance(data.get("stats"), dict):
        data = dict(data)
        data["stats"] = {
            k: v
            for k, v in data["stats"].items()
            if not any(m in k for m in VOLATILE_STAT_MARKERS)
        }
    return data


def _artifact_digest(path: str, name: str) -> str:
    """Content digest of one artifact, ignoring volatile bytes.

    ``trace.npz`` is hashed by loaded array contents (the zip container
    embeds timestamps); JSON artifacts are canonicalized first.
    """
    digest = hashlib.sha256()
    if name.endswith(".npz"):
        with np.load(path, allow_pickle=False) as archive:
            for key in sorted(archive.files):
                arr = archive[key]
                digest.update(key.encode())
                digest.update(str(arr.dtype).encode())
                digest.update(str(arr.shape).encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if name.endswith(".json"):
        text = json.dumps(_canonical_json(name, text), sort_keys=True)
    digest.update(text.encode())
    return digest.hexdigest()


def _store_state(root: str) -> dict:
    """``{key: {artifact: digest}}`` canonical content of a whole store."""
    store = ArtifactStore(root)
    state = {}
    for key in store.keys():
        key_dir = store.key_dir(key)
        entries = {}
        for name in sorted(os.listdir(key_dir)):
            path = os.path.join(key_dir, name)
            if (
                name.startswith(".")
                or ".tmp-" in name
                or name in IDENTITY_EXCLUDED
                or not os.path.isfile(path)
            ):
                continue
            entries[name] = _artifact_digest(path, name)
        state[key] = entries
    return state


def _healed_count(root: str) -> int:
    """Quarantined artifacts across the store (files under .corrupt-N/)."""
    return sum(
        1
        for path in glob.glob(os.path.join(root, "*", ".corrupt-*", "*"))
        if os.path.isfile(path)
    )


def _tmp_count(root: str) -> int:
    return sum(
        1
        for path in glob.glob(os.path.join(root, "**", "*"), recursive=True)
        if ".tmp-" in os.path.basename(path) and os.path.isfile(path)
    )


def _jobs(faulty: dict | None = None) -> list:
    """One job per workload; ``faulty`` maps a workload to a fault plan."""
    jobs = []
    for name in WORKLOADS:
        overrides = {"obs": "metrics"}
        if faulty and name in faulty:
            overrides["fault_plan"] = faulty[name]
        jobs.append(job_for_workload(name, **overrides))
    return jobs


def _writer(jobs, resume_dir, queue, store_options) -> None:
    """Process entry point: one concurrent batch runner."""
    queue.put(
        run_batch(
            jobs,
            jobs_parallel=1,
            resume_dir=resume_dir,
            store_options=store_options,
        )
    )


def _run_writers(
    writer_jobs: list, resume_dir: str, store_options: dict | None = None
) -> tuple:
    """Run one batch-runner process per job list; returns (rows, exits).

    A writer killed by an injected fault reports no rows (``None`` in
    that slot) and exits with ``KILL_EXIT_CODE``.
    """
    ctx = multiprocessing.get_context()
    procs, queues = [], []
    for jobs in writer_jobs:
        queue = ctx.SimpleQueue()
        proc = ctx.Process(
            target=_writer,
            args=(jobs, resume_dir, queue, store_options),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
        queues.append(queue)
    rows, exits = [], []
    for proc, queue in zip(procs, queues):
        proc.join(timeout=600)
        if proc.is_alive():  # a wedged writer fails the gates
            proc.kill()
            proc.join()
        exits.append(proc.exitcode)
        rows.append(queue.get() if not queue.empty() else None)
    return rows, exits


def _summary(
    schedule: str,
    root: str,
    reference: dict,
    all_rows: list,
    *,
    writers: int,
    exits: list,
    t0: float,
    expected_kill_exits: int = 0,
) -> dict:
    """Post-schedule audit: convergence, healing, torn reads, metrics."""
    rows = [r for batch in all_rows if batch for r in batch]
    report = ArtifactStore(root).verify()
    kill_exits = sum(1 for code in exits if code == KILL_EXIT_CODE)
    counters: dict = {}
    for row in rows:
        for name, value in row.get("store_counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    # a torn read would surface as a failed row, a verify-corrupt entry,
    # or a tmp file left under a final-looking tree
    torn_reads = (
        sum(1 for r in rows if not r.get("ok"))
        + report["corrupt"]
        + _tmp_count(root)
    )
    return {
        "schedule": schedule,
        "writers": writers,
        "rows": len(rows),
        "rows_ok": all(r.get("ok") for r in rows) and bool(rows),
        "deduped": sum(1 for r in rows if r.get("deduped")),
        "computed": sum(1 for r in rows if r.get("phases_run")),
        "kill_exits": kill_exits,
        "expected_kill_exits": expected_kill_exits,
        "exits_ok": kill_exits == expected_kill_exits
        and all(code in (0, KILL_EXIT_CODE) for code in exits),
        "healed": _healed_count(root),
        "torn_reads": torn_reads,
        "store_identical": _store_state(root) == reference,
        "lock_waits": counters.get("store.lock_waits", 0),
        "lock_steals": counters.get("store.lock_steals", 0),
        "tmps_swept": counters.get("store.torn_tmp_cleaned", 0),
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run(quick: bool) -> dict:
    """The matrix is already minimal: ``quick`` changes nothing."""
    keys = {
        name: job_key(config_for_job(job))
        for name, job in zip(WORKLOADS, _jobs())
    }
    first = WORKLOADS[0]
    roots = []

    def new_root(tag: str) -> str:
        root = tempfile.mkdtemp(prefix=f"repro-store-bench-{tag}-")
        roots.append(root)
        return root

    cases = []
    try:
        ref_dir = new_root("ref")
        t0 = time.perf_counter()
        ref_rows = run_batch(_jobs(), jobs_parallel=1, resume_dir=ref_dir)
        reference = _store_state(ref_dir)
        reference_ok = all(r.get("ok") for r in ref_rows)
        ref_seconds = round(time.perf_counter() - t0, 3)

        jobs_fwd = _jobs()
        jobs_rev = list(reversed(_jobs()))

        # 1. clean concurrency: dedupe instead of double-compute
        t0 = time.perf_counter()
        root = new_root("clean")
        rows, exits = _run_writers([jobs_fwd, jobs_rev], root)
        case = _summary(
            "concurrent_clean", root, reference, rows,
            writers=len(rows), exits=exits, t0=t0,
        )
        per_name: dict = {}
        for row in (r for batch in rows if batch for r in batch):
            if row.get("phases_run"):
                per_name[row["name"]] = per_name.get(row["name"], 0) + 1
        case["computed_once"] = bool(per_name) and all(
            count == 1 for count in per_name.values()
        )
        cases.append(case)

        # 2. kill -9 mid-write, then heal under concurrency, then rerun
        t0 = time.perf_counter()
        root = new_root("kill")
        kill_plan = FaultPlan(
            [{"kind": "kill_in_store_write", "artifact": "detect.json"}]
        ).to_dict()
        _rows1, exits1 = _run_writers([_jobs({first: kill_plan})], root)
        rows2, exits2 = _run_writers([jobs_fwd, jobs_rev], root)
        rows3, exits3 = _run_writers([_jobs({first: kill_plan})], root)
        case = _summary(
            "kill_mid_write", root, reference, rows2 + rows3,
            writers=len(rows2), exits=exits1 + exits2 + exits3, t0=t0,
            expected_kill_exits=1,
        )
        case["rerun_deduped"] = bool(rows3[0]) and all(
            r.get("resumed") and r.get("phases_run") == [] for r in rows3[0]
        )
        cases.append(case)

        # 3. torn write published against a full-payload checksum
        t0 = time.perf_counter()
        root = new_root("torn")
        torn_plan = FaultPlan(
            [{"kind": "torn_store_write", "artifact": "result.json"}]
        ).to_dict()
        _rows1, exits1 = _run_writers([_jobs({first: torn_plan})], root)
        rows2, exits2 = _run_writers([jobs_fwd, jobs_rev], root)
        cases.append(_summary(
            "torn_tmp", root, reference, rows2,
            writers=len(rows2), exits=exits1 + exits2, t0=t0,
        ))

        # 4. stale lease left by a dead pid: deterministic takeover
        t0 = time.perf_counter()
        root = new_root("lease")
        plant_stale_lease(ArtifactStore(root).key_dir(keys[first]))
        rows, exits = _run_writers(
            [jobs_fwd, jobs_rev], root,
            store_options={"lock_backend": "lease"},
        )
        cases.append(_summary(
            "stale_lease", root, reference, rows,
            writers=len(rows), exits=exits, t0=t0,
        ))

        # 5. silent on-disk corruption of a published artifact
        t0 = time.perf_counter()
        root = new_root("flip")
        _rows1, exits1 = _run_writers([_jobs()], root)
        key_dir = ArtifactStore(root).key_dir(keys[first])
        flip_artifact_byte(os.path.join(key_dir, "detect.json"))
        os.unlink(os.path.join(key_dir, "result.json"))
        rows2, exits2 = _run_writers([jobs_fwd, jobs_rev], root)
        case = _summary(
            "checksum_flip", root, reference, rows2,
            writers=len(rows2), exits=exits1 + exits2, t0=t0,
        )
        case["healed_prefix_resume"] = any(
            r["name"] == first
            and r.get("phases_restored") == ["profile", "cus"]
            and r.get("phases_run") == ["detect", "rank"]
            for batch in rows2 if batch for r in batch
        )
        cases.append(case)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "workloads": list(WORKLOADS),
        "keys": keys,
        "reference_ok": reference_ok,
        "reference_seconds": ref_seconds,
        "cases": cases,
        "all_stores_identical": all(c["store_identical"] for c in cases),
        "all_rows_ok": all(c["rows_ok"] for c in cases),
        "all_exits_ok": all(c["exits_ok"] for c in cases),
        "healed_corruptions": sum(c["healed"] for c in cases),
        "torn_reads": sum(c["torn_reads"] for c in cases),
        "deduped_total": sum(c["deduped"] for c in cases),
        "lock_waits": sum(c["lock_waits"] for c in cases),
        "lock_steals": sum(c["lock_steals"] for c in cases),
        "min_concurrent_writers": min(c["writers"] for c in cases),
        "computed_once": all(c.get("computed_once", True) for c in cases),
    }


def rows(result: dict) -> list:
    return result["cases"]


COLUMNS = (
    ("schedule", lambda c: c["schedule"]),
    ("rows", lambda c: c["rows"]),
    ("ok", lambda c: c["rows_ok"]),
    ("identical", lambda c: c["store_identical"]),
    ("healed", lambda c: c["healed"]),
    ("torn", lambda c: c["torn_reads"]),
    ("deduped", lambda c: c["deduped"]),
    ("waits", lambda c: c["lock_waits"]),
    ("steals", lambda c: c["lock_steals"]),
    ("s", lambda c: f"{c['seconds']:.2f}"),
)

GATES = (
    ("reference_ok", lambda r: r["reference_ok"]),
    ("all_stores_identical", lambda r: r["all_stores_identical"]),
    ("all_rows_ok", lambda r: r["all_rows_ok"]),
    ("all_exits_ok", lambda r: r["all_exits_ok"]),
    ("torn_reads", lambda r: r["torn_reads"] == 0),
    ("healed_corruptions", lambda r: r["healed_corruptions"] >= 2),
    ("lock_steals", lambda r: r["lock_steals"] >= 1),
    ("computed_once", lambda r: r["computed_once"]),
    ("min_concurrent_writers", lambda r: r["min_concurrent_writers"] >= 2),
)
