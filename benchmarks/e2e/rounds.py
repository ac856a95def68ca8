"""Rounds, reference oracles and output checks of the e2e benchmark.

A *round* runs every program of a workload once, the way a user would:
a discover workload builds one :class:`DiscoveryEngine` per program and
calls ``run()`` with validation on; the batch workload runs a cold
``run_batch`` into a fresh resume directory and then a resume pass over
the same directory.  Only the round itself is timed; the checks below
run after it.
"""

from __future__ import annotations

import contextlib
import gc
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.engine import (
    DetectArtifact,
    DiscoveryConfig,
    DiscoveryEngine,
    JobCheckpoint,
    batch,
    config_for_job,
    job_for_workload,
)
from repro.obs import NULL_TRACER
from repro.runtime.interpreter import VM
from repro.store import ArtifactStore
from repro.workloads import get_workload

from benchmarks.e2e.spec import BASELINE_FAILURES


def reference_value(name: str, scale: int, seed: int):
    """The program's return value from a path independent of the one
    under test: CPython ``exec`` for Python sources, the uninstrumented
    ``dispatch="switch"`` VM for MiniC (the engine runs the compiled
    core, instrumented)."""
    workload = get_workload(name)
    source = workload.source(scale)
    if workload.frontend == "python":
        namespace: dict = {"__name__": f"e2e_reference_{name}"}
        exec(compile(source, f"<{name}>", "exec"), namespace)
        return namespace[workload.entry]()
    vm = VM(
        workload.compile(scale), None,
        instrument=False, dispatch="switch", seed=seed,
    )
    return vm.run(workload.entry)


@dataclass
class Outcome:
    """What one program's run returned, reduced to what the checks need."""

    name: str
    error: Optional[str] = None
    return_value: object = None
    #: compared between rounds; any change is a failure
    signature: tuple = ()
    #: feasible transforms: ("KIND func:line", identical, speedup, detail)
    transforms: list = field(default_factory=list)
    #: loop header line -> the pipeline calls the loop parallel
    verdicts: dict = field(default_factory=dict)
    #: batch only: the resume pass returned the row as ``resumed``
    resumed: Optional[bool] = None


@dataclass
class Round:
    wall: float
    outcomes: list
    #: batch only: wall time of the cold pass, summed job seconds,
    #: bytes in the resume directory, dedup hits on the cold rows
    cold_wall: float = 0.0
    job_seconds: float = 0.0
    bytes_written: int = 0
    dedup_hits: int = 0


def discover_configs(names, scale: int, seed: int) -> list:
    configs = []
    for name in names:
        workload = get_workload(name)
        configs.append(DiscoveryConfig(
            source=workload.source(scale), name=name, entry=workload.entry,
            frontend=workload.frontend, validate=True, seed=seed,
        ))
    return configs


def _discover(config: DiscoveryConfig) -> Outcome:
    try:
        result = DiscoveryEngine(config=config).run()
    except Exception as exc:  # a program that raises is a counted failure
        return Outcome(config.name, error=f"{type(exc).__name__}: {exc}")
    return Outcome(
        config.name,
        return_value=result.return_value,
        signature=tuple(
            (s.kind, s.func, s.start_line, s.end_line)
            for s in result.suggestions
        ),
        transforms=[
            (f"{r.kind} {r.func}:{r.start_line}", r.identical,
             r.measured_speedup, "; ".join(r.mismatches))
            for r in result.validations if r.feasible
        ],
        verdicts={
            info.start_line: info.is_parallelizable for info in result.loops
        },
    )


def discover_round(configs, recorder=None) -> Round:
    """One run per program; the round's wall time is their sum.

    ``gc.collect()`` runs before each program, outside the timing, so
    every program starts from the heap a fresh ``repro discover`` would
    see instead of inheriting the previous program's garbage; GC stays
    on during the run itself.
    """
    tracer = recorder.tracer if recorder is not None else NULL_TRACER
    outcomes = []
    wall = 0.0
    with recorder.installed() if recorder else contextlib.nullcontext():
        for config in configs:
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("bench.program", "bench", program=config.name):
                outcomes.append(_discover(config))
            wall += time.perf_counter() - t0
    return Round(wall, outcomes)


def _batch_outcome(cold: dict, resumed: dict) -> Outcome:
    if not cold.get("ok"):
        return Outcome(cold["name"], error=cold.get("error", "row not ok"))
    return Outcome(
        cold["name"],
        return_value=cold["return_value"],
        signature=(
            tuple(cold["kinds"]), cold["suggestions"], cold["loops"],
            cold["parallelizable_loops"], cold["deps"],
            tuple(sorted((cold["top"] or {}).items())),
        ),
        resumed=bool(resumed.get("ok") and resumed.get("resumed")),
    )


def stored_verdicts(resume_dir: str, job: dict) -> dict:
    """Loop verdicts read back from the job's checkpointed detect phase."""
    checkpoint = JobCheckpoint(resume_dir, config_for_job(job))
    data = checkpoint.store.read_json(checkpoint.key, "detect.json")
    if data is None:
        raise RuntimeError(f"no verified detect.json for {job['workload']}")
    return {
        info.start_line: info.is_parallelizable
        for info in DetectArtifact.from_dict(data).loops
    }


def batch_round(
    names, scale: int, seed: int, workdir: str, *,
    jobs_parallel: int, recorder=None, read_verdicts: bool = False,
) -> Round:
    """Cold batch into a fresh resume directory, then a resume pass."""
    tracer = recorder.tracer if recorder is not None else NULL_TRACER
    jobs = [job_for_workload(name, scale, seed=seed) for name in names]
    gc.collect()
    resume_dir = tempfile.mkdtemp(prefix="resume-", dir=workdir)
    try:
        with recorder.installed() if recorder else contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("bench.round", "bench"):
                cold = batch.run_batch(
                    jobs, jobs_parallel=jobs_parallel, resume_dir=resume_dir
                )
                cold_wall = time.perf_counter() - t0
                warm = batch.run_batch(
                    jobs, jobs_parallel=jobs_parallel, resume_dir=resume_dir
                )
            wall = time.perf_counter() - t0
        outcomes = [_batch_outcome(c, w) for c, w in zip(cold, warm)]
        if read_verdicts:
            for job, outcome in zip(jobs, outcomes):
                if outcome.error is None:
                    try:
                        outcome.verdicts = stored_verdicts(resume_dir, job)
                    except Exception as exc:  # counted, not fatal
                        outcome.error = f"{type(exc).__name__}: {exc}"
        return Round(
            wall, outcomes,
            cold_wall=cold_wall,
            job_seconds=sum(row.get("seconds", 0.0) for row in cold),
            bytes_written=ArtifactStore(resume_dir).stats()["total_bytes"],
            dedup_hits=sum(
                (row.get("store_counters") or {}).get("store.dedup_hits", 0)
                for row in cold
            ),
        )
    finally:
        shutil.rmtree(resume_dir, ignore_errors=True)


@dataclass(frozen=True)
class Failure:
    program: str
    #: "KIND func:line" for a transform, "-" for the program as a whole
    where: str
    op: str
    detail: str

    @property
    def baseline(self) -> bool:
        return (self.program, self.where) in BASELINE_FAILURES


def check_round(rnd: Round, references: dict, first_signatures: dict):
    """Count the round's operations and list the ones that failed.

    Per program: the run (or batch row), its return value against the
    reference, its suggestions against the first round's, each feasible
    transform's bit-identical validation, and for a batch row the resume
    pass.  ``first_signatures`` is filled by the first round checked.
    """
    attempted = 0
    failures = []
    for out in rnd.outcomes:
        attempted += 1
        if out.error is not None:
            failures.append(Failure(out.name, "-", "run", out.error))
            continue
        attempted += 2
        expected = references[out.name]
        if out.return_value != expected:
            failures.append(Failure(
                out.name, "-", "return",
                f"returned {out.return_value!r}, reference {expected!r}",
            ))
        if out.signature != first_signatures.setdefault(
            out.name, out.signature
        ):
            failures.append(Failure(
                out.name, "-", "suggestions",
                "suggestion list differs from the first round",
            ))
        for where, identical, _speedup, detail in out.transforms:
            attempted += 1
            if not identical:
                failures.append(Failure(
                    out.name, where, "validate", detail or "state mismatch"
                ))
        if out.resumed is not None:
            attempted += 1
            if not out.resumed:
                failures.append(Failure(
                    out.name, "-", "resume", "resume row is not 'resumed'"
                ))
    return attempted, failures


def loop_scores(outcomes, scale: int) -> tuple:
    """(precision, recall) of the parallel verdicts against the
    ``# PAR`` / ``# SEQ`` markers, pooled over the round's programs.
    Unmarked loops are not scored."""
    tp = fp = fn = 0
    for out in outcomes:
        truth = get_workload(out.name).ground_truth(scale)
        for line, parallel in truth.items():
            called = out.verdicts.get(line, False)
            tp += parallel and called
            fp += called and not parallel
            fn += parallel and not called
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall


def best_modeled_speedup(outcomes) -> float:
    """Geometric mean over programs of max(1.0, every bit-identical
    transform's ParallelVM speedup in simulated units)."""
    best = [
        max([1.0] + [s for _w, ok, s, _d in out.transforms if ok])
        for out in outcomes
    ]
    return math.exp(sum(math.log(b) for b in best) / len(best))
