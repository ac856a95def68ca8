"""Measurement child: one workload in one fresh process.

Run by :mod:`benchmarks.e2e.run`, which reads the single JSON line this
prints.  The load is a closed loop from this one process: each round
starts after the previous one ends.  Only the batch workload adds
processes, its two-process pool.

Order of work: reference values (once, outside every round), one
warm-up round over the workload's smallest program, then timed rounds
until ``--seconds`` have passed.  ``gc.collect()`` runs outside the
timing before each batch round and before each program of a discover
round; GC stays on inside a run, because users pay for it.  With
``--trace 1`` untraced and traced rounds alternate; the untraced ones
give the batch numbers and the base of ``trace_overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time

from benchmarks.e2e import rounds
from benchmarks.e2e.layers import Recorder, coverage_failures
from benchmarks.e2e.spec import ROOT, WORKLOADS

#: batch rounds fan jobs over this many pool processes (the host's
#: ``nproc``); the traced batch round runs jobs in-process so that every
#: store span lands in this process's tracer
POOL = 2
#: ``engine.other_s`` may take at most this share of a traced round
MAX_OTHER_FRAC = 0.10


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child (pool included)."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


class Runner:
    """Runs rounds of one workload with fixed inputs."""

    def __init__(self, spec, programs, seed: int, workdir: str) -> None:
        self.spec = spec
        self.programs = programs
        self.seed = seed
        self.workdir = workdir
        if not spec.batch:
            self.configs = rounds.discover_configs(programs, spec.scale, seed)
            self.warm_configs = rounds.discover_configs(
                (spec.smallest,), spec.scale, seed
            )
        self.n_rounds = 0

    def warm_up(self) -> None:
        if self.spec.batch:
            rounds.batch_round(
                (self.spec.smallest,), self.spec.scale, self.seed,
                self.workdir, jobs_parallel=POOL,
            )
        else:
            rounds.discover_round(self.warm_configs)

    def round(self, recorder=None) -> rounds.Round:
        self.n_rounds += 1
        if not self.spec.batch:
            return rounds.discover_round(self.configs, recorder)
        return rounds.batch_round(
            self.programs, self.spec.scale, self.seed, self.workdir,
            jobs_parallel=1 if recorder is not None else POOL,
            recorder=recorder, read_verdicts=self.n_rounds == 1,
        )


def measure(
    workload: str, *, seed: int, seconds: float, trace: bool,
    quick: bool = False, trace_path=None,
) -> dict:
    """Measure one workload; returns samples, checks and guard results.

    ``quick`` runs the smallest program once, without warm-up.
    """
    spec = WORKLOADS[workload]
    programs = (spec.smallest,) if quick else spec.programs
    references = {
        name: rounds.reference_value(name, spec.scale, seed)
        for name in programs
    }
    workroot = ROOT / "benchmarks" / "e2e" / "out" / "tmp"
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot)
    try:
        runner = Runner(spec, programs, seed, workdir)
        if not quick:
            runner.warm_up()
        untraced: list = []
        traced: list = []  # (Round, Recorder)
        deadline = time.perf_counter() + seconds
        while True:
            if trace and len(traced) < len(untraced):
                recorder = Recorder()
                traced.append((runner.round(recorder), recorder))
            else:
                untraced.append(runner.round())
            if (not trace or traced) and (
                quick or time.perf_counter() >= deadline
            ):
                break
        peak_rss = _peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = 0
    failures: list = []
    first_signatures: dict = {}
    for rnd in untraced + [r for r, _rec in traced]:
        n, failed = rounds.check_round(rnd, references, first_signatures)
        attempted += n
        failures.extend(failed)

    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "programs": list(programs),
        "rounds": len(untraced) + len(traced),
        "attempted": attempted,
        "failures": _tally(failures),
        "guards": [],
    }
    if trace:
        result["samples"] = _layer_samples(spec, untraced, traced)
        result["guards"] = _guards(workload, traced, result["samples"])
        if trace_path is not None:
            traced[-1][1].tracer.export_json(str(trace_path))
    else:
        result["samples"] = _e2e_samples(
            spec, untraced, len(programs), attempted, failures, peak_rss
        )
    return result


def _tally(failures) -> list:
    """Failures grouped by (program, where, op), with occurrence counts."""
    grouped: dict = {}
    for f in failures:
        key = (f.program, f.where, f.op)
        if key not in grouped:
            grouped[key] = {
                "program": f.program, "where": f.where, "op": f.op,
                "detail": f.detail, "baseline": f.baseline, "count": 0,
            }
        grouped[key]["count"] += 1
    return list(grouped.values())


def _e2e_samples(spec, untraced, n_programs, attempted, failures,
                 peak_rss) -> dict:
    if spec.batch:
        # loop verdicts were read back from the first round's store
        scored = [untraced[0]]
        per_s = [n_programs / r.cold_wall for r in untraced]
    else:
        scored = untraced
        per_s = [n_programs / r.wall for r in untraced]
    quality = [rounds.loop_scores(r.outcomes, spec.scale) for r in scored]
    return {
        "discover_s": [r.wall for r in untraced],
        "batch_programs_per_s": per_s,
        "peak_rss_mb": [peak_rss],
        "ok_frac": [1.0 - len(failures) / attempted],
        "loop_precision": [p for p, _r in quality],
        "loop_recall": [r for _p, r in quality],
        "best_modeled_speedup": [
            rounds.best_modeled_speedup(r.outcomes) for r in scored
        ],
    }


def _layer_samples(spec, untraced, traced) -> dict:
    folds = [recorder.fold() for _rnd, recorder in traced]
    samples = {name: [f[name] for f in folds] for name in folds[0]}
    # pool and store numbers come from the untraced (two-process) batch
    # rounds; they stay 0 on the discover workloads
    samples["engine.batch_s"] = [r.cold_wall for r in untraced]
    samples["engine.job_s"] = [r.job_seconds for r in untraced]
    samples["engine.pool_busy_frac"] = [
        r.job_seconds / (POOL * r.cold_wall) if r.cold_wall else 0.0
        for r in untraced
    ]
    samples["store.bytes_written"] = [
        float(r.bytes_written) for r in untraced
    ]
    samples["store.dedup_hits"] = [float(r.dedup_hits) for r in untraced]

    def cost(rnd) -> float:
        # traced batch rounds run jobs in-process: compare job seconds
        return rnd.job_seconds if spec.batch else rnd.wall

    base = statistics.median(cost(r) for r in untraced)
    samples["trace_overhead_frac"] = [
        cost(rnd) / base - 1.0 for rnd, _rec in traced
    ]
    return samples


def _guards(workload, traced, samples) -> list:
    messages = coverage_failures([rec for _rnd, rec in traced], workload)
    dropped = sum(samples["bench.spans_dropped"])
    if dropped:
        messages.append(f"tracer dropped {dropped:g} spans (ring full)")
    other = statistics.median(samples["engine.other_s"])
    wall = statistics.median(rnd.wall for rnd, _rec in traced)
    if other > MAX_OTHER_FRAC * wall:
        messages.append(
            f"engine.other_s {other:.3f} s is more than "
            f"{MAX_OTHER_FRAC:.0%} of the traced round ({wall:.3f} s)"
        )
    return messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)
    result = measure(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), quick=args.quick,
        trace_path=args.trace_path,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
