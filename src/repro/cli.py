"""Command-line entry points.

The unified ``repro`` command drives the staged engine::

    repro profile  file.mc [--format json] [--save prof.json]
    repro discover file.mc [--threads 8] [--format json] [--save out.json]
    repro discover file.py            # Python frontend (by extension)
    repro discover prog.txt --frontend python   # explicit override
    repro discover --workload fib --backend parallel --format json
    repro discover file.mc --spill-trace --max-resident-chunks 8
    repro parallelize --workload matmul --workers 4   # transform+validate
    repro report   file.mc            # PET + profiling statistics
    repro report   --load out.json    # re-render a saved result, no re-run
    repro batch    fib sort CG --jobs 4 --format json
    repro trace    --workload matmul -o matmul.trace.json  # Perfetto timeline
    repro stats    --workload matmul  # metrics-registry snapshot table
    repro discover file.mc --obs trace --trace-out out.json
    repro batch    fib sort --resume ckpt/   # checkpointing, crash-safe
    repro store    stats ckpt/        # per-key size / last-access / locks
    repro store    verify ckpt/ --heal  # sha256 audit, quarantine corrupt
    repro store    gc ckpt/ --max-bytes 50000000  # LRU eviction

Every subcommand supports ``--format json`` (machine-readable artifact
dicts, see :mod:`repro.engine.artifacts`) and ``--save PATH`` to persist
the artifact; ``repro report --load`` / ``repro discover --load`` reload a
saved artifact instead of re-executing the program.  ``--obs`` only
observes: it never changes which detection core runs or whether the
validate phase runs (``repro trace`` picks its own defaults).

The benchmark suites of the VM, detection, observability, fault and
store layers live outside the package:
``PYTHONPATH=src:. python -m benchmarks.suites SUITE [--quick]``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.profiler.reportfmt import format_report


# ---------------------------------------------------------------------------
# the unified `repro` command
# ---------------------------------------------------------------------------


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--frontend",
        choices=("minic", "python"),
        default=None,
        help="source language (default: by file extension — .py is "
             "Python, anything else MiniC; workloads know their own)",
    )
    parser.add_argument(
        "--signature-slots",
        type=int,
        default=None,
        help="signature size (omit for the exact shadow baseline)",
    )
    parser.add_argument("--seed", type=int, default=12345)


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    from repro.profiler.backends import BACKENDS

    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="serial",
        help="profiler backend (see repro.profiler.backends)",
    )
    parser.add_argument(
        "--dispatch",
        choices=("compiled", "switch"),
        default="compiled",
        help="VM execution core (compiled: closure-specialized "
             "superinstruction dispatch; switch: the reference loop)",
    )
    parser.add_argument(
        "--detect",
        choices=("vectorized", "loop", "sharded"),
        default="vectorized",
        help="dependence detection core (vectorized: segmented numpy "
             "scans; loop: the per-event reference walk; sharded: "
             "multi-process addr%%N sharding over shared memory)",
    )
    parser.add_argument(
        "--detect-workers",
        type=int,
        default=4,
        metavar="N",
        help="worker processes of the sharded detection core",
    )
    parser.add_argument(
        "--detect-sampling",
        type=float,
        default=None,
        metavar="RATE",
        help="sharded-core lossy mode: keep roughly RATE of the repeat "
             "reads (deterministic, stratified per signature/line; "
             "writes and first reads always ship)",
    )
    parser.add_argument(
        "--spill-trace",
        action="store_true",
        help="bound trace memory by spilling chunks to disk",
    )
    parser.add_argument(
        "--max-resident-chunks",
        type=int,
        default=64,
        help="resident chunk window when spilling",
    )
    parser.add_argument(
        "--obs",
        choices=("off", "metrics", "trace"),
        default="off",
        help="observability depth (see docs/OBSERVABILITY.md): metrics "
             "fills result.metrics, trace adds span tracing across the "
             "engine, detection workers and the parallel scheduler",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="with --obs trace: write the Chrome trace-event JSON here "
             "(default: <name>.trace.json; load it in Perfetto)",
    )
    parser.add_argument(
        "--resilience",
        metavar="JSON|@FILE",
        default=None,
        help="sharded-core supervision knobs as RetryPolicy JSON "
             "(inline, or @file); empty = defaults; "
             "see docs/RESILIENCE.md",
    )
    parser.add_argument(
        "--faults",
        metavar="JSON|@FILE",
        default=None,
        help="test-only deterministic fault schedule as FaultPlan JSON "
             "(inline, or @file); see docs/RESILIENCE.md",
    )


def _json_opt(value):
    """Parse an inline-JSON / ``@file`` CLI option (None passes through)."""
    if value is None:
        return None
    text = value
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"error: invalid JSON option {value!r}: {exc}")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json prints the artifact dict)",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="persist the artifact as JSON",
    )


def _config_from_args(args, source: str, name: str,
                      frontend: str = "minic",
                      source_path: str | None = None):
    from repro.engine import DiscoveryConfig

    return DiscoveryConfig(
        source=source,
        name=name,
        entry=args.entry,
        frontend=frontend,
        source_path=source_path,
        n_threads=getattr(args, "threads", 4),
        signature_slots=args.signature_slots,
        skip_loops=getattr(args, "skip_loops", False),
        seed=args.seed,
        backend=getattr(args, "backend", "serial"),
        dispatch=getattr(args, "dispatch", "compiled"),
        detect=getattr(args, "detect", "vectorized"),
        detect_workers=getattr(args, "detect_workers", 4),
        detect_sampling=getattr(args, "detect_sampling", None),
        spill_trace=getattr(args, "spill_trace", False),
        max_resident_chunks=getattr(args, "max_resident_chunks", 64),
        obs=getattr(args, "obs", "off"),
        resilience=_json_opt(getattr(args, "resilience", None)) or {},
        fault_plan=_json_opt(getattr(args, "faults", None)),
    )


def _default_trace_path(name: str) -> str:
    """``<sanitized name>.trace.json`` in the working directory."""
    import os
    import re

    base = re.sub(r"[^A-Za-z0-9_.-]+", "_", os.path.basename(name))
    return f"{base or 'repro'}.trace.json"


def _export_trace(args, engine, name: str) -> None:
    """Write the run's trace when ``--obs trace`` was on (or demanded)."""
    tracer = engine.obs.tracer
    if not tracer.enabled:
        if getattr(args, "trace_out", None):
            print(
                "; --trace-out ignored: run with --obs trace",
                file=sys.stderr,
            )
        return
    out = getattr(args, "trace_out", None) or _default_trace_path(name)
    n_events = tracer.export_json(out)
    print(
        f"; trace: {n_events} events -> {out} "
        "(load in Perfetto / chrome://tracing)",
        file=sys.stderr,
    )


def _read_source(args) -> tuple[str, str, str, str | None]:
    """(source text, display name, frontend, source path) from a file
    path or --workload.

    The frontend comes from ``--frontend`` when given; otherwise the
    file extension decides (``.py`` → python, anything else → MiniC)
    and registry workloads carry their own language.
    """
    override = getattr(args, "frontend", None)
    if getattr(args, "workload", None):
        from repro.workloads import REGISTRY, get_workload

        if args.workload not in REGISTRY:
            raise SystemExit(
                f"error: unknown workload {args.workload!r} "
                f"(see repro batch --suite, or one of: "
                f"{', '.join(sorted(REGISTRY)[:8])}, ...)"
            )
        workload = get_workload(args.workload)
        source = workload.source(getattr(args, "scale", 1))
        return source, args.workload, override or workload.frontend, None
    if not args.source:
        raise SystemExit("error: a source file or --workload is required")
    try:
        with open(args.source) as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.source}: {exc}")
    frontend = override or (
        "python" if args.source.endswith(".py") else "minic"
    )
    return text, args.source, frontend, args.source


def _emit(args, artifact, text: str) -> None:
    """Print per --format and honour --save (one to_dict for both)."""
    data = None
    if args.format == "json" or args.save:
        data = artifact.to_dict()
    if args.format == "json":
        print(json.dumps(data, indent=1))
    else:
        print(text)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(data, handle, indent=1)
        print(f"; saved {data['artifact']} -> {args.save}", file=sys.stderr)


def cmd_profile(args) -> int:
    from repro.engine import DiscoveryEngine

    source, name, frontend, path = _read_source(args)
    engine = DiscoveryEngine(
        config=_config_from_args(args, source, name, frontend, path)
    )
    t0 = time.perf_counter()
    profile = engine.profile()
    wall = time.perf_counter() - t0
    _emit(args, profile, format_report(profile.store, profile.control))
    _export_trace(args, engine, name)
    stats = profile.stats
    print(
        f"; exit={profile.return_value} accesses={stats['accesses']} "
        f"deps={stats['deps']} (merged from {stats['raw_occurrences']}) "
        f"in {wall:.2f}s",
        file=sys.stderr,
    )
    return 0


def _load_artifact_or_exit(path: str):
    from repro.engine import load_artifact

    try:
        return load_artifact(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load artifact {path}: {exc}")


def cmd_discover(args) -> int:
    from repro.engine import DiscoveryEngine, DiscoveryResult

    if args.load:
        result = _load_artifact_or_exit(args.load)
        if not isinstance(result, DiscoveryResult):
            raise SystemExit(
                f"error: {args.load} is not a saved discovery result"
            )
    else:
        source, name, frontend, path = _read_source(args)
        engine = DiscoveryEngine(
            config=_config_from_args(args, source, name, frontend, path)
        )
        result = engine.run()
        _export_trace(args, engine, name)
    _emit(args, result, result.format_report())
    print(
        f"\n; exit={result.return_value} loops analysed={len(result.loops)} "
        f"suggestions={len(result.suggestions)}",
        file=sys.stderr,
    )
    if result.timings:
        phases = " ".join(
            f"{phase}={seconds:.3f}s"
            for phase, seconds in result.timings.items()
        )
        print(f"; phases: {phases}", file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: full pipeline with span tracing, export timeline.

    Defaults chosen so the exported timeline is interesting: the sharded
    detection core (its workers contribute per-process lanes) and the
    validate phase (the ParallelVM workers contribute per-role lanes).
    """
    from repro.engine import DiscoveryEngine

    source, name, frontend, path = _read_source(args)
    config = _config_from_args(args, source, name, frontend, path).replace(
        obs="trace",
        validate=not args.no_validate,
        n_workers=args.workers,
    )
    engine = DiscoveryEngine(config=config)
    result = engine.run()
    out = args.out or getattr(args, "trace_out", None) \
        or _default_trace_path(name)
    tracer = engine.obs.tracer
    n_events = tracer.export_json(out)
    lanes = tracer._all_lanes()
    pids = sorted({row[0] for row in lanes})
    print(f"trace written: {out}")
    print(
        f"  {n_events} events, {len(lanes)} lanes across "
        f"{len(pids)} processes (load in Perfetto / chrome://tracing)"
    )
    for pid, plabel, label, spans, dropped in lanes:
        drop = f" ({dropped} dropped)" if dropped else ""
        print(f"  pid {pid} [{plabel}] {label}: {len(spans)} spans{drop}")
    if result.selfprof.get("phases"):
        total = sum(result.selfprof["phases"].values()) or 1
        print("  self time by phase:")
        for phase, ns in sorted(
            result.selfprof["phases"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {phase:<24} {ns / 1e6:>10.1f} ms "
                  f"{ns / total:>6.1%}")
    return 0


def cmd_stats(args) -> int:
    """``repro stats``: run with metrics on and render the registry."""
    from repro.engine import DiscoveryEngine, DiscoveryResult
    from repro.obs import format_metrics_table

    if args.load:
        result = _load_artifact_or_exit(args.load)
        if not isinstance(result, DiscoveryResult):
            raise SystemExit(
                f"error: {args.load} is not a saved discovery result"
            )
    else:
        source, name, frontend, path = _read_source(args)
        config = _config_from_args(args, source, name, frontend, path)
        if config.obs == "off":
            config = config.replace(obs="metrics")
        engine = DiscoveryEngine(config=config)
        result = engine.run()
        _export_trace(args, engine, name)
    if args.format == "json":
        print(json.dumps(result.metrics, indent=1))
    else:
        print(format_metrics_table(result.metrics))
        if result.timing_detail:
            print("\nphase timings (count / total / last):")
            for phase, detail in sorted(result.timing_detail.items()):
                print(
                    f"  {phase:<16} x{detail['count']:<3} "
                    f"total {detail['total']:.3f}s "
                    f"last {detail['last']:.3f}s"
                )
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(result.metrics, handle, indent=1)
        print(f"; saved metrics -> {args.save}", file=sys.stderr)
    return 0


def cmd_parallelize(args) -> int:
    from repro.engine import DiscoveryEngine
    from repro.parallelize import format_validation_table

    source, name, frontend, path = _read_source(args)
    config = _config_from_args(args, source, name, frontend, path).replace(
        n_workers=args.workers,
        n_threads=args.workers,
        parallel_quantum=args.quantum,
        validate=True,
    )
    engine = DiscoveryEngine(config=config)
    plan = engine.parallelize()
    artifact = engine.validate()
    _export_trace(args, engine, name)
    text = plan.format_table() + "\n\n" + format_validation_table(
        artifact.reports
    )
    _emit(args, artifact, text)
    feasible = artifact.feasible
    error = artifact.mean_abs_prediction_error
    print(
        f"; transforms: {len(feasible)}/{len(artifact.reports)} applied, "
        f"{artifact.n_identical} validated identical, "
        f"{artifact.n_speedup} with measured speedup > 1"
        + (
            f", mean |prediction error| {error:.1%}"
            if error is not None
            else ""
        ),
        file=sys.stderr,
    )
    failed = [r for r in feasible if not r.identical]
    if failed:
        print(
            f"; FAIL: {len(failed)} transform(s) diverged from the "
            "sequential run",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_store(args) -> int:
    """``repro store stats|verify|gc DIR``: artifact-store maintenance."""
    from repro.store import ArtifactStore

    store = ArtifactStore(args.dir, lock_backend=args.lock_backend)
    if args.action == "stats":
        result = store.stats()
        if args.format == "json":
            print(json.dumps(result, indent=1))
        else:
            header = (
                f"{'key':<26} {'entries':>7} {'bytes':>10} {'locked':>6} "
                f"{'last access':>19}"
            )
            lines = [header, "-" * len(header)]
            for row in result["rows"]:
                import datetime

                when = (
                    datetime.datetime.fromtimestamp(row["last_access"])
                    .strftime("%Y-%m-%d %H:%M:%S")
                    if row["last_access"]
                    else "-"
                )
                lines.append(
                    f"{row['key']:<26} {row['entries']:>7} "
                    f"{row['bytes']:>10} "
                    f"{'y' if row['locked'] else '-':>6} {when:>19}"
                )
            lines.append(
                f"{result['keys']} keys, {result['total_bytes']} bytes"
            )
            print("\n".join(lines))
        return 0
    if args.action == "verify":
        result = store.verify(heal=args.heal)
        if args.format == "json":
            print(json.dumps(result, indent=1))
        else:
            print(
                f"{result['keys']} keys, {result['entries']} entries: "
                f"{result['corrupt']} corrupt, {result['missing']} missing, "
                f"{result['torn_tmps']} torn tmps, "
                f"{result['untracked']} untracked"
                + (f"; healed {result['healed']}" if args.heal else "")
            )
        # unhealed corruption fails the check (CI runs this); --heal
        # quarantines everything it finds, so the tree is clean again
        if args.heal:
            bad = result["corrupt"] - result["healed"]
        else:
            bad = result["corrupt"] + result["torn_tmps"]
        return 1 if bad else 0
    # gc
    if args.max_bytes is None:
        raise SystemExit("error: repro store gc requires --max-bytes")
    result = store.gc(args.max_bytes, dry_run=args.dry_run)
    if args.format == "json":
        print(json.dumps(result, indent=1))
    else:
        verb = "would evict" if args.dry_run else "evicted"
        print(
            f"{result['before_bytes']} -> {result['after_bytes']} bytes "
            f"(cap {result['max_bytes']}); {verb} "
            f"{len(result['evicted'])} keys"
            + (
                f", skipped {len(result['skipped_locked'])} locked"
                if result["skipped_locked"]
                else ""
            )
        )
    return 0


def cmd_report(args) -> int:
    from repro.engine import DiscoveryEngine, DiscoveryResult

    if args.load:
        artifact = _load_artifact_or_exit(args.load)
        if isinstance(artifact, DiscoveryResult):
            text = artifact.format_report()
        elif hasattr(artifact, "store") and hasattr(artifact, "control"):
            text = format_report(artifact.store, artifact.control)
        elif hasattr(artifact, "suggestions"):
            from repro.discovery.suggestions import format_suggestions

            text = format_suggestions(artifact.suggestions)
        else:
            # no text rendering for this artifact kind: show the data
            text = json.dumps(artifact.to_dict(), indent=1)
        _emit(args, artifact, text)
        return 0
    source, name, frontend, path = _read_source(args)
    engine = DiscoveryEngine(
        config=_config_from_args(args, source, name, frontend, path)
    )
    profile = engine.profile()
    lines = [profile.pet.format_tree(), ""]
    stats = profile.stats
    lines.append(
        f"exit={profile.return_value} reads={stats['reads']} "
        f"writes={stats['writes']} deps={stats['deps']}"
    )
    for record in sorted(
        profile.control.values(), key=lambda r: r.start_line
    ):
        if record.kind == "loop":
            lines.append(
                f"loop @{record.start_line}-{record.end_line}: "
                f"{record.executions} executions, "
                f"{record.total_iterations} iterations"
            )
    _emit(args, profile, "\n".join(lines))
    return 0


def cmd_batch(args) -> int:
    from repro.engine import format_batch_table, job_for_workload, run_batch

    names = list(args.workloads)
    if args.suite:
        from repro.workloads import suites, workloads_in_suite

        if args.suite not in suites():
            raise SystemExit(
                f"error: unknown suite {args.suite!r} "
                f"(one of: {', '.join(suites())})"
            )
        names.extend(w.name for w in workloads_in_suite(args.suite))
    if not names:
        raise SystemExit("error: name at least one workload or --suite")
    overrides = {"n_threads": args.threads, "seed": args.seed}
    jobs = [
        job_for_workload(name, scale=args.scale, **overrides)
        for name in names
    ]
    rows = run_batch(
        jobs,
        jobs_parallel=args.jobs,
        resume_dir=args.resume,
        job_timeout=args.job_timeout,
    )
    if args.format == "json":
        print(json.dumps(rows, indent=1))
    else:
        print(format_batch_table(rows))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(rows, handle, indent=1)
    failures = sum(1 for row in rows if not row["ok"])
    print(
        f"; {len(rows) - failures}/{len(rows)} workloads analysed",
        file=sys.stderr,
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiscoPoP-style parallelism discovery (staged engine)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="Phase 1 only: dependence profiling")
    p.add_argument("source", nargs="?",
                   help="source file (.py is Python, anything else MiniC)")
    p.add_argument("--workload", help="registry workload name instead")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--skip-loops", action="store_true",
                   help="enable the §2.4 skipping optimization")
    _add_run_options(p)
    _add_pipeline_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("discover", help="full pipeline: ranked suggestions")
    p.add_argument("source", nargs="?",
                   help="source file (.py is Python, anything else MiniC)")
    p.add_argument("--workload", help="registry workload name instead")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--threads", type=int, default=4,
                   help="thread count assumed by the ranking")
    p.add_argument("--load", metavar="PATH", default=None,
                   help="re-render a saved discovery result (no re-run)")
    _add_run_options(p)
    _add_pipeline_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser(
        "trace",
        help="run the pipeline with span tracing, export a Chrome trace",
    )
    p.add_argument("source", nargs="?",
                   help="source file (.py is Python, anything else MiniC)")
    p.add_argument("--workload", help="registry workload name instead")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--workers", type=int, default=4,
                   help="scheduler worker-pool width for the validate leg")
    p.add_argument("--no-validate", action="store_true",
                   help="skip the parallelize+validate leg (no ParallelVM "
                        "worker lanes on the timeline)")
    p.add_argument("-o", "--out", metavar="PATH", default=None,
                   help="trace output path (default: <name>.trace.json)")
    _add_run_options(p)
    _add_pipeline_options(p)
    # a trace without worker processes is mostly one lane: default to the
    # sharded detection core so the timeline carries per-process lanes
    p.set_defaults(func=cmd_trace, detect="sharded", detect_workers=2,
                   obs="trace")

    p = sub.add_parser(
        "stats",
        help="run with the metrics registry on, render the snapshot",
    )
    p.add_argument("source", nargs="?",
                   help="source file (.py is Python, anything else MiniC)")
    p.add_argument("--workload", help="registry workload name instead")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--load", metavar="PATH", default=None,
                   help="render the metrics of a saved discovery result")
    _add_run_options(p)
    _add_pipeline_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "parallelize",
        help="transform + execute + validate ranked suggestions",
    )
    p.add_argument("source", nargs="?",
                   help="source file (.py is Python, anything else MiniC)")
    p.add_argument("--workload", help="registry workload name instead")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--workers", type=int, default=4,
                   help="scheduler worker-pool width")
    p.add_argument("--quantum", type=int, default=256,
                   help="steps per worker per scheduler tick")
    _add_run_options(p)
    _add_pipeline_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_parallelize)

    p = sub.add_parser("report", help="profiling statistics + PET")
    p.add_argument("source", nargs="?",
                   help="source file (.py is Python, anything else MiniC)")
    p.add_argument("--workload", help="registry workload name instead")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--load", metavar="PATH", default=None,
                   help="render a saved artifact instead of re-running")
    _add_run_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("batch", help="fan workloads across a process pool")
    p.add_argument("workloads", nargs="*", help="registry workload names")
    p.add_argument("--suite", help="add every workload of a suite")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--jobs", type=int, default=None,
                   help="process-pool width (1 = in-process)")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--resume", metavar="DIR", default=None,
                   help="checkpoint directory: completed jobs are "
                        "skipped, crashed ones re-enter at their first "
                        "missing phase (docs/RESILIENCE.md)")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job wall-clock cap (each job then runs in "
                        "its own killable process)")
    _add_output_options(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "store",
        help="artifact-store maintenance: stats, integrity verify, GC",
    )
    p.add_argument("action", choices=("stats", "verify", "gc"),
                   help="stats: per-key size/last-access/lock table; "
                        "verify: check every artifact against its sha256 "
                        "sidecar (exit 1 on unhealed corruption); "
                        "gc: evict least-recently-used keys down to "
                        "--max-bytes, skipping locked/in-flight ones")
    p.add_argument("dir", help="store root (a batch --resume directory)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="gc: target store size in bytes")
    p.add_argument("--dry-run", action="store_true",
                   help="gc: report evictions without deleting")
    p.add_argument("--heal", action="store_true",
                   help="verify: quarantine corrupt entries to "
                        ".corrupt-N/ and sweep orphaned tmp files")
    p.add_argument("--lock-backend", choices=("auto", "flock", "lease"),
                   default="auto",
                   help="advisory lock implementation "
                        "(docs/RESILIENCE.md)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_store)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
