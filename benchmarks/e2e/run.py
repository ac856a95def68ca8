"""End-to-end discover benchmark.

From the repository root::

    PYTHONPATH=src:. python -m benchmarks.e2e                  # all workloads
    PYTHONPATH=src:. python -m benchmarks.e2e --trace          # per-layer run
    python3 benchmarks/e2e/run.py --workload apps-tasks --seed 3 \\
        --seconds 20 --trace 0                                 # one workload

Every workload runs in its own child process (:mod:`.measure`).  For an
untraced run this process first times set-up: a fresh interpreter that
imports ``repro`` and compiles the workload's programs, several times.
It prints every metric of ``BENCHMARK.json`` with its unit, median,
quartiles and sample count, and the failed operations by program:line.
With ``--workload`` the last line of standard output is the JSON
result; without it the results go to ``out/BENCH_e2e.json`` (or
``out/BENCH_e2e_trace.json``) and a text copy beside it.  A traced run
also writes one Chrome trace per workload to ``out/traces/``, which
Perfetto opens.  Exit status 1 means an unexpected failed operation or
a failed trace guard; 2 means the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.spec import ROOT, WORKLOADS, load_catalogue  # noqa: E402

OUT = ROOT / "benchmarks" / "e2e" / "out"
#: fresh interpreters timed before and again after the measurement
#: child (median of both reported), so one slow patch of a shared host
#: cannot carry the median
SETUP_PROCESSES = 3
#: a set-up process or child that runs longer than this is killed (the
#: whole run has 180 s)
SETUP_TIMEOUT = 60.0
CHILD_TIMEOUT = 170.0

SETUP_CODE = (
    "import json, sys\n"
    "import repro\n"
    "from repro.workloads import get_workload\n"
    "for name, scale in json.loads(sys.argv[1]):\n"
    "    get_workload(name).compile(scale)\n"
)


def summarize(values) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and count."""
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (median, median, median)
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _env() -> dict:
    """Child environment: the checkout on the path, and a fixed string
    hash seed.  Randomised hashing reorders sets and dicts from process
    to process, which moves the child's peak RSS by up to 10% while
    every output stays the same."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(spec, processes: int) -> list:
    """Wall seconds of fresh interpreters importing repro and compiling.

    One untimed process goes first: it fills the file cache and any
    bytecode cache, and lets the CPU clock up from idle, which on a
    shared host moves a 0.3 s sample by tens of percent.  Waits with a
    blocking ``wait()``: ``subprocess.run(timeout=...)`` polls in steps
    of up to 50 ms, which would quantize the samples.  A timer kills a
    process that hangs instead.
    """
    cmd = [sys.executable, "-c", SETUP_CODE,
           json.dumps([[name, spec.scale] for name in spec.programs])]
    env = _env()
    samples = []
    for _ in range(processes + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL) as proc:
            watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                returncode = proc.wait()
            finally:
                watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if returncode != 0:
            raise RuntimeError(f"set-up process exited {returncode}")
    return samples[1:]


def run_child(workload: str, args, trace_path) -> dict:
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.measure",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        cmd.append("--quick")
    if trace_path is not None:
        cmd += ["--trace-path", str(trace_path)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"{workload}: measurement child exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(workload: str, args, declared: dict) -> dict:
    """Set-up timing (untraced runs) + the child; checked and summarized."""
    spec = WORKLOADS[workload]
    trace_path = None
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = OUT / "traces" / f"{workload}.json"
    samples = {}
    setup_processes = 1 if args.quick else SETUP_PROCESSES
    if not args.trace:
        samples["setup_s"] = time_setup(spec, setup_processes)
    child = run_child(workload, args, trace_path)
    if not args.trace:
        samples["setup_s"] += time_setup(spec, setup_processes)
    samples.update(child["samples"])
    if set(samples) != set(declared):
        raise RuntimeError(
            f"{workload}: metrics measured {sorted(samples)} differ from "
            f"BENCHMARK.json {sorted(declared)}"
        )
    failed = sum(f["count"] for f in child["failures"] if not f["baseline"])
    return {
        "correct": failed == 0,
        "attempted": child["attempted"],
        "failed": failed,
        "failures": child["failures"],
        "guards": child["guards"],
        "rounds": child["rounds"],
        "programs": child["programs"],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "metrics": {
            name: {"unit": declared[name]["unit"], **summarize(samples[name])}
            for name in declared
        },
    }


def format_report(workload: str, result: dict, args) -> str:
    mode = "traced" if args.trace else "untraced"
    lines = [
        f"== {workload}: seed {args.seed}, {args.seconds:g} s, {mode}, "
        f"{result['rounds']} rounds ==",
        f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit",
    ]
    for name, m in result["metrics"].items():
        lines.append(
            f"  {name:<28}{m['median']:>14.6g}{m['q1']:>14.6g}"
            f"{m['q3']:>14.6g}{m['n']:>4}  {m['unit']}"
        )
    baseline = sum(f["count"] for f in result["failures"] if f["baseline"])
    lines.append(
        f"  operations: {result['attempted']} attempted, "
        f"{result['failed']} failed, {baseline} in the recorded baseline"
    )
    for f in result["failures"]:
        tag = "baseline" if f["baseline"] else "FAILED"
        lines.append(
            f"  {tag} x{f['count']}: {f['program']} {f['where']} "
            f"[{f['op']}] {f['detail']}"
        )
    for message in result["guards"]:
        lines.append(f"  GUARD: {message}")
    if result["trace_file"]:
        lines.append(f"  chrome trace: {result['trace_file']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    catalogue = load_catalogue()
    parser = argparse.ArgumentParser(
        description="End-to-end discover benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=catalogue["run_seconds"],
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run (metrics of 'per_layer')")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: smallest program, one round")
    parser.add_argument("--out", type=Path,
                        help="result file (default with all workloads: "
                             "out/BENCH_e2e[_trace].json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = {
        m["name"]: m
        for m in catalogue["per_layer" if args.trace else "end_to_end"]
    }
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results, reports = {}, []
    for workload in workloads:
        results[workload] = measure_workload(workload, args, declared)
        reports.append(format_report(workload, results[workload], args))
        print(reports[-1], flush=True)

    out = args.out
    if out is None and args.workload is None:
        out = OUT / ("BENCH_e2e_trace.json" if args.trace else "BENCH_e2e.json")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "benchmark": "e2e",
            "trace": bool(args.trace),
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "host": {
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "workloads": results,
        }
        out.write_text(json.dumps(doc, indent=1) + "\n")
        out.with_suffix(".txt").write_text("\n\n".join(reports) + "\n")
        print(f"wrote {out}")

    ok = all(r["correct"] and not r["guards"] for r in results.values())
    if args.workload is not None and not results[args.workload]["guards"]:
        result = results[args.workload]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
