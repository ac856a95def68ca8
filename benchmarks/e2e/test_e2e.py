"""Smoke tests of the e2e benchmark harness (about 30 s).

Not part of tier-1 (``testpaths`` covers ``tests/`` only)::

    PYTHONPATH=src:. python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import agree, layers, measure, rounds
from benchmarks.e2e.spec import ROOT, WORKLOADS, load_catalogue

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _sections(stdout: str) -> dict:
    """workload -> {metric: unit} from the printed report."""
    sections: dict = {}
    current = None
    for line in stdout.splitlines():
        head = re.match(r"== (\S+):", line)
        if head:
            current = sections.setdefault(head.group(1), {})
            continue
        fields = line.split()
        if current is not None and len(fields) == 6 and fields[0] != "metric":
            current[fields[0]] = fields[5]
    return sections


def test_catalogue_names_are_valid():
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    names += [m["name"] for m in catalogue["end_to_end"]]
    names += [m["name"] for m in catalogue["per_layer"]]
    assert all(NAME_RE.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in catalogue["workloads"]] == list(WORKLOADS)
    assert len(catalogue["per_layer"]) <= 128
    setup = [m for m in catalogue["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in catalogue["end_to_end"]
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(trace):
    proc = _run("--seconds", "1", "--trace", trace,
                "--out", "benchmarks/e2e/out/tmp/quick.json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in load_catalogue()[kind]}
    assert _sections(proc.stdout) == {w: expected for w in WORKLOADS}


def test_single_workload_ends_with_the_result_line():
    proc = _run("--workload", "python-suite", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0


def test_wrong_reference_value_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(rounds, "reference_value", lambda *args: -12345)
    result = measure.measure("python-suite", seed=1, seconds=0, trace=False,
                             quick=True)
    ops = {(f["program"], f["op"], f["baseline"]) for f in result["failures"]}
    assert ("histogram_py", "return", False) in ops
    assert result["samples"]["ok_frac"][0] < 1.0


def test_detached_wrapper_trips_the_coverage_guard(monkeypatch):
    targets = layers.TARGETS + (
        ("gone", "repro.engine.core", "DiscoveryEngine.no_such_phase",
         layers.ALL),
        ("silent", "repro.engine.batch", "run_batch", ("python-suite",)),
    )
    monkeypatch.setattr(
        measure, "Recorder", lambda: layers.Recorder(targets=targets)
    )
    result = measure.measure("python-suite", seed=1, seconds=0, trace=True,
                             quick=True)
    guards = "\n".join(result["guards"])
    assert "missing: repro.engine.core:DiscoveryEngine.no_such_phase" in guards
    assert "span silent (repro.engine.batch:run_batch) recorded no call" in (
        guards
    )
    # the real wrapper table is complete on this workload
    assert guards.count("\n") == 1


def test_agree_flags_a_difference_beyond_the_bound():
    def side(*values):
        return agree.medians(
            {"workloads": {"apps-tasks": {"metrics": {
                "discover_s": {"median": v}}}}}
            for v in values
        )

    bounds = {"discover_s": 0.08}
    assert agree.compare(side(1.0), side(1.05), bounds)[1] == 0
    assert agree.compare(side(1.0), side(1.2), bounds)[1] == 1
    # a side of several runs stands for their median
    assert agree.compare(side(1.0), side(1.02, 1.5, 1.04), bounds)[1] == 0
