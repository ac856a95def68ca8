"""The bench suites' gates, checked through the runner without timing.

Each suite's ``run`` is replaced by its committed result under
``benchmarks/out``.  Its row lists are emptied: they hold an older row
format, and the gates read only the top-level fields.  Every gate must
pass at its threshold, and must fail the run, by name, just past it.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from benchmarks.suites import __main__ as runner

OUT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "out"

#: suite -> gate -> (a value at the threshold, which passes, then values
#: past it, which fail); each gate reads the field its name points at
BOUNDS = {
    "vm": {
        "all_traces_identical": (True, False),
        "all_stores_identical": (True, False),
        "traced_speedup_geomean": (2.0, 1.99),
        "profile_speedup_geomean": (1.25, 1.24),
    },
    "detect": {
        "all_stores_identical": (True, False),
        "detect_speedup_geomean": (3.0, 2.99),
        "profile_speedup_geomean": (1.5, 1.49),
        "sharded_all_identical": (True, False),
        "sampling_precision_min": (0.95, 0.94),
        "sampling_recall_min": (0.95, 0.94),
    },
    "detect-scale": {
        "store_identical": (True, False),
        "sampled.precision": (0.95, 0.94),
        "sampled.recall": (0.95, 0.94),
        # enforced only with a CPU per worker; the test gives it one
        "sharded_speedup": (2.5, 2.49),
    },
    "obs": {
        "all_stores_identical": (True, False),
        "disabled_overhead_pct_max": (2.0, 2.01),
    },
    "faults": {
        "all_recovered": (True, False),
        "all_stores_identical": (True, False),
        "degraded_runs": (1, 0, 2),
    },
    "store": {
        "reference_ok": (True, False),
        "all_stores_identical": (True, False),
        "all_rows_ok": (True, False),
        "all_exits_ok": (True, False),
        "torn_reads": (0, 1),
        "healed_corruptions": (2, 1),
        "lock_steals": (1, 0),
        "computed_once": (True, False),
        "min_concurrent_writers": (2, 1),
    },
}


def committed(suite: str) -> dict:
    if suite == "detect-scale":
        data = json.loads((OUT / "BENCH_detect.json").read_text())["scale"]
    else:
        data = json.loads((OUT / f"BENCH_{suite}.json").read_text())
    return {k: [] if isinstance(v, list) else v for k, v in data.items()}


def put(result: dict, path: str, value) -> None:
    *parents, last = path.split(".")
    for key in parents:
        result = result[key]
    result[last] = value


def run_suite(monkeypatch, tmp_path, capsys, suite: str, result: dict):
    """Exit code and failing gate names of the runner on ``result``."""
    monkeypatch.setattr(runner.load(suite), "run", lambda quick: result)
    code = runner.main([suite, "--save", str(tmp_path / "result.json")])
    out = capsys.readouterr().out
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith("FAIL ")]
    return code, failed


def test_runner_serves_every_suite():
    assert set(runner.SUITES) == set(BOUNDS)


@pytest.mark.parametrize("suite", sorted(BOUNDS))
def test_every_gate_is_bounded_here(suite):
    assert [name for name, _ in runner.load(suite).GATES] == list(
        BOUNDS[suite]
    )


@pytest.mark.parametrize("suite", sorted(BOUNDS))
def test_committed_result_clears_every_gate(
    suite, monkeypatch, tmp_path, capsys
):
    result = committed(suite)
    code, failed = run_suite(monkeypatch, tmp_path, capsys, suite, result)
    assert (code, failed) == (0, [])
    saved = json.loads((tmp_path / "result.json").read_text())
    assert saved["bench"] == suite and saved["quick"] is False


@pytest.mark.parametrize(
    "suite,gate", [(s, g) for s in sorted(BOUNDS) for g in BOUNDS[s]]
)
def test_gate_fails_the_run_past_its_threshold(
    suite, gate, monkeypatch, tmp_path, capsys
):
    passing, *failing = BOUNDS[suite][gate]
    base = committed(suite)
    if gate == "sharded_speedup":
        base["cpus"] = base["workers"]
    result = copy.deepcopy(base)
    put(result, gate, passing)
    assert run_suite(monkeypatch, tmp_path, capsys, suite, result) == (0, [])
    for value in failing:
        result = copy.deepcopy(base)
        put(result, gate, value)
        assert run_suite(monkeypatch, tmp_path, capsys, suite, result) == (
            1, [gate],
        )


def test_scale_speedup_is_not_enforced_without_a_cpu_per_worker(
    monkeypatch, tmp_path, capsys
):
    result = committed("detect-scale")
    result.update(cpus=1, workers=4, sharded_speedup=0.5)
    assert run_suite(
        monkeypatch, tmp_path, capsys, "detect-scale", result
    ) == (0, [])
