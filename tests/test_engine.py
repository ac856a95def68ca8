"""Tests for the staged DiscoveryEngine API (config, phases, artifacts,
JSON round-trips, batch, and the unified CLI)."""

import json

import pytest

from repro.discovery import call_sites
from repro.engine import (
    CUArtifact,
    DetectArtifact,
    DiscoveryConfig,
    DiscoveryEngine,
    DiscoveryResult,
    ProfileArtifact,
    RankArtifact,
    job_for_source,
    job_for_workload,
    load_artifact,
    run_batch,
    save_artifact,
)
from repro.workloads import get_workload

LOOPY = """int a[64];
int b[64];
int total;
int main() {
  for (int i = 0; i < 64; i++) {
    a[i] = i * 3;
  }
  for (int i = 0; i < 64; i++) {
    b[i] = a[i] + 1;
  }
  for (int i = 0; i < 64; i++) {
    total += b[i];
  }
  return total;
}
"""

TASKY = """int x;
int y;
int left(int n) {
  x = n * 2;
  return x + 1;
}
int right(int n) {
  y = n * 3;
  return y + 1;
}
int main() {
  int p = left(5);
  int q = right(7);
  return p + q;
}
"""


@pytest.fixture(scope="module")
def engine():
    return DiscoveryEngine.from_source(LOOPY)


class TestConfig:
    def test_round_trip(self):
        config = DiscoveryConfig(
            source=LOOPY, name="loopy", n_threads=8,
            signature_slots=4096, seed=7, vm_kwargs={"quantum": 32},
        )
        again = DiscoveryConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert again == config

    def test_replace(self):
        config = DiscoveryConfig(source=LOOPY, n_threads=4)
        bumped = config.replace(n_threads=16)
        assert bumped.n_threads == 16
        assert config.n_threads == 4
        assert bumped.source == LOOPY

    def test_seed_folds_into_vm_kwargs(self):
        config = DiscoveryConfig(seed=99)
        assert config.resolved_vm_kwargs() == {
            "seed": 99, "dispatch": "compiled"
        }
        explicit = DiscoveryConfig(seed=99, vm_kwargs={"seed": 3})
        assert explicit.resolved_vm_kwargs() == {
            "seed": 3, "dispatch": "compiled"
        }
        switched = DiscoveryConfig(dispatch="switch")
        assert switched.resolved_vm_kwargs() == {"dispatch": "switch"}


class TestPhaseCaching:
    def test_rank_rethreads_without_vm_rerun(self):
        engine = DiscoveryEngine.from_source(LOOPY)
        ranked4 = engine.rank()
        ranked8 = engine.rank(n_threads=8)
        # the expensive phase ran exactly once for both rankings
        assert engine.vm_runs == 1
        assert ranked4.n_threads == 4 and ranked8.n_threads == 8
        # identical suggestions modulo scores
        assert [
            (s.kind, s.func, s.start_line, s.end_line)
            for s in ranked4.suggestions
        ] == [
            (s.kind, s.func, s.start_line, s.end_line)
            for s in ranked8.suggestions
        ]
        speedups8 = {s.scores.local_speedup for s in ranked8.suggestions}
        assert 8.0 in speedups8  # DOALL loops scale with threads

    def test_phases_cache_and_run_reuses(self):
        engine = DiscoveryEngine.from_source(LOOPY)
        profile = engine.profile()
        assert engine.profile() is profile
        cus = engine.build_cus()
        assert engine.build_cus() is cus
        detect = engine.detect()
        assert engine.detect() is detect
        engine.run()
        engine.run(n_threads=8)
        assert engine.vm_runs == 1

    def test_force_reprofiles_and_invalidates_downstream(self):
        engine = DiscoveryEngine.from_source(LOOPY)
        first = engine.run()
        engine.profile(force=True)
        assert engine.vm_runs == 2
        second = engine.run()
        assert second.format_report() == first.format_report()


class TestArtifactRoundTrips:
    def _round_trip(self, artifact, cls):
        data = artifact.to_dict()
        again = cls.from_dict(json.loads(json.dumps(data)))
        assert again.to_dict() == data
        return again

    def test_profile_artifact(self, engine):
        profile = engine.profile()
        again = self._round_trip(profile, ProfileArtifact)
        assert len(again.store) == len(profile.store)
        assert again.control.keys() == profile.control.keys()
        assert again.return_value == profile.return_value

    def test_cu_artifact(self, engine):
        cus = engine.build_cus()
        again = self._round_trip(cus, CUArtifact)
        assert len(again.registry) == len(cus.registry)
        assert again.total_instructions == cus.total_instructions
        region_id = next(iter(cus.registry.by_region))
        assert [cu.lines for cu in again.registry.cus_of_region(region_id)] \
            == [cu.lines for cu in cus.registry.cus_of_region(region_id)]

    def test_detect_artifact(self, engine):
        detect = engine.detect()
        again = self._round_trip(detect, DetectArtifact)
        assert [info.classification for info in again.loops] == [
            info.classification for info in detect.loops
        ]

    def test_rank_artifact(self, engine):
        ranked = engine.rank()
        again = self._round_trip(ranked, RankArtifact)
        assert [s.render() for s in again.suggestions] == [
            s.render() for s in ranked.suggestions
        ]

    def test_discovery_result_identical_report(self, engine):
        result = engine.run()
        again = self._round_trip(result, DiscoveryResult)
        assert again.format_report() == result.format_report()

    def test_task_artifacts_round_trip(self):
        # fib: recursive SPMD group; TASKY: MPMD-ish function containers
        result = DiscoveryEngine.from_source(
            get_workload("fib").source(1)
        ).run()
        spmd = [s for s in result.suggestions if s.kind == "SPMD"]
        assert spmd
        again = DiscoveryResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert again.format_report() == result.format_report()
        fta = again.functions["fib"]
        assert fta.spmd_groups and fta.spmd_groups[0].is_recursive
        assert fta.cu_graph is None  # live graph is not serialized

    def test_loop_task_containers_round_trip(self):
        result = DiscoveryEngine.from_source(TASKY).run()
        data = result.to_dict()
        again = DiscoveryResult.from_dict(data)
        assert again.to_dict() == data
        assert set(again.loop_tasks) == set(result.loop_tasks)

    def test_save_and_load_artifact(self, engine, tmp_path):
        result = engine.run()
        path = str(tmp_path / "result.json")
        save_artifact(result, path)
        again = load_artifact(path)
        assert isinstance(again, DiscoveryResult)
        assert again.format_report() == result.format_report()
        prof_path = str(tmp_path / "profile.json")
        save_artifact(engine.profile(), prof_path)
        assert isinstance(load_artifact(prof_path), ProfileArtifact)

    def test_loop_tasks_defaults_to_empty_dict(self, engine):
        result = engine.run()
        bare = DiscoveryResult(
            module=None,
            return_value=0,
            store=result.store,
            control={},
            registry=None,
            line_counts={},
            total_instructions=0,
            loops=[],
            functions={},
            suggestions=[],
            pet=None,
        )
        assert bare.loop_tasks == {}


class TestCallSites:
    def test_public_name(self):
        from repro.mir.lowering import compile_source

        module = compile_source(TASKY)
        region = module.region_of_function("main")
        sites = call_sites(module, region)
        assert set(sites.values()) == {"left", "right"}


class TestBatch:
    def test_serial_batch_over_sources_and_workloads(self):
        rows = run_batch(
            [
                job_for_source(LOOPY, name="loopy"),
                job_for_workload("fib", n_threads=8),
            ],
            jobs_parallel=1,
        )
        assert [row["name"] for row in rows] == ["loopy", "fib"]
        assert all(row["ok"] for row in rows)
        assert rows[1]["n_threads"] == 8
        assert rows[0]["suggestions"] >= 2

    def test_bad_job_becomes_error_row(self):
        rows = run_batch(
            [job_for_source("int main() { return missing(); }")],
            jobs_parallel=1,
        )
        assert not rows[0]["ok"]
        assert "error" in rows[0]

    def test_unknown_workload_becomes_error_row(self):
        rows = run_batch(
            [job_for_workload("no-such-workload"), job_for_workload("fib")],
            jobs_parallel=1,
        )
        assert not rows[0]["ok"] and "KeyError" in rows[0]["error"]
        assert rows[1]["ok"]  # the bad job did not sink the batch

    def test_process_pool_batch(self):
        rows = run_batch(
            [job_for_workload("fib"), job_for_source(LOOPY, name="loopy")],
            jobs_parallel=2,
        )
        assert [row["name"] for row in rows] == ["fib", "loopy"]
        assert all(row["ok"] for row in rows)


class TestUnifiedCLI:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "prog.mc"
        path.write_text(LOOPY)
        return str(path)

    def test_discover_text(self, source_file, capsys):
        from repro.cli import main

        assert main(["discover", source_file]) == 0
        out = capsys.readouterr().out
        assert "DOALL" in out
        assert "#pragma omp parallel for" in out

    def test_discover_json_round_trips(self, source_file, capsys):
        from repro.cli import main

        assert main(["discover", source_file]) == 0
        text_report = capsys.readouterr().out.strip()
        assert main(["discover", source_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["artifact"] == "discovery_result"
        again = DiscoveryResult.from_dict(data)
        assert again.format_report().strip() == text_report

    def test_save_then_load_report(self, source_file, tmp_path, capsys):
        from repro.cli import main

        saved = str(tmp_path / "artifact.json")
        assert main(["discover", source_file, "--save", saved]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--load", saved]) == 0
        second = capsys.readouterr().out
        assert second.strip() == first.strip()

    def test_profile_json(self, source_file, capsys):
        from repro.cli import main

        assert main(["profile", source_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["artifact"] == "profile"
        assert data["stats"]["accesses"] > 0
        assert ProfileArtifact.from_dict(data).return_value \
            == data["return_value"]

    def test_report_from_source(self, source_file, capsys):
        from repro.cli import main

        assert main(["report", source_file]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "loop @" in out

    def test_workload_flag(self, capsys):
        from repro.cli import main

        assert main(["discover", "--workload", "fib"]) == 0
        assert "SPMD" in capsys.readouterr().out

    def test_batch_json(self, capsys):
        from repro.cli import main

        assert main(
            ["batch", "fib", "--jobs", "1", "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == "fib" and rows[0]["ok"]

    def test_batch_unknown_suite_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown suite"):
            main(["batch", "--suite", "nope"])

    def test_report_load_renders_any_artifact_kind(
        self, source_file, tmp_path, capsys
    ):
        from repro.cli import main

        engine = DiscoveryEngine.from_source(LOOPY)
        for artifact, marker in (
            (engine.profile(), "BGN loop"),
            (engine.build_cus(), '"artifact": "cus"'),
            (engine.rank(), "DOALL"),
        ):
            path = str(tmp_path / "artifact.json")
            save_artifact(artifact, path)
            assert main(["report", "--load", path]) == 0
            assert marker in capsys.readouterr().out
