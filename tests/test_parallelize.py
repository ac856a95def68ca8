"""Auto-parallelization subsystem: transforms, scheduler, validation.

Covers the full discover → transform → execute → validate loop: DOALL
chunk outlining (privatization, reductions, lastprivate, global-scalar
redirection), task-graph outlining with spawn/join edges, the
work-stealing scheduler's determinism, bit-for-bit validation against the
sequential reference, and the engine/CLI integration — plus the satellite
regressions (exec_model edge cases, DOACROSS pragma, transform-field
round-trips).
"""

import gc
import json
import re
import weakref

import pytest

from repro.discovery.loops import LoopClass, LoopInfo
from repro.discovery.suggestions import Suggestion
from repro.engine import (
    DiscoveryConfig,
    DiscoveryEngine,
    DiscoveryResult,
    ValidationArtifact,
    load_artifact,
    save_artifact,
)
from repro.parallelize import (
    DoallPlan,
    ParallelVM,
    TaskPlan,
    TransformPlan,
    build_transform_plan,
    validate_plan,
)
from repro.parallelize.plan import ChunkSpec, TaskSpec
from repro.parallelize.validate import (
    ValidationReport,
    run_sequential_reference,
)
from repro.runtime.interpreter import VM
from repro.simulate.exec_model import simulate_doall, simulate_pipeline
from repro.workloads import get_workload

#: a DOALL init loop, a reduction over a local, and a global reduction
DOALL_SRC = """int a[96];
int total;

int main() {
  for (int i = 0; i < 96; i++) {
    a[i] = i * 3 + 1;
  }
  int check = 0;
  for (int i = 0; i < 96; i++) {
    check += a[i];
  }
  for (int i = 0; i < 96; i++) {
    total += a[i] * 2;
  }
  return check + total;
}
"""

#: an MPMD pipeline: two independent producers feeding a combiner
TASK_SRC = """int xs[64];
int ys[64];
int sx;
int sy;

void fill_x(int n) {
  for (int i = 0; i < n; i++) {
    xs[i] = i * 2;
  }
}

void fill_y(int n) {
  for (int i = 0; i < n; i++) {
    ys[i] = i * 5;
  }
}

int sum_x(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s += xs[i];
  }
  return s;
}

int sum_y(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s += ys[i];
  }
  return s;
}

int main() {
  int n = 64;
  fill_x(n);
  fill_y(n);
  sx = sum_x(n);
  sy = sum_y(n);
  return sx + sy;
}
"""


def _plan_for(source, *, n_workers=4, name="prog", n_threads=4):
    engine = DiscoveryEngine(
        config=DiscoveryConfig(source=source, name=name, n_threads=n_threads)
    )
    result = engine.run()
    plan = build_transform_plan(
        engine.module,
        result.suggestions,
        engine.profile().control,
        n_workers=n_workers,
        name=name,
    )
    return engine, result, plan


class TestDoallTransform:
    def test_chunks_cover_iteration_space(self):
        _engine, _result, plan = _plan_for(DOALL_SRC)
        feasible = [
            e
            for e in plan.entries
            if e.feasible and isinstance(e, DoallPlan)
        ]
        assert feasible, plan.format_table()
        for entry in feasible:
            assert sum(c.iterations for c in entry.chunks) == entry.iterations
            assert entry.chunks[0].lo == entry.init_value
            assert entry.chunks[-1].hi == entry.final_value

    def test_outlined_functions_exist_in_clone_only(self):
        engine, _result, plan = _plan_for(DOALL_SRC)
        index, entry = next(
            (i, e) for i, e in enumerate(plan.entries) if e.feasible
        )
        clone = plan.modules[index]
        for chunk in entry.chunks:
            assert chunk.function in clone.functions
            assert chunk.function not in engine.module.functions
        # the original module's parent function is untouched
        parent = engine.module.functions[entry.func]
        assert all(i.op != "pfork" for i in parent.code)
        assert any(
            i.op == "pfork" for i in clone.functions[entry.func].code
        )

    def test_global_reduction_redirected(self):
        _engine, _result, plan = _plan_for(DOALL_SRC)
        global_red = [
            e
            for e in plan.entries
            if e.feasible
            and isinstance(e, DoallPlan)
            and "total" in e.reduction_slots
        ]
        assert global_red, plan.format_table()
        entry = global_red[0]
        # the redirected slot lives past the original frame and maps home
        slot = entry.reduction_slots["total"]
        assert slot in entry.global_homes

    def test_validates_identical_with_speedup(self):
        engine, result, plan = _plan_for(DOALL_SRC)
        reports = validate_plan(
            engine.module, plan, suggestions=result.suggestions
        )
        ok = [r for r in reports if r.feasible]
        assert ok
        for report in ok:
            assert report.identical, report.render()
            assert report.measured_speedup > 1.0
            assert report.predicted_speedup > 0.0

    def test_infeasible_shapes_are_reported_not_transformed(self):
        src = """int a[32];
int main() {
  int i = 0;
  while (i < 32) {
    a[i] = i;
    i = i + 1;
  }
  return a[31];
}
"""
        _engine, result, plan = _plan_for(src)
        # the while loop has no for-style iteration variable
        assert all(not e.feasible for e in plan.entries)
        for e in plan.entries:
            assert e.reason


class TestTaskGraphTransform:
    def test_outlines_tasks_with_join_edges(self):
        _engine, _result, plan = _plan_for(TASK_SRC)
        tasks = [
            e for e in plan.entries if isinstance(e, TaskPlan) and e.feasible
        ]
        assert tasks, plan.format_table()
        entry = tasks[0]
        assert len(entry.tasks) >= 2
        # at least one dependence edge survived into the specs
        assert any(t.deps for t in entry.tasks)

    def test_validates_identical(self):
        engine, result, plan = _plan_for(TASK_SRC)
        reports = validate_plan(
            engine.module, plan, suggestions=result.suggestions
        )
        ok = [r for r in reports if r.feasible and r.kind == "MPMD"]
        assert ok
        for report in ok:
            assert report.identical, report.render()
            assert report.measured_speedup > 1.0

    def test_facedetection_frame_loop(self):
        w = get_workload("facedetection")
        engine, result, plan = _plan_for(
            w.source(1), name="facedetection"
        )
        mpmd = [
            (i, e)
            for i, e in enumerate(plan.entries)
            if isinstance(e, TaskPlan) and e.feasible
        ]
        assert mpmd, plan.format_table()
        reports = validate_plan(
            engine.module, plan, suggestions=result.suggestions
        )
        ok = [r for r in reports if r.feasible and r.kind == "MPMD"]
        assert ok and all(r.identical for r in ok)
        assert any(r.measured_speedup > 1.0 for r in ok)

    def test_task_node_splitting_a_loop_is_infeasible(self):
        # cg_py's main:8 graph puts a loop's enter/iter markers in one
        # node and its exit (on the last line, shared with a nested
        # loop) in another; outlined, an iter would find no open loop
        w = get_workload("cg_py")
        engine = DiscoveryEngine(config=DiscoveryConfig(
            source=w.source(1), name="cg_py", entry=w.entry,
            frontend=w.frontend,
        ))
        plan = engine.parallelize()
        entry = next(
            e for e in plan.entries
            if isinstance(e, TaskPlan) and e.start_line == 8
        )
        assert not entry.feasible
        assert re.fullmatch(
            r"task node \d+ splits loop region \d+ \(lines \d+-\d+\)",
            entry.reason,
        ), entry.reason
        assert plan.entries.index(entry) not in plan.modules


def _track_vms(monkeypatch) -> list:
    """Weak references to every VM constructed from now on."""
    refs = []
    init = VM.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(VM, "__init__", tracking_init)
    return refs


class TestVMLifetime:
    """A finished VM is freed by reference counting alone: its compiled
    closure tables (which capture it) are released when its run ends,
    and nothing downstream of a run keeps it."""

    def test_no_vm_outlives_its_validation_run(self, monkeypatch):
        engine, result, plan = _plan_for(DOALL_SRC)
        assert plan.feasible_entries
        refs = _track_vms(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            seq = run_sequential_reference(engine.module)
            assert len(refs) == 1 and refs[0]() is None
            reports = validate_plan(
                engine.module, plan, suggestions=result.suggestions,
                seq=seq,
            )
            assert all(r.identical for r in reports if r.feasible)
            parallel = refs[1:]
            assert len(parallel) == len(plan.feasible_entries)
            assert all(ref() is None for ref in parallel)
        finally:
            gc.enable()

    @pytest.mark.parametrize("options", [
        {},
        {"detect": "loop"},
        {"skip_loops": True},
        {"backend": "parallel", "spill_trace": True},
    ])
    def test_no_vm_outlives_the_profile_phase(self, monkeypatch, options):
        # the chunks carry the signature table, so neither the profile
        # artifact nor the detection backend needs the recording VM
        engine = DiscoveryEngine.from_source(DOALL_SRC, **options)
        refs = _track_vms(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            profile = engine.profile()
            assert len(refs) == 1 and refs[0]() is None
            assert any(dep.loop_carried for dep in profile.store)
        finally:
            gc.enable()


class TestScheduler:
    def test_deterministic_for_fixed_seed(self):
        engine, result, plan = _plan_for(DOALL_SRC)
        index = next(i for i, e in enumerate(plan.entries) if e.feasible)
        module = plan.modules[index]

        def run_once(seed):
            vm = ParallelVM(module, plan, n_workers=4, seed=seed)
            value = vm.run("main")
            return value, vm.stats.makespan_units, vm.stats.steals

        first = run_once(7)
        second = run_once(7)
        assert first == second

    def test_single_worker_matches_sequential_result(self):
        engine, result, plan = _plan_for(DOALL_SRC, n_workers=1)
        reports = validate_plan(
            engine.module, plan, n_workers=1,
            suggestions=result.suggestions,
        )
        ok = [r for r in reports if r.feasible]
        assert ok
        for report in ok:
            assert report.identical

    def test_worker_scaling_improves_makespan(self):
        # the same plan executed with more workers must not slow down
        speedups = {}
        for workers in (1, 4):
            engine, result, plan = _plan_for(
                DOALL_SRC, n_workers=workers
            )
            reports = validate_plan(
                engine.module, plan, n_workers=workers,
                suggestions=result.suggestions,
            )
            best = max(
                r.measured_speedup for r in reports if r.feasible
            )
            speedups[workers] = best
        assert speedups[4] > speedups[1]

    def test_plain_vm_refuses_transformed_module(self):
        from repro.runtime.interpreter import VM, VMError

        _engine, _result, plan = _plan_for(DOALL_SRC)
        index = next(i for i, e in enumerate(plan.entries) if e.feasible)
        module = plan.modules[index]
        vm = VM(module, None, instrument=False)
        with pytest.raises(VMError, match="parallelize scheduler"):
            vm.run("main")


class TestSchedulerNativeThreads:
    """Programs using the native spawn/join/lock opcodes outside the
    transformed region must still run under the worker pool."""

    SRC = """int a[128];
int partial[2];

void half(int t) {
  int base = t * 64;
  int s = 0;
  for (int i = 0; i < 64; i++) {
    s += a[base + i];
  }
  partial[t] = s;
}

int main() {
  for (int i = 0; i < 128; i++) {
    a[i] = i * 3;
  }
  int t0 = spawn half(0);
  int t1 = spawn half(1);
  join(t0); join(t1);
  return partial[0] + partial[1];
}
"""

    def test_spawned_threads_are_scheduled(self):
        engine, result, plan = _plan_for(self.SRC)
        reports = validate_plan(
            engine.module, plan, suggestions=result.suggestions
        )
        ok = [r for r in reports if r.feasible]
        assert ok, plan.format_table()
        for report in ok:
            assert not any(
                "stalled" in m for m in report.mismatches
            ), report.render()
            assert report.identical, report.render()

    def test_unjoined_spawn_runs_to_completion(self):
        # like the base VM, the pool must drain spawned threads main never
        # joins — their writes belong to the final state
        src = """int a[64];
int flag;

void tail() {
  flag = 7;
}

int main() {
  for (int i = 0; i < 64; i++) {
    a[i] = i * 3;
  }
  int t = spawn tail();
  return a[63];
}
"""
        for workers in (1, 2, 4):
            engine, result, plan = _plan_for(src, n_workers=workers)
            reports = validate_plan(
                engine.module, plan, n_workers=workers,
                suggestions=result.suggestions,
            )
            ok = [r for r in reports if r.feasible]
            assert ok
            for report in ok:
                assert report.identical, (workers, report.render())

    def test_threaded_registry_workload_does_not_stall(self):
        w = get_workload("md5-pthread")
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=w.source(1), name="md5p", entry=w.entry
            )
        )
        artifact = engine.validate()
        for r in artifact.reports:
            assert "stalled" not in (r.reason or ""), r.to_dict()


class TestNonAdditiveReductions:
    def test_multiplicative_reduction_declined(self):
        src = """int main() {
  int prod = 1;
  for (int i = 0; i < 12; i++) {
    prod = prod * 2;
  }
  return prod;
}
"""
        _engine, _result, plan = _plan_for(src)
        doall = [e for e in plan.entries if isinstance(e, DoallPlan)]
        assert doall
        for entry in doall:
            if "prod" in (entry.reason or "") or not entry.feasible:
                assert not entry.feasible
        declined = [
            e for e in doall if e.reason and "additive" in e.reason
        ]
        assert declined, [e.to_dict() for e in doall]

    def test_subtractive_reduction_still_transforms(self):
        src = """int a[64];
int main() {
  for (int i = 0; i < 64; i++) {
    a[i] = i;
  }
  int s = 10000;
  for (int i = 0; i < 64; i++) {
    s = s - a[i];
  }
  return s;
}
"""
        engine, result, plan = _plan_for(src)
        feasible = [
            e
            for e in plan.entries
            if isinstance(e, DoallPlan) and e.feasible and e.reduction_slots
        ]
        assert feasible, plan.format_table()
        reports = validate_plan(
            engine.module, plan, suggestions=result.suggestions
        )
        assert all(r.identical for r in reports if r.feasible)


class TestEngineRegressions:
    def test_vm_kwargs_quantum_does_not_collide(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=DOALL_SRC, name="p",
                vm_kwargs={"quantum": 32}, validate=True,
            )
        )
        result = engine.run()
        ok = [r for r in result.validations if r.feasible]
        assert ok and all(r.identical for r in ok)

    def test_run_with_thread_count_validates_same_ranking(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=DOALL_SRC, name="p", validate=True
            )
        )
        result = engine.run(n_threads=8)
        assert result.n_threads == 8
        assert engine.rank().n_threads == 8  # cache not clobbered
        planned = [s for s in result.suggestions if s.transform]
        assert planned, "transform summaries must land on the returned ranking"

    def test_sequential_reference_cached_across_worker_sweeps(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(source=DOALL_SRC, name="p")
        )
        first = engine.validate(2)
        runs_after_first = engine.validation_runs
        second = engine.validate(4)
        feasible = sum(1 for r in second.reports if r.feasible)
        # the second sweep adds only its parallel runs, not another
        # sequential reference
        assert engine.validation_runs == runs_after_first + feasible


class TestPlanSerialization:
    def test_transform_plan_round_trip(self):
        _engine, _result, plan = _plan_for(DOALL_SRC)
        data = json.loads(json.dumps(plan.to_dict()))
        again = TransformPlan.from_dict(data)
        assert again.to_dict() == plan.to_dict()
        assert len(again.entries) == len(plan.entries)

    def test_plan_artifact_save_load(self, tmp_path):
        _engine, _result, plan = _plan_for(TASK_SRC)
        path = tmp_path / "plan.json"
        save_artifact(plan, str(path))
        again = load_artifact(str(path))
        assert isinstance(again, TransformPlan)
        assert again.to_dict() == plan.to_dict()

    def test_validation_report_round_trip(self):
        engine, result, plan = _plan_for(DOALL_SRC)
        reports = validate_plan(
            engine.module, plan, suggestions=result.suggestions
        )
        for report in reports:
            again = ValidationReport.from_dict(
                json.loads(json.dumps(report.to_dict()))
            )
            assert again.to_dict() == report.to_dict()

    def test_chunk_and_task_specs_round_trip(self):
        chunk = ChunkSpec(index=1, lo=10, hi=20, iterations=10,
                          function="__doall_main_r2_c1")
        assert ChunkSpec.from_dict(chunk.to_dict()) == chunk
        spec = TaskSpec(node_id=3, function="__task_main_r5_n3",
                        deps=[1, 2], work=99, lines=[4, 5])
        assert TaskSpec.from_dict(spec.to_dict()) == spec


class TestEngineIntegration:
    def test_phases_cache_and_invalidate(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(source=DOALL_SRC, name="p")
        )
        plan1 = engine.parallelize()
        assert engine.parallelize() is plan1
        v1 = engine.validate()
        assert engine.validate() is v1
        # a different worker count re-plans; same count reuses the cache
        plan2 = engine.parallelize(2)
        assert plan2 is not plan1
        assert plan2.n_workers == 2
        engine.rank(8)
        assert engine._transform is None

    def test_run_attaches_validations(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=DOALL_SRC, name="p", validate=True
            )
        )
        result = engine.run()
        assert result.validations
        assert result.prediction_error is not None
        ok = [r for r in result.validations if r.feasible]
        assert ok and all(r.identical for r in ok)
        # only the profile phase counts as a vm run; validation runs are
        # tracked separately
        assert engine.vm_runs == 1
        assert engine.validation_runs >= 1 + len(ok)

    def test_result_round_trip_with_validations(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=DOALL_SRC, name="p", validate=True
            )
        )
        result = engine.run()
        data = json.loads(json.dumps(result.to_dict()))
        again = DiscoveryResult.from_dict(data)
        assert again.to_dict() == data
        assert len(again.validations) == len(result.validations)
        assert again.prediction_error == result.prediction_error

    def test_validation_artifact_round_trip(self):
        engine = DiscoveryEngine(
            config=DiscoveryConfig(source=DOALL_SRC, name="p")
        )
        artifact = engine.validate()
        assert isinstance(artifact, ValidationArtifact)
        again = ValidationArtifact.from_dict(
            json.loads(json.dumps(artifact.to_dict()))
        )
        assert again.to_dict() == artifact.to_dict()

    def test_cli_parallelize(self, capsys):
        from repro.cli import main

        code = main(
            ["parallelize", "--workload", "matmul", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "IDENTICAL" in out

    def test_cli_parallelize_json(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "val.json"
        code = main(
            [
                "parallelize", "--workload", "dotprod",
                "--workers", "4", "--format", "json",
                "--save", str(path),
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["artifact"] == "validation"
        saved = json.loads(path.read_text())
        assert saved == data
        ok = [r for r in saved["reports"] if r["feasible"]]
        assert ok and all(r["identical"] for r in ok)


class TestRegistryAcceptance:
    """The ISSUE's acceptance bar: a DOALL and a task-graph suggestion from
    registry workloads transformed, executed on >= 2 workers, validated
    bit-identical, with measured simulated speedup > 1."""

    @pytest.mark.parametrize("name,kind", [
        ("matmul", "DOALL"),
        ("facedetection", "MPMD"),
    ])
    def test_workload_validates_with_speedup(self, name, kind):
        w = get_workload(name)
        engine = DiscoveryEngine(
            config=DiscoveryConfig(
                source=w.source(1), name=name, entry=w.entry,
                n_workers=4, validate=True,
            )
        )
        result = engine.run()
        ok = [
            r
            for r in result.validations
            if r.feasible and r.kind.startswith(kind)
        ]
        assert ok, [r.to_dict() for r in result.validations]
        assert all(r.identical for r in ok)
        assert any(r.measured_speedup > 1.0 for r in ok)
        assert all(r.n_workers >= 2 for r in ok)
        assert result.prediction_error is not None


class TestExecModelEdgeCases:
    """Satellite: simulate_doall must not divide by zero or claim slowdowns
    for degenerate inputs."""

    def test_empty_iteration_costs(self):
        assert simulate_doall([], 4) == 1.0

    def test_single_thread_is_identity(self):
        assert simulate_doall([10.0] * 8, 1) == 1.0

    def test_zero_threads_is_identity(self):
        assert simulate_doall([10.0] * 8, 0) == 1.0

    def test_zero_total_work(self):
        assert simulate_doall([0.0, 0.0], 4) == 1.0

    def test_pipeline_degenerate_inputs_still_finite(self):
        assert simulate_pipeline([], 10, 4) == 1.0
        assert simulate_pipeline([5.0, 5.0], 0, 4) == 1.0


class TestSuggestionSatellites:
    """Satellite: DOACROSS pragma consistency + transform-field round-trip."""

    def _doacross(self, private=(), reduction=()):
        info = LoopInfo(
            region_id=2,
            func="main",
            start_line=3,
            end_line=9,
            classification=LoopClass.DOACROSS,
            iterations=10,
            private_vars=set(private),
            reduction_vars=set(reduction),
            stages=2,
            parallel_fraction=0.5,
        )
        return Suggestion(
            kind=LoopClass.DOACROSS, func="main", start_line=3,
            end_line=9, loop=info,
        )

    def test_doacross_pragma_has_ordered_no_stray_space(self):
        pragma = self._doacross().pragma()
        assert pragma == "#pragma omp parallel for ordered"
        assert pragma == pragma.strip()

    def test_doacross_pragma_orders_before_clauses(self):
        pragma = self._doacross(private=("t",), reduction=("s",)).pragma()
        assert pragma.startswith("#pragma omp parallel for ordered ")
        assert "private(t)" in pragma
        assert "reduction(+: s)" in pragma
        assert pragma in self._doacross(
            private=("t",), reduction=("s",)
        ).render()

    def test_transform_field_round_trips(self):
        s = self._doacross()
        s.transform = {
            "plan_index": 2,
            "transform": "doall",
            "feasible": True,
            "reason": None,
            "n_chunks": 4,
            "reduction_vars": ["s"],
        }
        again = Suggestion.from_dict(json.loads(json.dumps(s.to_dict())))
        assert again.transform == s.transform
        assert again.to_dict() == s.to_dict()

    def test_absent_transform_field_round_trips_as_none(self):
        s = self._doacross()
        again = Suggestion.from_dict(s.to_dict())
        assert again.transform is None
