"""Fault-tolerant discovery: supervision, fault injection, resume.

The resilience contract (docs/RESILIENCE.md): every *eventually
successful* fault schedule — worker kills, hangs, dropped slab acks,
corrupted done payloads — recovers through the escalation ladder (shard
retry → pool restart → in-process degradation) with a merged store
bit-identical to the serial vectorized reference; checkpointed batch
jobs resume at their first missing phase with identical results; and
teardown after any of it leaks no shared-memory segments.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.engine import (
    DiscoveryConfig,
    DiscoveryEngine,
    JobCheckpoint,
    job_for_source,
    job_for_workload,
    job_key,
    run_batch,
    run_job,
)
from repro.profiler.sharded import ShardedDetectionError, ShardedDetector
from repro.resilience import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
)
from tests.test_detect import record, state_of, vec_profile

#: supervision knobs for tests: same ladder as the defaults, short waits
FAST_POLICY = {
    "hang_timeout": 1.0,
    "poll_interval": 0.1,
    "backoff_base": 0.01,
    "backoff_max": 0.1,
}

#: small batches so early/mid/late fault positions are meaningful
BATCH = 512

WORKER_FAULTS = (
    "kill_worker", "hang_worker", "drop_slab_ack", "corrupt_done_payload",
)


def supervised_profile(trace, *, faults=None, policy=FAST_POLICY,
                       shards=2, metrics=None, **kwargs):
    det = ShardedDetector(
        None, n_shards=shards,
        batch_events=BATCH, slab_rows=BATCH,
        policy=policy, faults=faults, **kwargs,
    )
    if metrics is not None:
        from repro.obs.trace import Tracer

        det.attach_obs(Tracer(enabled=False), metrics)
    try:
        for chunk in trace.iter_chunks():
            det.process_chunk(chunk)
        det.finalize()
    except BaseException:
        det.close()
        raise
    return det


# ---------------------------------------------------------------------------
# policy / plan value objects
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_roundtrip(self):
        policy = RetryPolicy(
            max_shard_retries=5, hang_timeout=7.5, seed=42, jitter=0.25,
        )
        again = RetryPolicy.from_dict(policy.to_dict())
        assert again == policy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            RetryPolicy.from_dict({"hang_timeot": 3.0})

    def test_disabled_keeps_legacy_contract(self):
        policy = RetryPolicy.disabled()
        assert not policy.supervise
        assert RetryPolicy.disabled(done_timeout=9.0).done_timeout == 9.0

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=3)
        delays = [policy.backoff_delay(a) for a in range(6)]
        assert delays == [policy.backoff_delay(a) for a in range(6)]
        assert all(0.0 <= d <= policy.backoff_max for d in delays)
        assert delays != [RetryPolicy(seed=4).backoff_delay(a)
                          for a in range(6)]

    def test_detector_adopts_policy_timeouts(self):
        det = ShardedDetector(
            None, n_shards=1, policy={"done_timeout": 5.0,
                                      "hang_timeout": 2.0},
        )
        try:
            assert det.policy.done_timeout == 5.0
            assert det.policy.hang_timeout == 2.0
            assert det.policy.supervise
        finally:
            det.close()

    def test_detector_default_is_unsupervised(self):
        det = ShardedDetector(None, n_shards=1)
        try:
            assert not det.policy.supervise
        finally:
            det.close()


class TestFaultPlan:
    def test_event_roundtrip(self):
        event = FaultEvent(kind="kill_worker", shard=1, batch=7, gen=2)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="set_on_fire")
        with pytest.raises(ValueError, match="need a phase"):
            FaultEvent(kind="raise_in_phase")

    @pytest.mark.parametrize("kind", ["stale_lease", "flip_checksum"])
    def test_store_damage_is_not_a_plan_event(self, kind):
        # no hook fires these in-process: a plan naming them would be
        # accepted and inject nothing, so it is rejected instead
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"events": [{"kind": kind, "artifact": "detect.json"}]}
            )

    def test_plan_roundtrip_and_kinds(self):
        plan = FaultPlan(
            [FaultEvent(kind=k, batch=0) for k in WORKER_FAULTS], seed=9,
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.seed == 9
        assert [e.kind for e in again.events] == list(WORKER_FAULTS)
        assert set(WORKER_FAULTS) < set(FAULT_KINDS)

    def test_scattered_is_seed_deterministic(self):
        a = FaultPlan.scattered(5, n_shards=2, n_batches=40)
        b = FaultPlan.scattered(5, n_shards=2, n_batches=40)
        c = FaultPlan.scattered(6, n_shards=2, n_batches=40)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_for_worker_filters_shard_and_gen(self):
        plan = FaultPlan([
            FaultEvent(kind="kill_worker", shard=0, batch=1),
            FaultEvent(kind="hang_worker", shard=1, batch=2, gen=1),
            FaultEvent(kind="raise_in_phase", phase="detect"),
        ])
        assert [e["kind"] for e in plan.for_worker(0, 0)] == ["kill_worker"]
        assert plan.for_worker(0, 1) == []
        assert [e["kind"] for e in plan.for_worker(1, 1)] == ["hang_worker"]

    def test_check_phase_matches_attempt_once(self):
        plan = FaultPlan([
            FaultEvent(kind="raise_in_phase", phase="detect", gen=0),
        ])
        plan.check_phase("profile", attempt=0)  # wrong phase: no fire
        plan.check_phase("detect", attempt=1)   # wrong attempt: no fire
        with pytest.raises(FaultInjected):
            plan.check_phase("detect", attempt=0)
        plan.check_phase("detect", attempt=0)   # fired already: no re-fire


class TestConfigPlumbing:
    def test_config_roundtrips_resilience_and_faults(self):
        config = DiscoveryConfig(
            source="int main() { return 0; }",
            detect="sharded",
            resilience={"hang_timeout": 3.0},
            fault_plan={"seed": 1, "events": [
                {"kind": "kill_worker", "batch": 0},
            ]},
        )
        again = DiscoveryConfig.from_dict(config.to_dict())
        assert again.resilience == {"hang_timeout": 3.0}
        assert again.fault_plan == config.fault_plan

    def test_resolved_backend_options_gate_on_sharded(self):
        base = dict(resilience={"hang_timeout": 3.0},
                    fault_plan={"events": []})
        sharded = DiscoveryConfig(detect="sharded", **base)
        options = sharded.resolved_backend_options()
        assert options["resilience"] == {"hang_timeout": 3.0}
        assert options["fault_plan"] == {"events": []}
        vectorized = DiscoveryConfig(detect="vectorized", **base)
        options = vectorized.resolved_backend_options()
        assert "resilience" not in options and "fault_plan" not in options

    def test_backend_rejects_resilience_off_sharded(self):
        from repro.profiler.backends import SerialBackend

        with pytest.raises(ValueError, match="sharded"):
            SerialBackend(detect="vectorized",
                          resilience={"hang_timeout": 3.0})


# ---------------------------------------------------------------------------
# the escalation ladder, with real worker processes
# ---------------------------------------------------------------------------


class TestSupervisedRecovery:
    @pytest.mark.parametrize("kind", WORKER_FAULTS)
    def test_single_fault_store_identical(self, kind):
        trace, vm = record("matmul")
        vec = vec_profile(trace)
        plan = FaultPlan([FaultEvent(kind=kind, shard=0, batch=1)])
        det = supervised_profile(trace, faults=plan)
        assert state_of(det) == state_of(vec), kind
        if kind != "drop_slab_ack":  # a dropped ack may heal via restart
            assert det.recovery["shard_retries"] >= 1

    # satellite gate: kill shard 0 at batch 1 across several registry
    # workloads, one of them threaded — the retried partition must merge
    # bit-identically on traces with very different shapes
    @pytest.mark.parametrize("name", ["matmul", "histogram", "md5-pthread"])
    def test_kill_recovery_across_workloads(self, name):
        trace, vm = record(name)
        vec = vec_profile(trace)
        plan = FaultPlan([
            FaultEvent(kind="kill_worker", shard=0, batch=1),
        ])
        det = supervised_profile(trace, faults=plan)
        assert state_of(det) == state_of(vec), name
        assert det.recovery["worker_deaths"] >= 1
        assert det.recovery["shard_retries"] >= 1

    def test_full_pool_loss_degrades_not_raises(self):
        from repro.obs.metrics import MetricsRegistry

        trace, vm = record("matmul")
        vec = vec_profile(trace)
        plan = FaultPlan([
            FaultEvent(kind="kill_worker", batch=0, gen=gen)
            for gen in range(8)
        ])
        metrics = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="degrad"):
            det = supervised_profile(trace, faults=plan, metrics=metrics)
        assert state_of(det) == state_of(vec)
        assert det.recovery["degraded"] == 1
        assert metrics.get("resilience.degraded").value == 1

    def test_unsupervised_failure_still_raises(self):
        trace, vm = record("matmul")
        plan = FaultPlan([
            FaultEvent(kind="kill_worker", shard=0, batch=1),
        ])
        # disabled() keeps the legacy raise-on-failure contract; the
        # shortened wait only spares the test the production patience
        legacy = RetryPolicy.disabled(done_timeout=5.0, join_timeout=1.0)
        with pytest.raises(ShardedDetectionError):
            supervised_profile(trace, faults=plan, policy=legacy)


class TestAbortCleanliness:
    def _shm_segments(self, prefix: str) -> list:
        return glob.glob(f"/dev/shm/{prefix}*")

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this host",
    )
    def test_abort_after_midrun_kill_leaks_nothing(self):
        trace, vm = record("matmul")
        plan = FaultPlan([
            FaultEvent(kind="kill_worker", shard=0, batch=1),
        ])
        det = ShardedDetector(
            None, n_shards=2,
            batch_events=BATCH, slab_rows=BATCH,
            policy=FAST_POLICY, faults=plan,
        )
        chunks = list(trace.iter_chunks())
        for chunk in chunks[: max(1, len(chunks) // 2)]:
            det.process_chunk(chunk)
        assert self._shm_segments(det.shm_prefix)  # slabs really exist
        det.abort()
        assert self._shm_segments(det.shm_prefix) == []
        det.abort()  # idempotent

    def test_cleanup_failure_is_reported_not_swallowed(self):
        det = ShardedDetector(None, n_shards=1, batch_events=BATCH,
                              slab_rows=BATCH)
        det._ensure_workers()
        # sabotage one slab so teardown's unlink fails underneath it
        det._slabs[0].unlink()
        with pytest.warns(RuntimeWarning, match="cleanup failure"):
            det.abort()
        assert det.recovery["cleanup_failures"] >= 1


# ---------------------------------------------------------------------------
# engine-level faults and end-to-end identity
# ---------------------------------------------------------------------------


class TestEngineFaults:
    SOURCE_PLAN = {"seed": 0, "events": [
        {"kind": "raise_in_phase", "phase": "detect", "gen": 0},
    ]}

    def test_raise_in_phase_crashes_attempt_zero_only(self):
        from repro.workloads import get_workload

        workload = get_workload("fib")
        config = DiscoveryConfig(
            source=workload.source(1), entry=workload.entry,
            frontend=workload.frontend, fault_plan=self.SOURCE_PLAN,
        )
        engine = DiscoveryEngine(config=config)
        with pytest.raises(FaultInjected):
            engine.run()
        retry = DiscoveryEngine(config=config)
        retry.fault_attempt = 1
        assert retry.run().suggestions is not None

    def test_fault_injected_sharded_run_matches_clean(self):
        from repro.workloads import get_workload

        workload = get_workload("matmul")
        base = dict(
            source=workload.source(1), entry=workload.entry,
            frontend=workload.frontend, detect="sharded",
            detect_workers=2, resilience=dict(FAST_POLICY),
        )
        faulted = DiscoveryEngine(config=DiscoveryConfig(
            fault_plan={"seed": 2, "events": [
                {"kind": "kill_worker", "shard": 0, "batch": 1},
            ]},
            **base,
        )).run()
        clean = DiscoveryEngine(config=DiscoveryConfig(**base)).run()
        assert faulted.store.to_dict() == clean.store.to_dict()
        assert [s.to_dict() for s in faulted.suggestions] == [
            s.to_dict() for s in clean.suggestions
        ]


# ---------------------------------------------------------------------------
# checkpoints and resumable batches
# ---------------------------------------------------------------------------


class TestJobKey:
    def test_content_addressing(self):
        config = DiscoveryConfig(source="int main() { return 1; }")
        assert job_key(config) == job_key(config.replace(name="other"))
        assert job_key(config) == job_key(
            config.replace(fault_plan={"events": []},
                           resilience={"hang_timeout": 1.0})
        )
        assert job_key(config) != job_key(config.replace(n_threads=8))
        assert job_key(config) != job_key(
            config.replace(source="int main() { return 2; }")
        )


class TestResumableBatch:
    CRASH_PLAN = {"seed": 0, "events": [
        {"kind": "raise_in_phase", "phase": "detect", "gen": 0},
    ]}

    def test_completed_job_is_skipped(self, tmp_path):
        job = job_for_workload("fib")
        first = run_job(job, resume_dir=str(tmp_path))
        again = run_job(job, resume_dir=str(tmp_path))
        assert first["ok"] and not first.get("resumed")
        assert first["phases_run"] == ["profile", "cus", "detect", "rank"]
        assert again["ok"] and again["resumed"]
        assert again["phases_run"] == []
        for key in ("deps", "loops", "suggestions", "return_value"):
            assert first[key] == again[key]

    def test_crash_resumes_at_first_missing_phase(self, tmp_path):
        job = job_for_workload("fib", fault_plan=self.CRASH_PLAN)
        crashed = run_job(job, resume_dir=str(tmp_path))
        assert not crashed["ok"]
        assert "FaultInjected" in crashed["error"]
        assert crashed["attempts"] == 1
        resumed = run_job(job, resume_dir=str(tmp_path))
        assert resumed["ok"] and resumed["resumed"]
        assert resumed["phases_restored"] == ["profile", "cus"]
        assert resumed["phases_run"] == ["detect", "rank"]
        baseline = run_job(job_for_workload("fib"))
        for key in ("deps", "loops", "parallelizable_loops",
                    "suggestions", "return_value", "total_instructions",
                    "kinds"):
            assert resumed[key] == baseline[key], key

    def test_checkpoint_restore_adopts_phase_prefix(self, tmp_path):
        from repro.engine import config_for_job

        config = config_for_job(job_for_workload("fib"))
        engine = DiscoveryEngine(config=config)
        engine.profile()
        engine.build_cus()
        checkpoint = JobCheckpoint(str(tmp_path), config)
        assert checkpoint.save_phases(engine) == ["profile", "cus"]
        fresh = DiscoveryEngine(config=config)
        assert checkpoint.restore(fresh) == ["profile", "cus"]
        # adopted phases were not recomputed: no VM run, no timings
        assert fresh.vm_runs == 0 and fresh.timings == {}
        result = fresh.run()
        assert result.suggestions == engine.run().suggestions

    #: profile stats that measure the run instead of the program
    WALL_CLOCK_STATS = ("detect_seconds", "detect_events_per_sec",
                        "vm_wall_seconds", "vm_events_per_sec")

    def _analysis(self, result) -> dict:
        """A result's JSON form without its wall-clock measurements."""
        data = result.to_dict()
        del data["timings"], data["timing_detail"]
        for key in self.WALL_CLOCK_STATS:
            del data["profile_stats"][key]
        return data

    def test_restored_profile_matches_fresh_run_on_real_loops(self, tmp_path):
        # six task containers, each re-walking the restored trace and
        # classifying carried dependences through its signature table
        from repro.engine import config_for_job

        config = config_for_job(job_for_workload("facedetection"))
        engine = DiscoveryEngine(config=config)
        engine.build_cus()
        checkpoint = JobCheckpoint(str(tmp_path), config)
        assert checkpoint.save_phases(engine) == ["profile", "cus"]
        fresh = DiscoveryEngine(config=config)
        assert checkpoint.restore(fresh) == ["profile", "cus"]
        restored = fresh.run()
        assert fresh.vm_runs == 0
        assert len(restored.functions) + len(restored.loop_tasks) == 6
        assert self._analysis(restored) == self._analysis(engine.run())

    def test_trace_without_signature_table_recomputes(self, tmp_path):
        import numpy as np

        from repro.engine import config_for_job

        config = config_for_job(job_for_workload("fib"))
        engine = DiscoveryEngine(config=config)
        engine.build_cus()
        checkpoint = JobCheckpoint(str(tmp_path), config)
        checkpoint.save_phases(engine)
        trace = engine.profile().trace

        def without_sig_table(tmp: str) -> None:
            # the trace.npz layout from before traces carried the table
            arrays = {
                f"rows_{i:06d}": chunk.rows
                for i, chunk in enumerate(trace.iter_chunks())
            }
            arrays["strings"] = next(trace.iter_chunks()).strings.to_array()
            with open(tmp, "wb") as handle:
                np.savez_compressed(handle, **arrays)

        checkpoint.store.put_file(
            checkpoint.key, "trace.npz", without_sig_table
        )
        fresh = DiscoveryEngine(config=config)
        assert checkpoint.restore(fresh) == []
        # an intact file of the old layout, not a quarantined one
        assert not glob.glob(os.path.join(checkpoint.dir, ".corrupt-*"))
        assert self._analysis(fresh.run()) == self._analysis(engine.run())
        assert fresh.vm_runs == 1

    def test_malformed_signature_table_is_not_masked(self, tmp_path):
        import numpy as np

        from repro.engine import config_for_job

        config = config_for_job(job_for_workload("fib"))
        engine = DiscoveryEngine(config=config)
        engine.profile()
        checkpoint = JobCheckpoint(str(tmp_path), config)
        checkpoint.save_phases(engine)
        trace = engine.profile().trace

        def slot0_not_root(tmp: str) -> None:
            # checksum-valid, but the table's slot 0 is not the root ()
            arrays = {
                f"rows_{i:06d}": chunk.rows
                for i, chunk in enumerate(trace.iter_chunks())
            }
            arrays["strings"] = next(trace.iter_chunks()).strings.to_array()
            arrays["sig_lengths"] = np.array([1], dtype=np.int64)
            arrays["sig_pairs"] = np.array([[0, 0]], dtype=np.int64)
            with open(tmp, "wb") as handle:
                np.savez_compressed(handle, **arrays)

        checkpoint.store.put_file(checkpoint.key, "trace.npz", slot0_not_root)
        with pytest.raises(ValueError, match="slot 0"):
            checkpoint.restore(DiscoveryEngine(config=config))

    def test_adopt_rejects_non_prefix(self):
        config = DiscoveryConfig(source="int main() { return 0; }")
        engine = DiscoveryEngine(config=config)
        with pytest.raises(ValueError, match="prefix"):
            engine.adopt(cus=DiscoveryEngine(config=config).build_cus())

    def test_batch_resume_only_runs_unfinished(self, tmp_path):
        jobs = [job_for_workload("fib"),
                job_for_workload("sort", fault_plan=self.CRASH_PLAN)]
        first = run_batch(jobs, jobs_parallel=1,
                          resume_dir=str(tmp_path))
        assert first[0]["ok"] and not first[1]["ok"]
        second = run_batch(jobs, jobs_parallel=1,
                           resume_dir=str(tmp_path))
        assert second[0]["resumed"] and second[0]["phases_run"] == []
        assert second[1]["ok"] and second[1]["phases_run"] == [
            "detect", "rank",
        ]

    def test_job_timeout_and_quarantine(self, tmp_path):
        spin = job_for_source(
            "def main():\n"
            "    total = 0\n"
            "    for i in range(100000000):\n"
            "        total = total + i\n"
            "    return total\n",
            name="spin", frontend="python",
        )
        for expected in (1, 2):
            rows = run_batch([spin], resume_dir=str(tmp_path),
                             job_timeout=1.0, quarantine_after=2)
            assert not rows[0]["ok"] and rows[0].get("timed_out")
            quarantine = json.loads(
                (tmp_path / "quarantine.json").read_text()
            )
            assert quarantine["spin"] == expected
        rows = run_batch([spin], resume_dir=str(tmp_path),
                         job_timeout=1.0, quarantine_after=2)
        assert rows[0].get("quarantined")
        assert rows[0]["seconds"] == 0.0  # skipped, not run
