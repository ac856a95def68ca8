"""Observability layer: spans, metrics, cross-process merge, no-op path.

The tentpole contract (Issue 8): the :mod:`repro.obs` layer must be
*transparent* — dependence stores stay bit-identical with obs off,
metrics-only, and full tracing — while the enabled path produces a
deterministic Chrome trace-event timeline merged across the sharded
detection workers and ParallelVM worker roles, a JSON-round-tripping
metrics snapshot on :class:`DiscoveryResult`, and accumulating
(count/total/last) phase timings instead of the old clobbering dict.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.engine.artifacts import DiscoveryResult
from repro.obs import (
    OBS_MODES,
    MetricsRegistry,
    ObsSession,
    Tracer,
    format_metrics_table,
    hotness,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    S_DEPTH,
    S_DUR,
    S_PATH,
    S_TS,
)
from repro.workloads import get_workload


def engine_for(name: str, scale: int = 1, **overrides) -> DiscoveryEngine:
    workload = get_workload(name)
    return DiscoveryEngine(
        config=DiscoveryConfig(
            source=workload.source(scale),
            name=name,
            entry=workload.entry,
            frontend=workload.frontend,
            **overrides,
        )
    )


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_record_path_and_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a", "t"):
            with tracer.span("b", "t"):
                with tracer.span("c", "t", n=3):
                    pass
        spans = list(tracer.lane("main").spans)
        # spans land end-time ordered: innermost first
        assert [s[S_PATH] for s in spans] == ["a;b;c", "a;b", "a"]
        assert [s[S_DEPTH] for s in spans] == [2, 1, 0]
        assert tracer.n_spans == 3

    def test_span_nesting_is_monotonic_per_lane(self):
        """Every depth-d span lies inside a depth-(d-1) span whose path
        is its prefix — the invariant Perfetto's flame rendering needs."""
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("outer", "t"):
                with tracer.span("mid", "t"):
                    with tracer.span("inner", "t"):
                        pass
                with tracer.span("mid2", "t"):
                    pass
        spans = list(tracer.lane("main").spans)
        for span in spans:
            if span[S_DEPTH] == 0:
                continue
            parent_path = span[S_PATH].rsplit(";", 1)[0]
            enclosing = [
                p for p in spans
                if p[S_PATH] == parent_path
                and p[S_TS] <= span[S_TS]
                and span[S_TS] + span[S_DUR] <= p[S_TS] + p[S_DUR]
            ]
            assert enclosing, f"no enclosing span for {span[S_PATH]}"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x", "t") is NULL_SPAN
        with tracer.span("x", "t"):
            pass
        tracer.begin("y", "t")
        tracer.end()
        tracer.complete("z", "t", 0, 1)
        assert tracer.n_spans == 0
        assert tracer.export()["traceEvents"] == []
        assert NULL_TRACER.enabled is False

    def test_ring_buffer_drops_oldest_and_reports(self):
        tracer = Tracer(enabled=True, capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}", "t"):
                pass
        lane = tracer.lane("main")
        assert len(lane.spans) == 4
        assert lane.dropped == 6
        # the newest spans survive
        assert [s[0] for s in lane.spans] == ["s6", "s7", "s8", "s9"]
        doc = tracer.export()
        drops = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(drops) == 1 and "6 spans dropped" in drops[0]["name"]

    def test_export_schema_and_json_roundtrip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("phase.profile", "engine", scale=2):
            with tracer.span("vm.run", "vm"):
                pass
        tracer.complete("pvm.burst", "pvm", 100, 50, lane="pvm.w0",
                        args={"tid": 1})
        doc = tracer.export()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        roundtrip = json.loads(json.dumps(doc))
        assert roundtrip == doc
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert phs <= {"X", "M", "i"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        for event in xs:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["cat"] in {"engine", "vm", "pvm"}
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in metas} == {
            "process_name", "thread_name"
        }
        # two lanes in one process: distinct tids
        tids = {e["tid"] for e in xs}
        assert len(tids) == 2

    def test_cross_process_merge_is_order_independent(self):
        def bundle(pid, plabel, t0):
            return (
                pid, plabel, "main",
                [("shard.batch", "detect", t0, 10, 0, "shard.batch",
                  None)],
                0,
            )

        b1 = bundle(1001, "detect.shard0", 100)
        b2 = bundle(1002, "detect.shard1", 90)
        docs = []
        for order in ([b1, b2], [b2, b1]):
            tracer = Tracer(enabled=True)
            # fixed interval so both tracers hold identical local spans
            tracer.complete("phase.detect", "engine", 50, 60)
            for shipped in order:
                tracer.absorb([shipped])
            # re-absorbing must replace, never duplicate
            tracer.absorb([order[0]])
            docs.append(tracer.export())
        assert docs[0] == docs[1]
        pids = {e["pid"] for e in docs[0]["traceEvents"]}
        assert len(pids) == 3

    def test_ship_format_is_picklable_and_absorbable(self):
        import pickle

        worker = Tracer(enabled=True, process_label="detect.shard0")
        with worker.span("shard.batch", "detect", rows=7):
            pass
        shipped = pickle.loads(pickle.dumps(worker.ship()))
        parent = Tracer(enabled=True)
        parent.absorb(shipped)
        lanes = parent._all_lanes()
        assert (worker.pid, "detect.shard0", "main") in {
            (pid, plabel, label) for pid, plabel, label, _, _ in lanes
        }

    def test_flame_and_hotness_self_time(self):
        tracer = Tracer(enabled=True)
        with tracer.span("phase.profile", "engine"):
            with tracer.span("vm.run", "vm"):
                pass
        flame = tracer.flame()
        assert set(flame) == {"phase.profile", "phase.profile;vm.run"}
        outer = flame["phase.profile"]
        inner = flame["phase.profile;vm.run"]
        assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
        hot = hotness(tracer)
        assert hot["total_ns"] > 0
        assert set(hot["phases"]) == {"phase.profile"}


# ---------------------------------------------------------------------------
# the metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        gauge = registry.gauge("g")
        gauge.set(9)
        gauge.set(3)
        hist = registry.histogram("h")
        for v in (1, 5, 4096):
            hist.observe(v)
        assert registry.counter("c").value == 5
        assert (gauge.value, gauge.max) == (3, 9)
        assert (hist.count, hist.sum, hist.min, hist.max) == (3, 4102, 1,
                                                              4096)
        assert hist.mean == pytest.approx(4102 / 3)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_restore_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a", "help a").inc(7)
        registry.gauge("b").set(2)
        registry.histogram("c").observe(100)
        snap = registry.snapshot()
        # JSON-ready and stable through serialization
        snap2 = json.loads(json.dumps(snap))
        restored = MetricsRegistry.restore(snap2)
        assert restored.snapshot() == snap
        assert list(snap) == sorted(snap)

    def test_merge_accumulates_and_prefixes(self):
        parent = MetricsRegistry()
        parent.counter("rows").inc(10)
        worker = MetricsRegistry()
        worker.counter("rows").inc(5)
        worker.gauge("rss").set(300)
        worker.histogram("batch").observe(8)
        snap = worker.snapshot()
        parent.merge(snap)                       # accumulate same names
        parent.merge(snap, prefix="detect.shard0.")  # keep series apart
        assert parent.counter("rows").value == 15
        assert parent.counter("detect.shard0.rows").value == 5
        assert parent.gauge("detect.shard0.rss").max == 300
        parent.merge(snap, prefix="detect.shard0.")
        assert parent.counter("detect.shard0.rows").value == 10
        assert parent.histogram("detect.shard0.batch").count == 2

    def test_format_table(self):
        registry = MetricsRegistry()
        registry.counter("engine.vm_runs").inc()
        text = format_metrics_table(registry.snapshot())
        assert "engine.vm_runs" in text and "counter" in text
        assert "no metrics recorded" in format_metrics_table({})


# ---------------------------------------------------------------------------
# the session + config plumbing
# ---------------------------------------------------------------------------


class TestObsSession:
    def test_modes(self):
        off = ObsSession("off")
        assert not off.active and off.metrics is None
        assert not off.tracer.enabled
        metrics = ObsSession("metrics")
        assert metrics.active and metrics.metrics is not None
        assert not metrics.tracer.enabled
        trace = ObsSession("trace")
        assert trace.tracer.enabled and trace.metrics is not None
        assert off.snapshot() == {}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown obs mode"):
            ObsSession("verbose")
        assert OBS_MODES == ("off", "metrics", "trace")

    def test_config_roundtrip(self):
        config = DiscoveryConfig(source="int main() { return 0; }",
                                 obs="trace")
        data = config.to_dict()
        assert data["obs"] == "trace"
        assert DiscoveryConfig.from_dict(data).obs == "trace"
        assert DiscoveryConfig.from_dict({"source": "x"}).obs == "off"


# ---------------------------------------------------------------------------
# engine integration: transparency, timings, result round-trip
# ---------------------------------------------------------------------------


class TestEngineObs:
    def test_obs_never_perturbs_the_store(self):
        """The no-op identity gate: bit-identical dependence stores and
        return values with obs off, metrics-only, and full tracing."""
        results = {}
        for mode in OBS_MODES:
            engine = engine_for("pi", obs=mode)
            artifact = engine.profile()
            results[mode] = (
                artifact.store.to_dict(),
                {r: c.to_dict() for r, c in artifact.control.items()},
                artifact.return_value,
            )
        assert results["off"] == results["metrics"] == results["trace"]

    def test_timings_accumulate_not_clobber(self):
        engine = engine_for("fib")
        engine._record_timing("x", 0.5)
        engine._record_timing("x", 0.25)
        detail = engine.timing_detail["x"]
        assert detail == {"count": 2, "total": 0.75, "last": 0.25}
        # the public timings dict stays a float total (API compat)
        assert engine.timings["x"] == pytest.approx(0.75)

    def test_run_populates_timing_detail(self):
        engine = engine_for("fib")
        result = engine.run()
        assert set(result.timing_detail) == set(result.timings)
        for phase, detail in result.timing_detail.items():
            assert detail["count"] >= 1
            assert result.timings[phase] == pytest.approx(detail["total"])
        # the satellite fix: the dispatch-suffixed VM phase accumulates
        assert "vm_compiled" in result.timing_detail

    def test_metrics_land_on_result_and_roundtrip(self):
        engine = engine_for("fib", obs="metrics")
        result = engine.run()
        assert result.metrics["engine.vm_runs"]["value"] == 1
        assert result.metrics["engine.trace_events"]["value"] > 0
        assert "detect.deps" in result.metrics
        data = result.to_dict()
        restored = DiscoveryResult.from_dict(data)
        assert restored.metrics == result.metrics
        assert restored.timing_detail == result.timing_detail
        assert json.loads(json.dumps(data))["metrics"] == result.metrics

    def test_peak_rss_gauge_per_phase(self):
        """Each phase that ran leaves the process peak it had reached;
        ``ru_maxrss`` is a high-water mark, so they never decrease."""
        phases = ("profile", "build_cus", "detect", "rank", "parallelize",
                  "validate")
        result = engine_for("matmul", obs="metrics", validate=True).run()
        gauges = {
            name: metric for name, metric in result.metrics.items()
            if name.endswith(".peak_rss_kb")
        }
        assert sorted(gauges) == sorted(
            f"engine.{phase}.peak_rss_kb" for phase in phases
        )
        in_order = [gauges[f"engine.{p}.peak_rss_kb"] for p in phases]
        assert {gauge["kind"] for gauge in in_order} == {"gauge"}
        peaks = [gauge["value"] for gauge in in_order]
        assert peaks[0] > 0
        assert peaks == sorted(peaks)
        off = engine_for("matmul", validate=True).run()
        assert off.metrics == {}

    def test_off_mode_records_nothing(self):
        engine = engine_for("fib")
        result = engine.run()
        assert result.metrics == {}
        assert result.selfprof == {}
        assert engine.obs.tracer.n_spans == 0

    def test_trace_mode_merges_worker_lanes(self):
        """The acceptance timeline: main process + ≥2 sharded detection
        workers + ≥2 ParallelVM worker lanes, with selfprof aggregates."""
        engine = engine_for(
            "matmul", obs="trace", detect="sharded", detect_workers=2,
            validate=True,
        )
        result = engine.run()
        lanes = engine.obs.tracer._all_lanes()
        pids = {pid for pid, _, _, _, _ in lanes}
        assert len(pids) >= 3          # main + 2 worker processes
        plabels = {plabel for _, plabel, _, _, _ in lanes}
        assert {"detect.shard0", "detect.shard1"} <= plabels
        pvm_lanes = {label for _, _, label, _, _ in lanes
                     if label.startswith("pvm.w")}
        assert len(pvm_lanes) >= 2
        assert result.selfprof["phases"]
        assert result.selfprof["hottest"]
        # worker metrics merged under per-shard prefixes
        assert any(
            name.startswith("detect.shard0.") for name in result.metrics
        )
        doc = engine.obs.tracer.export()
        assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------------
# the sharded error path (satellite: obs payload on failure)
# ---------------------------------------------------------------------------


class TestShardedErrorObs:
    def test_worker_failure_ships_metrics_and_spans(self):
        from repro.profiler.sharded import (
            ShardedDetectionError,
            ShardedDetector,
        )
        from repro.runtime.events import (
            COL_ADDR,
            COL_KIND,
            COL_LINE,
            COL_NAME,
            COL_TS,
            EventChunk,
            K_WRITE,
            N_COLS,
            TraceSink,
        )
        from repro.runtime.interpreter import VM

        workload = get_workload("histogram")
        trace = TraceSink()
        vm = VM(workload.compile(1), trace)
        vm.run(workload.entry)
        det = ShardedDetector(None, n_shards=2)
        det.attach_obs(Tracer(enabled=True), MetricsRegistry())
        try:
            det.process_chunk(next(trace.iter_chunks()))
            # rows with a name id the parent never interned make the
            # worker's dep merge fail; the error must carry the worker's
            # partial metrics snapshot and span-lane bundle home
            rows = np.zeros((2, N_COLS), dtype=np.int64)
            rows[:, COL_KIND] = K_WRITE
            rows[:, COL_ADDR] = 7
            rows[:, COL_LINE] = 3
            rows[:, COL_NAME] = 500_000
            rows[:, COL_TS] = (10, 11)
            first = next(trace.iter_chunks())
            det.process_chunk(EventChunk(rows, first.strings, first.sigs))
            with pytest.raises(ShardedDetectionError) as excinfo:
                det.finalize()
            err = excinfo.value
            assert err.shard is not None
            assert err.worker_metrics, "worker metrics missing"
            assert err.worker_spans, "worker span bundle missing"
            # the bundle is in ship() format: lanes from a foreign pid
            for pid, plabel, _label, _spans, _dropped in err.worker_spans:
                assert plabel == f"detect.shard{err.shard}"
        finally:
            det.close()


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


class TestObsCLI:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "fib.trace.json"
        assert main([
            "trace", "--workload", "fib", "--detect", "vectorized",
            "--no-validate", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        text = capsys.readouterr().out
        assert "trace written" in text
        assert "self time by phase" in text

    def test_stats_renders_metrics_table(self, capsys):
        assert main(["stats", "--workload", "fib"]) == 0
        out = capsys.readouterr().out
        assert "engine.trace_events" in out
        assert "phase timings (count / total / last)" in out

    def test_stats_json_format(self, capsys):
        assert main(["stats", "--workload", "fib", "--format",
                     "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine.vm_runs"]["value"] == 1

    def test_discover_obs_trace_exports(self, tmp_path, capsys):
        out = tmp_path / "d.trace.json"
        assert main([
            "discover", "--workload", "fib", "--obs", "trace",
            "--trace-out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_discover_obs_is_purely_observational(self, tmp_path, capsys):
        """``--obs trace`` records spans; it must not pick another
        detection core or add a validate leg."""
        runs = {}
        for obs in ("off", "trace"):
            assert main([
                "discover", "--workload", "matmul", "--obs", obs,
                "--trace-out", str(tmp_path / "m.trace.json"),
                "--format", "json",
            ]) == 0
            runs[obs] = json.loads(capsys.readouterr().out)
        off, traced = runs["off"], runs["trace"]
        for key in ("store", "loops", "suggestions", "validations"):
            assert traced[key] == off[key], key
        assert traced["profile_stats"]["detect"] == "vectorized"
        assert off["profile_stats"]["detect"] == "vectorized"
        assert traced["selfprof"] and not off["selfprof"]

    def test_trace_out_without_trace_mode_warns(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main([
            "profile", "--workload", "fib", "--trace-out", str(out),
        ]) == 0
        assert not out.exists()
        assert "--obs trace" in capsys.readouterr().err
