"""Typed, serializable phase artifacts.

Each :class:`~repro.engine.core.DiscoveryEngine` phase returns one artifact:

* ``profile()``   → :class:`ProfileArtifact`   (Phase 1: VM + profiler)
* ``build_cus()`` → :class:`CUArtifact`        (Phase 2a: CU construction)
* ``detect()``    → :class:`DetectArtifact`    (Phase 2b: loop/task detection)
* ``rank()``      → :class:`RankArtifact`      (Phase 3: scoring + ordering)

and :meth:`~repro.engine.core.DiscoveryEngine.run` assembles them into the
all-in-one :class:`DiscoveryResult`.

Every artifact has a stable ``to_dict()``/``from_dict()`` JSON round-trip so
it can be persisted to disk and reloaded (the DiscoPoP cu-graph-analyzer
pattern: downstream tools consume persisted artifacts instead of re-running
the program).  Live-only members — the compiled module, the raw event
trace, CU graphs — are *not* serialized; a reloaded artifact carries
``None`` there and supports every report/query that needs only the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cu.graph import CUGraph
from repro.cu.model import CURegistry
from repro.discovery.loops import LoopInfo
from repro.discovery.suggestions import Suggestion
from repro.discovery.tasks import SPMDTaskGroup, TaskGraph
from repro.mir.module import Module
from repro.parallelize.plan import TransformPlan
from repro.parallelize.validate import ValidationReport
from repro.profiler.deps import DependenceStore
from repro.profiler.pet import PETBuilder
from repro.profiler.serial import ControlRecord

#: to_dict tag -> artifact class, for :func:`load_artifact` dispatch
ARTIFACT_KINDS: dict = {}


def _artifact(kind: str):
    def register(cls):
        cls.artifact_kind = kind
        ARTIFACT_KINDS[kind] = cls
        return cls

    return register


def _control_to_dict(control: dict) -> dict:
    return {str(rid): rec.to_dict() for rid, rec in control.items()}


def _control_from_dict(data: dict) -> dict:
    return {
        int(rid): ControlRecord.from_dict(rec) for rid, rec in data.items()
    }


def _counts_to_dict(counts: dict) -> dict:
    return {str(line): count for line, count in counts.items()}


def _counts_from_dict(data: dict) -> dict:
    return {int(line): count for line, count in data.items()}


# ---------------------------------------------------------------------------
# phase artifacts
# ---------------------------------------------------------------------------


@_artifact("profile")
@dataclass
class ProfileArtifact:
    """Phase 1 output: one instrumented execution, fully profiled."""

    return_value: object
    store: DependenceStore
    control: dict
    #: {"reads": ..., "writes": ..., "accesses": ..., "raw_occurrences": ...,
    #:  "detect": ..., "dispatch": ..., "trace_nbytes": ...}
    stats: dict = field(default_factory=dict)
    module: Optional[Module] = None
    #: TraceSink or SpillingTraceSink — anything with iter_chunks()
    trace: Optional[object] = None
    pet: Optional[PETBuilder] = None

    def to_dict(self) -> dict:
        return {
            "artifact": "profile",
            "return_value": self.return_value,
            "store": self.store.to_dict(),
            "control": _control_to_dict(self.control),
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileArtifact":
        return cls(
            return_value=data["return_value"],
            store=DependenceStore.from_dict(data["store"]),
            control=_control_from_dict(data["control"]),
            stats=dict(data["stats"]),
        )


@_artifact("cus")
@dataclass
class CUArtifact:
    """Phase 2a output: the CU partition of the executed program."""

    registry: CURegistry
    line_counts: dict
    total_instructions: int

    def to_dict(self) -> dict:
        return {
            "artifact": "cus",
            "registry": self.registry.to_dict(),
            "line_counts": _counts_to_dict(self.line_counts),
            "total_instructions": self.total_instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CUArtifact":
        return cls(
            registry=CURegistry.from_dict(data["registry"]),
            line_counts=_counts_from_dict(data["line_counts"]),
            total_instructions=data["total_instructions"],
        )


@dataclass
class FunctionTaskAnalysis:
    """Task-parallelism artefacts of one function container."""

    func: str
    region_id: int
    anchored_store: DependenceStore
    cu_graph: Optional[CUGraph] = None
    spmd_groups: list[SPMDTaskGroup] = field(default_factory=list)
    task_graph: Optional[TaskGraph] = None

    def to_dict(self) -> dict:
        """JSON form; the live CU graph is not serialized (rebuildable
        from the CU artifact + anchored store when needed)."""
        return {
            "func": self.func,
            "region_id": self.region_id,
            "anchored_store": self.anchored_store.to_dict(),
            "spmd_groups": [g.to_dict() for g in self.spmd_groups],
            "task_graph": (
                self.task_graph.to_dict() if self.task_graph else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionTaskAnalysis":
        return cls(
            func=data["func"],
            region_id=data["region_id"],
            anchored_store=DependenceStore.from_dict(data["anchored_store"]),
            spmd_groups=[
                SPMDTaskGroup.from_dict(g) for g in data["spmd_groups"]
            ],
            task_graph=(
                TaskGraph.from_dict(data["task_graph"])
                if data["task_graph"]
                else None
            ),
        )


@_artifact("detect")
@dataclass
class DetectArtifact:
    """Phase 2b output: classified loops and per-container task analyses."""

    loops: list[LoopInfo] = field(default_factory=list)
    functions: dict[str, FunctionTaskAnalysis] = field(default_factory=dict)
    #: loop-body containers with call sites, keyed by loop region id
    loop_tasks: dict[int, FunctionTaskAnalysis] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "artifact": "detect",
            "loops": [info.to_dict() for info in self.loops],
            "functions": {
                name: fta.to_dict() for name, fta in self.functions.items()
            },
            "loop_tasks": {
                str(rid): fta.to_dict()
                for rid, fta in self.loop_tasks.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectArtifact":
        return cls(
            loops=[LoopInfo.from_dict(info) for info in data["loops"]],
            functions={
                name: FunctionTaskAnalysis.from_dict(fta)
                for name, fta in data["functions"].items()
            },
            loop_tasks={
                int(rid): FunctionTaskAnalysis.from_dict(fta)
                for rid, fta in data["loop_tasks"].items()
            },
        )


@_artifact("rank")
@dataclass
class RankArtifact:
    """Phase 3 output: ranked suggestions for one thread count."""

    n_threads: int
    suggestions: list[Suggestion] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "artifact": "rank",
            "n_threads": self.n_threads,
            "suggestions": [s.to_dict() for s in self.suggestions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RankArtifact":
        return cls(
            n_threads=data["n_threads"],
            suggestions=[
                Suggestion.from_dict(s) for s in data["suggestions"]
            ],
        )


#: the transform plan serializes itself; register it for load_artifact
TransformPlan.artifact_kind = "transform_plan"
ARTIFACT_KINDS["transform_plan"] = TransformPlan


@_artifact("validation")
@dataclass
class ValidationArtifact:
    """Validate-phase output: one report per transformable suggestion."""

    n_workers: int
    reports: list[ValidationReport] = field(default_factory=list)

    @property
    def feasible(self) -> list[ValidationReport]:
        return [r for r in self.reports if r.feasible]

    @property
    def n_identical(self) -> int:
        return sum(1 for r in self.feasible if r.identical)

    @property
    def n_speedup(self) -> int:
        return sum(
            1
            for r in self.feasible
            if r.identical and r.measured_speedup > 1.0
        )

    @property
    def mean_abs_prediction_error(self) -> Optional[float]:
        """Mean |predicted - measured| / measured over valid transforms."""
        errors = [
            abs(r.prediction_error) for r in self.feasible if r.identical
        ]
        if not errors:
            return None
        return sum(errors) / len(errors)

    def to_dict(self) -> dict:
        return {
            "artifact": "validation",
            "n_workers": self.n_workers,
            "reports": [r.to_dict() for r in self.reports],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValidationArtifact":
        return cls(
            n_workers=data["n_workers"],
            reports=[
                ValidationReport.from_dict(r) for r in data["reports"]
            ],
        )


# ---------------------------------------------------------------------------
# the assembled result
# ---------------------------------------------------------------------------


@_artifact("discovery_result")
@dataclass
class DiscoveryResult:
    """Everything the pipeline produced, for inspection and benches."""

    module: Optional[Module]
    return_value: object
    store: DependenceStore
    control: dict
    registry: Optional[CURegistry]
    line_counts: dict
    total_instructions: int
    loops: list[LoopInfo]
    functions: dict[str, FunctionTaskAnalysis]
    suggestions: list[Suggestion]
    pet: Optional[PETBuilder]
    #: task analyses for loop bodies that contain call sites (MPMD inside
    #: loops — the Fig. 4.10 FaceDetection shape), keyed by loop region id
    loop_tasks: dict[int, FunctionTaskAnalysis] = field(default_factory=dict)
    trace: Optional[object] = None
    #: thread count the suggestions were ranked for
    n_threads: int = 4
    #: wall seconds per engine phase (profile/build_cus/detect/rank);
    #: re-entrant phases accumulate, so values are per-phase totals
    timings: dict = field(default_factory=dict)
    #: per-phase {count, total, last} behind the totals in ``timings``
    timing_detail: dict = field(default_factory=dict)
    #: metrics-registry snapshot ({} unless config.obs was on); render
    #: with :func:`repro.obs.format_metrics_table` or ``repro stats``
    metrics: dict = field(default_factory=dict)
    #: self-profiling aggregates ({} unless config.obs == "trace"):
    #: per-phase self time, hottest span paths, sampling shares
    selfprof: dict = field(default_factory=dict)
    #: Phase-1 statistics (detection core, event counts, trace bytes, ...)
    profile_stats: dict = field(default_factory=dict)
    #: validate-phase reports (present when the engine ran with
    #: ``config.validate``): one per transformable suggestion
    validations: list[ValidationReport] = field(default_factory=list)
    #: mean |predicted - measured|/measured speedup error over the
    #: transforms that executed and validated identical (None = none did)
    prediction_error: Optional[float] = None

    def loop_at(self, line: int) -> Optional[LoopInfo]:
        """The innermost analysed loop whose header is at ``line``."""
        candidates = [l for l in self.loops if l.start_line == line]
        return candidates[0] if candidates else None

    def suggestions_of_kind(self, kind: str) -> list[Suggestion]:
        return [s for s in self.suggestions if s.kind == kind]

    def format_report(self) -> str:
        from repro.discovery.suggestions import format_suggestions

        return format_suggestions(self.suggestions)

    def to_dict(self) -> dict:
        """Stable JSON form of the full report (live objects dropped)."""
        return {
            "artifact": "discovery_result",
            "version": 1,
            "return_value": self.return_value,
            "n_threads": self.n_threads,
            "total_instructions": self.total_instructions,
            "line_counts": _counts_to_dict(self.line_counts),
            "store": self.store.to_dict(),
            "control": _control_to_dict(self.control),
            "loops": [info.to_dict() for info in self.loops],
            "functions": {
                name: fta.to_dict() for name, fta in self.functions.items()
            },
            "loop_tasks": {
                str(rid): fta.to_dict()
                for rid, fta in self.loop_tasks.items()
            },
            "suggestions": [s.to_dict() for s in self.suggestions],
            "timings": dict(self.timings),
            "timing_detail": {
                phase: dict(detail)
                for phase, detail in self.timing_detail.items()
            },
            "metrics": dict(self.metrics),
            "selfprof": dict(self.selfprof),
            "profile_stats": dict(self.profile_stats),
            "validations": [r.to_dict() for r in self.validations],
            "prediction_error": self.prediction_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscoveryResult":
        return cls(
            module=None,
            return_value=data["return_value"],
            store=DependenceStore.from_dict(data["store"]),
            control=_control_from_dict(data["control"]),
            registry=None,
            line_counts=_counts_from_dict(data["line_counts"]),
            total_instructions=data["total_instructions"],
            loops=[LoopInfo.from_dict(info) for info in data["loops"]],
            functions={
                name: FunctionTaskAnalysis.from_dict(fta)
                for name, fta in data["functions"].items()
            },
            suggestions=[
                Suggestion.from_dict(s) for s in data["suggestions"]
            ],
            pet=None,
            loop_tasks={
                int(rid): FunctionTaskAnalysis.from_dict(fta)
                for rid, fta in data["loop_tasks"].items()
            },
            n_threads=data.get("n_threads", 4),
            timings=dict(data.get("timings") or {}),
            timing_detail={
                phase: dict(detail)
                for phase, detail in (data.get("timing_detail") or {}).items()
            },
            metrics=dict(data.get("metrics") or {}),
            selfprof=dict(data.get("selfprof") or {}),
            profile_stats=dict(data.get("profile_stats") or {}),
            validations=[
                ValidationReport.from_dict(r)
                for r in (data.get("validations") or [])
            ],
            prediction_error=data.get("prediction_error"),
        )


# ---------------------------------------------------------------------------
# persistence helpers
# ---------------------------------------------------------------------------


def save_artifact(artifact, path: str) -> None:
    """Persist any artifact with a ``to_dict`` to a JSON file."""
    import json

    with open(path, "w") as handle:
        json.dump(artifact.to_dict(), handle, indent=1)


def load_artifact(path: str):
    """Reload a persisted artifact, dispatching on its ``artifact`` tag."""
    import json

    with open(path) as handle:
        data = json.load(handle)
    kind = data.get("artifact")
    cls = ARTIFACT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown artifact kind {kind!r} in {path}")
    return cls.from_dict(data)
