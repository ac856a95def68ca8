"""Loop parallelism detection (§4.1).

DOALL (§4.1.1): a loop is DOALL when no read-after-write dependence is
carried across its iterations — every iteration's read phase is independent
of other iterations' write phases.  Two refinements from the paper:

* dependences on the loop *iteration variable* do not count (it is local to
  the loop per §3.2.5 unless the body writes it);
* *reductions* (``sum += f(i)`` patterns — carried RAW whose source and
  sink are the same line and whose variable is only touched there) do not
  prevent DOALL: they are resolved by reduction parallelization, and the
  suggestion records the reduction variable.

Carried WAR/WAW dependences do not prevent DOALL either — they are resolved
by privatization (§1.2.1: name dependences); the affected variables are
reported as privatization candidates.

DOACROSS (§4.1.2): loops whose carried RAW dependences have a regular
inter-iteration structure can still be parallelized by staggering
iterations.  We classify a non-DOALL loop as DOACROSS when its body
decomposes into more than one pipeline stage (CU-graph condensation levels)
or when the carried RAWs touch only a proper subset of the body's CUs —
then iteration i+1's early stages overlap iteration i's late stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cu.digraph import topological_generations
from repro.cu.graph import CUGraph, build_cu_graph
from repro.cu.model import CURegistry
from repro.mir.module import Module, Region
from repro.profiler.deps import (
    Dependence,
    DependenceStore,
    DepType,
    identity_order,
)


class LoopClass:
    DOALL = "DOALL"
    DOALL_REDUCTION = "DOALL(reduction)"
    DOACROSS = "DOACROSS"
    SEQUENTIAL = "SEQUENTIAL"


@dataclass
class LoopInfo:
    """Classification result for one loop region."""

    region_id: int
    func: str
    start_line: int
    end_line: int
    classification: str
    iterations: int = 0
    instructions: int = 0
    #: carried RAW dependences that block DOALL (after filtering),
    #: heaviest first (ties broken by merge identity)
    blocking: list[Dependence] = field(default_factory=list)
    #: variables resolvable by reduction parallelization
    reduction_vars: set = field(default_factory=set)
    #: variables resolvable by privatization (carried WAR/WAW only)
    private_vars: set = field(default_factory=set)
    #: pipeline stages for DOACROSS execution (CU condensation levels)
    stages: int = 1
    #: fraction of body work in stages not touched by carried RAWs
    parallel_fraction: float = 0.0

    @property
    def is_parallelizable(self) -> bool:
        return self.classification in (
            LoopClass.DOALL,
            LoopClass.DOALL_REDUCTION,
            LoopClass.DOACROSS,
        )

    @property
    def location(self) -> str:
        return f"{self.func}:{self.start_line}-{self.end_line}"

    def to_dict(self) -> dict:
        """Stable JSON form (sets sorted, dependences nested as dicts)."""
        return {
            "region_id": self.region_id,
            "func": self.func,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "classification": self.classification,
            "iterations": self.iterations,
            "instructions": self.instructions,
            "blocking": [d.to_dict() for d in self.blocking],
            "reduction_vars": sorted(self.reduction_vars),
            "private_vars": sorted(self.private_vars),
            "stages": self.stages,
            "parallel_fraction": self.parallel_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopInfo":
        return cls(
            region_id=data["region_id"],
            func=data["func"],
            start_line=data["start_line"],
            end_line=data["end_line"],
            classification=data["classification"],
            iterations=data["iterations"],
            instructions=data["instructions"],
            blocking=[Dependence.from_dict(d) for d in data["blocking"]],
            reduction_vars=set(data["reduction_vars"]),
            private_vars=set(data["private_vars"]),
            stages=data["stages"],
            parallel_fraction=data["parallel_fraction"],
        )


def _iter_var_names(module: Module, region: Region) -> set:
    names = set()
    if region.iter_var is not None and not region.iter_var_written_in_body:
        names.add(module.symtab.variables[region.iter_var].name)
    # nested loops' iteration variables are equally harmless for this loop
    for child_id in region.children:
        child = module.regions[child_id]
        if child.kind == "loop":
            names |= _iter_var_names(module, child)
    return names


def _is_reduction(
    dep: Dependence,
    loop_deps: list[Dependence],
    array_names: set,
    region: Region,
    store: DependenceStore,
) -> bool:
    """A carried RAW is a reduction when it is a self-cycle on one line
    (``sum += ...``) over a *scalar* accumulator, no other carried RAW
    involves the variable from a different line, and the running value is
    never consumed elsewhere inside the loop.

    The scalar requirement distinguishes true reductions from single-line
    array recurrences (``c[i] = c[i-1] + ...``); the no-consumer requirement
    distinguishes them from recurrences whose intermediate values feed other
    computation (an LCG seed chain: ``seed = f(seed); key[i] = seed % m``
    is NOT a reduction even though its carried RAW is a one-line cycle).
    Reads after the loop are fine — that is where a reduction's result is
    used.
    """
    if dep.sink_line != dep.source_line:
        return False
    if dep.var in array_names:
        return False
    for other in loop_deps:
        if other.var != dep.var or other.type != DepType.RAW:
            continue
        if other.sink_line != dep.sink_line or other.source_line != dep.source_line:
            return False
    for other in store.involving_var(dep.var):
        if other.type != DepType.RAW:
            continue
        if (
            region.contains_line(other.sink_line)
            and other.source_line == dep.source_line
            and other.sink_line != dep.sink_line
        ):
            return False  # intermediate value consumed inside the loop
    return True


def analyze_loop(
    module: Module,
    region: Region,
    store: DependenceStore,
    registry: Optional[CURegistry] = None,
    *,
    iterations: int = 0,
    instructions: int = 0,
    line_counts: Optional[dict] = None,
) -> LoopInfo:
    """Classify one loop region from the merged dependence store."""
    carried = store.carried_by(region.region_id)
    iter_vars = _iter_var_names(module, region)
    array_names = {
        info.name
        for info in module.symtab.variables.values()
        if info.is_array or (info.kind == "param" and info.is_array)
    }

    raw_blockers: list[Dependence] = []
    reduction_vars: set = set()
    private_vars: set = set()
    carried_raws = [
        d for d in carried if d.type == DepType.RAW and d.var not in iter_vars
    ]
    for dep in carried:
        if dep.var in iter_vars:
            continue
        if dep.type == DepType.RAW:
            if _is_reduction(dep, carried_raws, array_names, region, store):
                reduction_vars.add(dep.var)
            else:
                raw_blockers.append(dep)
        else:  # WAR / WAW: name dependences, resolved by privatization
            private_vars.add(dep.var)
    # store insertion order depends on the detection core and its batch
    # size; a total order keeps reports stable and shows the heaviest first
    raw_blockers.sort(key=lambda d: (-d.count, identity_order(d)))
    # a variable cannot be both: RAW blockers trump privatization
    blocker_vars = {d.var for d in raw_blockers}
    private_vars -= blocker_vars
    reduction_vars -= blocker_vars

    info = LoopInfo(
        region_id=region.region_id,
        func=region.func,
        start_line=region.start_line,
        end_line=region.end_line,
        classification=LoopClass.SEQUENTIAL,
        iterations=iterations,
        instructions=instructions,
        blocking=raw_blockers,
        reduction_vars=reduction_vars,
        private_vars=private_vars,
    )

    if not raw_blockers:
        info.classification = (
            LoopClass.DOALL_REDUCTION if reduction_vars else LoopClass.DOALL
        )
        info.parallel_fraction = 1.0
        return info

    # DOACROSS assessment via the loop-body CU graph
    if registry is not None:
        graph = build_cu_graph(
            registry, store, module, region, line_counts=line_counts
        )
        if graph.cus:
            cond = graph.condensation()
            levels = list(topological_generations(cond))
            info.stages = max(1, len(levels))
            blocked_lines = {d.sink_line for d in raw_blockers} | {
                d.source_line for d in raw_blockers
            }
            total_work = sum(cu.instructions for cu in graph.cus) or 1
            blocked_work = sum(
                cu.instructions
                for cu in graph.cus
                if cu.lines & blocked_lines
            )
            info.parallel_fraction = max(0.0, 1.0 - blocked_work / total_work)
            if info.stages > 1 or info.parallel_fraction >= 0.5:
                info.classification = LoopClass.DOACROSS
    return info


def analyze_loops(
    module: Module,
    store: DependenceStore,
    registry: Optional[CURegistry] = None,
    control: Optional[dict] = None,
    line_counts: Optional[dict] = None,
) -> list[LoopInfo]:
    """Classify every executed loop in the module."""
    out: list[LoopInfo] = []
    for region in module.loops():
        iterations = 0
        if control and region.region_id in control:
            iterations = control[region.region_id].total_iterations
        if control is not None and region.region_id not in control:
            continue  # loop never executed
        instructions = 0
        if line_counts:
            instructions = sum(
                count
                for line, count in line_counts.items()
                if region.contains_line(line)
            )
        out.append(
            analyze_loop(
                module,
                region,
                store,
                registry,
                iterations=iterations,
                instructions=instructions,
                line_counts=line_counts,
            )
        )
    return out
