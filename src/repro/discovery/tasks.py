"""Task parallelism detection (§4.2).

SPMD-style tasks (§4.2.1): several instances of the *same* computation that
can run concurrently — in practice call sites of the same function (most
prominently recursive calls, the BOTS pattern: ``fib(n-1)`` / ``fib(n-2)``)
between which no true-dependence path exists.

MPMD-style tasks (§4.2.2): *different* computations that can overlap.  The
CU graph is simplified by substituting its strongly connected components and
chains with single vertices (Fig. 4.5); the resulting DAG is the task graph,
and any level with more than one vertex exposes MPMD parallelism.  Control
dependences are respected by construction: CUs never cross control-region
boundaries, so tasks are formed within one region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cu.digraph import (
    DiGraph,
    descendants,
    topological_generations,
    topological_sort,
)
from repro.cu.graph import CUGraph
from repro.mir.instructions import Opcode
from repro.mir.module import Module, Region


@dataclass
class SPMDTaskGroup:
    """Call sites of one function that may run as parallel tasks."""

    callee: str
    container_region: int
    call_lines: list[int]
    cu_ids: list[int]
    is_recursive: bool = False
    #: True when every pair of call-site CUs is RAW-independent
    independent: bool = True
    #: lines blocking independence (RAW paths between call sites), if any
    blockers: list[tuple] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "callee": self.callee,
            "container_region": self.container_region,
            "call_lines": list(self.call_lines),
            "cu_ids": list(self.cu_ids),
            "is_recursive": self.is_recursive,
            "independent": self.independent,
            "blockers": [list(b) for b in self.blockers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SPMDTaskGroup":
        return cls(
            callee=data["callee"],
            container_region=data["container_region"],
            call_lines=list(data["call_lines"]),
            cu_ids=list(data["cu_ids"]),
            is_recursive=data["is_recursive"],
            independent=data["independent"],
            blockers=[tuple(b) for b in data["blockers"]],
        )


@dataclass
class TaskNode:
    """One vertex of the simplified task graph: a chain of SCCs of CUs."""

    node_id: int
    cu_ids: list[int]
    lines: set
    work: int = 0

    @property
    def label(self) -> str:
        lo = min(self.lines) if self.lines else 0
        hi = max(self.lines) if self.lines else 0
        return f"T{self.node_id}[{lo}-{hi}]"

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "cu_ids": list(self.cu_ids),
            "lines": sorted(self.lines),
            "work": self.work,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskNode":
        return cls(
            node_id=data["node_id"],
            cu_ids=list(data["cu_ids"]),
            lines=set(data["lines"]),
            work=data["work"],
        )


@dataclass
class TaskGraph:
    """Simplified CU graph (Fig. 4.5): SCCs and chains contracted."""

    nodes: list[TaskNode]
    edges: set  # (src_node_id, dst_node_id): src must finish before dst
    container_region: int = -1

    def graph(self) -> DiGraph:
        g = DiGraph()
        for node in self.nodes:
            g.add_node(node.node_id, task=node)
        g.add_edges_from(self.edges)
        return g

    def levels(self) -> list[list[TaskNode]]:
        g = self.graph()
        by_id = {n.node_id: n for n in self.nodes}
        return [
            [by_id[i] for i in generation]
            for generation in topological_generations(g)
        ]

    @property
    def width(self) -> int:
        """Maximum number of tasks that may run concurrently."""
        levels = self.levels()
        return max((len(level) for level in levels), default=0)

    @property
    def total_work(self) -> int:
        return sum(n.work for n in self.nodes)

    @property
    def critical_path_work(self) -> int:
        """Work along the heaviest dependence path."""
        g = self.graph()
        by_id = {n.node_id: n for n in self.nodes}
        best: dict[int, int] = {}
        for node_id in topological_sort(g):
            preds = list(g.predecessors(node_id))
            incoming = max((best[p] for p in preds), default=0)
            best[node_id] = incoming + by_id[node_id].work
        return max(best.values(), default=0)

    @property
    def inherent_speedup(self) -> float:
        cp = self.critical_path_work
        return self.total_work / cp if cp else 1.0

    def to_dict(self) -> dict:
        return {
            "nodes": [n.to_dict() for n in self.nodes],
            "edges": sorted(list(e) for e in self.edges),
            "container_region": self.container_region,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskGraph":
        return cls(
            nodes=[TaskNode.from_dict(n) for n in data["nodes"]],
            edges={tuple(e) for e in data["edges"]},
            container_region=data["container_region"],
        )


# ---------------------------------------------------------------------------
# SPMD
# ---------------------------------------------------------------------------


def call_sites(module: Module, region: Region) -> dict[int, str]:
    """line -> callee for calls lexically inside the region."""
    func = module.functions.get(region.func)
    if func is None:
        return {}
    out: dict[int, str] = {}
    for instr in func.code:
        if instr.op in (Opcode.CALL, Opcode.SPAWN) and region.contains_line(
            instr.line
        ):
            out[instr.line] = instr.a
    return out


def find_spmd_tasks(
    module: Module,
    region: Region,
    graph: CUGraph,
    anchored_store=None,
) -> list[SPMDTaskGroup]:
    """SPMD groups among the call sites of a container region.

    ``graph`` must be the CU graph over the *anchored* dependence store of
    the container (see :mod:`repro.discovery.lifting`), so dependences
    between call subtrees appear at the call sites.  Independence between
    two call sites is checked at *line* granularity on the anchored store's
    RAW edges: a true-dependence path connecting the two call lines (in
    either direction) serialises them; a joint successor (the combine step
    reading both results) does not — it is the task-wait point.
    """
    sites = call_sites(module, region)
    if not sites:
        return []

    # line-level RAW reachability (sink -> source = "depends on")
    line_raw = DiGraph()
    if anchored_store is not None:
        for dep in anchored_store:
            if dep.type == "RAW" and dep.sink_line != dep.source_line:
                line_raw.add_edge(dep.sink_line, dep.source_line)

    def blocked(a: int, b: int) -> bool:
        if anchored_store is None:
            cu_a = graph.cu_of_line(a)
            cu_b = graph.cu_of_line(b)
            if cu_a is None or cu_b is None or cu_a.cu_id == cu_b.cu_id:
                return True
            raw = graph.raw_subgraph()
            return (
                cu_b.cu_id in descendants(raw, cu_a.cu_id)
                or cu_a.cu_id in descendants(raw, cu_b.cu_id)
            )
        if a not in line_raw or b not in line_raw:
            return False
        return b in descendants(line_raw, a) or a in descendants(
            line_raw, b
        )

    by_callee: dict[str, list[int]] = {}
    for line, callee in sorted(sites.items()):
        by_callee.setdefault(callee, []).append(line)

    groups: list[SPMDTaskGroup] = []
    for callee, lines in by_callee.items():
        recursive = callee == region.func
        if len(lines) < 2:
            continue
        cu_ids: list[int] = []
        for line in lines:
            cu = graph.cu_of_line(line)
            if cu is not None and cu.cu_id not in cu_ids:
                cu_ids.append(cu.cu_id)
        blockers: list[tuple] = []
        for i, a in enumerate(lines):
            for b in lines[i + 1:]:
                if blocked(a, b):
                    blockers.append((a, b))
        groups.append(
            SPMDTaskGroup(
                callee=callee,
                container_region=region.region_id,
                call_lines=lines,
                cu_ids=cu_ids,
                is_recursive=recursive,
                independent=not blockers,
                blockers=blockers,
            )
        )
    return groups


# ---------------------------------------------------------------------------
# MPMD
# ---------------------------------------------------------------------------


def find_mpmd_tasks(graph: CUGraph, region: Optional[Region] = None) -> TaskGraph:
    """Fig. 4.5 simplification: SCC condensation, then chain contraction."""
    cond = graph.condensation()  # nodes carry 'members' (cu ids)
    chains = graph.chains()
    chain_of: dict[int, int] = {}
    for chain_idx, chain in enumerate(chains):
        for cond_node in chain:
            chain_of[cond_node] = chain_idx
    # any condensation node not in a chain forms its own task
    next_chain = len(chains)
    for cond_node in cond.nodes:
        if cond_node not in chain_of:
            chain_of[cond_node] = next_chain
            chains.append([cond_node])
            next_chain += 1

    nodes: list[TaskNode] = []
    members_of_chain: dict[int, list[int]] = {}
    for cond_node, chain_idx in chain_of.items():
        members_of_chain.setdefault(chain_idx, []).extend(
            cond.nodes[cond_node]["members"]
        )
    for chain_idx, cu_ids in sorted(members_of_chain.items()):
        lines: set = set()
        work = 0
        for cu_id in cu_ids:
            cu = graph.cu(cu_id)
            lines |= set(cu.lines)
            work += cu.instructions
        nodes.append(TaskNode(chain_idx, sorted(cu_ids), lines, work))

    edges: set = set()
    for a, b in cond.edges():
        ca, cb = chain_of[a], chain_of[b]
        if ca != cb:
            # CU-graph edges point sink -> source (dependence direction);
            # task edges point source -> sink (execution order)
            edges.add((cb, ca))
    return TaskGraph(
        nodes, edges, container_region=region.region_id if region else -1
    )
