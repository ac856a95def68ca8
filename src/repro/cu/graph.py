"""CU graphs (§3.4).

Vertices are CUs; edges are the data dependences between their read/write
phases, restricted by the Table 3.1 rules:

* between different CUs: RAW, WAR, WAW all included;
* within one CU: only the RAW self-edge (the iterative read-previous-
  result pattern) is kept — intra-CU WAR is implied by read-compute-write,
  intra-CU WAW is a compiler concern, neither contributes to parallelism
  discovery.

Because the number of region-global variables is much smaller than the
number of locals, a CU graph is a drastic simplification of the classic
dependence graph — the property the discovery algorithms in Chapter 4
exploit.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.cu.digraph import (
    DiGraph,
    condensation,
    strongly_connected_components,
    topological_sort,
)
from repro.cu.model import CU, CURegistry
from repro.mir.module import Module, Region
from repro.profiler.deps import Dependence, DependenceStore, DepType


class CUGraph:
    """A :class:`~repro.cu.digraph.DiGraph` over CUs with dependence-typed
    edges."""

    def __init__(self, cus: list[CU]) -> None:
        self.cus = list(cus)
        self.graph = DiGraph()
        for cu in self.cus:
            self.graph.add_node(cu.cu_id, cu=cu)
        self._line2cu: dict[int, int] = {}
        for cu in self.cus:
            for line in cu.lines:
                # prefer the smaller CU when lines overlap (nested regions)
                existing = self._line2cu.get(line)
                if existing is None or len(cu.lines) < len(
                    self.cu(existing).lines
                ):
                    self._line2cu[line] = cu.cu_id

    # ------------------------------------------------------------------

    def cu(self, cu_id: int) -> CU:
        return self.graph.nodes[cu_id]["cu"]

    def cu_of_line(self, line: int) -> Optional[CU]:
        cu_id = self._line2cu.get(line)
        return self.cu(cu_id) if cu_id is not None else None

    def add_dependences(self, store: DependenceStore) -> None:
        """Map line-level dependences onto CU edges (sink CU -> source CU)."""
        graph = self.graph
        for dep in store:
            a = self._line2cu.get(dep.sink_line)
            b = self._line2cu.get(dep.source_line)
            if a is None or b is None:
                continue
            if a == b:
                # Table 3.1: keep only the RAW self-edge, and only when it
                # spans executions (loop-carried) — intra-execution RAW is
                # the CU's internal read-compute-write order.
                if dep.type != DepType.RAW or not dep.loop_carried:
                    continue
            edge = graph.get_edge_data(a, b)
            if edge is None:
                graph.add_edge(
                    a, b, types=set(), vars=set(), loop_carried=False,
                    carriers=set()
                )
                edge = graph.get_edge_data(a, b)
            edge["types"].add(dep.type)
            edge["vars"].add(dep.var)
            edge["loop_carried"] |= dep.loop_carried
            edge["carriers"] |= dep.carriers

    # ------------------------------------------------------------------
    # structure queries used by Chapter 4
    # ------------------------------------------------------------------

    def raw_subgraph(self) -> DiGraph:
        """Only true-dependence edges — the ones that cannot be broken."""
        sub = DiGraph()
        for node, attrs in self.graph.nodes.items():
            sub.add_node(node, **attrs)
        for a, b, data in self.graph.edges(data=True):
            if DepType.RAW in data["types"]:
                sub.add_edge(a, b, **data)
        return sub

    def sccs(self) -> list[set]:
        """Strongly connected components of the RAW subgraph (§4.2.2)."""
        return list(strongly_connected_components(self.raw_subgraph()))

    def condensation(self) -> DiGraph:
        """SCC condensation of the RAW subgraph — the task graph skeleton
        after substituting SCCs with single vertices (Fig. 4.5)."""
        return condensation(self.raw_subgraph())

    def chains(self) -> list[list]:
        """Maximal chains (paths of nodes with in/out degree <= 1) in the
        condensation — merged into single vertices by Fig. 4.5's
        simplification."""
        cond = self.condensation()
        chains: list[list] = []
        visited: set = set()
        for node in topological_sort(cond):
            if node in visited:
                continue
            if cond.in_degree(node) > 1:
                continue
            chain = [node]
            visited.add(node)
            current = node
            while True:
                succs = list(cond.successors(current))
                if len(succs) != 1:
                    break
                nxt = succs[0]
                if cond.in_degree(nxt) != 1 or nxt in visited:
                    break
                chain.append(nxt)
                visited.add(nxt)
                current = nxt
            chains.append(chain)
        return chains

    def format_text(self) -> str:
        """ASCII rendering in the spirit of Fig. 3.6."""
        lines = []
        for cu in self.cus:
            succs = [
                (b, d) for a, b, d in self.graph.out_edges(cu.cu_id, data=True)
            ]
            deps = ", ".join(
                f"{self.cu(b).name}({'/'.join(sorted(d['types']))})"
                for b, d in succs
            )
            lines.append(f"{cu.name} -> [{deps}]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# partitioning helpers
# ---------------------------------------------------------------------------


def container_cus(
    registry: CURegistry,
    module: Module,
    region: Region,
    line_counts: Optional[dict] = None,
) -> list[CU]:
    """The CU partition of a region's *direct* content: child regions appear
    as their own CUs (single-CU regions) or their segment CUs, and the
    region's own lines (outside any child) contribute the region's
    segment/region CUs restricted to those lines.  ``line_counts`` (dynamic
    memory instructions per line) lets trimmed CUs carry accurate work."""
    child_lines: set[int] = set()
    cus: list[CU] = []
    for child_id in region.children:
        child = module.regions[child_id]
        for cu in registry.cus_of_region(child_id):
            cus.append(cu)
        child_lines.update(
            range(child.start_line, child.end_line + 1)
        )
    for cu in registry.cus_of_region(region.region_id):
        own = frozenset(l for l in cu.lines if l not in child_lines)
        if own:
            if line_counts is not None:
                instructions = sum(line_counts.get(l, 0) for l in own)
            else:
                # fall back to a proportional estimate by line share
                share = len(own) / max(1, len(cu.lines))
                instructions = int(cu.instructions * share)
            trimmed = CU(
                cu_id=cu.cu_id,
                region_id=cu.region_id,
                func=cu.func,
                kind=cu.kind,
                start_line=min(own),
                end_line=max(own),
                lines=own,
                read_set=cu.read_set,
                write_set=cu.write_set,
                read_phase=frozenset(p for p in cu.read_phase if p[0] in own),
                write_phase=frozenset(p for p in cu.write_phase if p[0] in own),
                instructions=instructions,
            )
            cus.append(trimmed)
    return cus


def split_cus_at_lines(
    cus: list[CU],
    isolate: frozenset,
    line_counts: Optional[dict] = None,
) -> list[CU]:
    """Isolate given lines (call sites) into their own CUs.

    Task detection treats each call site as a schedulable unit — the PET
    view of §2.3.6, where function nodes are first-class.  Segment CUs that
    contain call lines are split so every call line stands alone; region
    CUs (whole child constructs) are left intact.
    """
    next_id = max((cu.cu_id for cu in cus), default=0) + 1
    out: list[CU] = []
    for cu in cus:
        targets = sorted(cu.lines & isolate)
        if not targets or cu.kind == "region":
            out.append(cu)
            continue
        pieces: list[list[int]] = []
        current: list[int] = []
        for line in sorted(cu.lines):
            if line in isolate:
                if current:
                    pieces.append(current)
                pieces.append([line])
                current = []
            else:
                current.append(line)
        if current:
            pieces.append(current)
        for piece in pieces:
            piece_set = frozenset(piece)
            instructions = (
                sum(line_counts.get(l, 0) for l in piece)
                if line_counts
                else max(1, cu.instructions // max(1, len(pieces)))
            )
            out.append(
                CU(
                    cu_id=next_id,
                    region_id=cu.region_id,
                    func=cu.func,
                    kind="segment",
                    start_line=min(piece),
                    end_line=max(piece),
                    lines=piece_set,
                    read_set=cu.read_set,
                    write_set=cu.write_set,
                    read_phase=frozenset(
                        p for p in cu.read_phase if p[0] in piece_set
                    ),
                    write_phase=frozenset(
                        p for p in cu.write_phase if p[0] in piece_set
                    ),
                    instructions=instructions,
                )
            )
            next_id += 1
    return out


def build_cu_graph(
    cus_or_registry,
    store: DependenceStore,
    module: Optional[Module] = None,
    region: Optional[Region] = None,
    *,
    isolate_lines: Optional[frozenset] = None,
    line_counts: Optional[dict] = None,
) -> CUGraph:
    """Build a CU graph either from an explicit CU list or from a registry +
    container region (using :func:`container_cus`)."""
    if isinstance(cus_or_registry, CURegistry):
        assert module is not None and region is not None
        cus = container_cus(cus_or_registry, module, region, line_counts)
    else:
        cus = list(cus_or_registry)
    if isolate_lines:
        cus = split_cus_at_lines(cus, frozenset(isolate_lines), line_counts)
    graph = CUGraph(cus)
    graph.add_dependences(store)
    return graph
