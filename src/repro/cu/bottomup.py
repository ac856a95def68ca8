"""Bottom-up CU construction (§3.2.3).

Processes the dynamic instruction stream of one region instance: every
instrumented instruction initially forms its own CU; a CU is merged with the
CUs of instructions it *anti-depends* on (write-after-read keeps the
read-compute-write order intact), while true dependences become directed
edges between CUs.  Instructions on variables local to the region are
ignored; adjacent first-writes merge into an INIT node.

As §3.2.3 discusses, this produces very fine-grained CUs (often single
source lines) and is retained for the granularity comparison against the
top-down approach (§3.3); the discovery pipeline uses top-down CUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cu.variables import effective_global_vars
from repro.mir.module import Module, Region
from repro.runtime.events import (
    COL_ADDR,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TID,
    COL_VAR,
    EventChunk,
    K_BGN,
    K_END,
    K_FENTRY,
    K_FEXIT,
    K_ITER,
    K_READ,
    K_WRITE,
)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)
        return min(ra, rb)


@dataclass
class FineCU:
    """A bottom-up CU: a set of dynamic instruction occurrences."""

    cu_id: int
    lines: set = field(default_factory=set)
    vars_read: set = field(default_factory=set)
    vars_written: set = field(default_factory=set)
    is_init: bool = False
    n_instructions: int = 0


@dataclass
class BottomUpResult:
    cus: list[FineCU]
    #: RAW edges between CU ids (sink_cu -> source_cu)
    edges: set

    @property
    def n_cus(self) -> int:
        return len(self.cus)

    def mean_cu_size_lines(self) -> float:
        if not self.cus:
            return 0.0
        return sum(len(c.lines) for c in self.cus) / len(self.cus)


class BottomUpBuilder:
    """Runs the bottom-up algorithm over one region instance's events."""

    def __init__(self, module: Module, region: Region) -> None:
        self.module = module
        self.region = region
        self.gv = effective_global_vars(module, region)

    def build(self, events: EventChunk) -> BottomUpResult:
        """``events`` must be the memory events of ONE instance of the
        region (same thread), in execution order."""
        uf = _UnionFind()
        #: occurrence index -> (line, var_id, kind)
        occ: list[tuple] = []
        #: var -> list of occurrence ids that read it since its last write
        readers: dict[int, list[int]] = {}
        #: var -> occurrence id of its last write
        writer: dict[int, int] = {}
        raw_edges: set = set()
        init_occs: list[int] = []
        prev_was_init = False

        rows = events.rows
        for kind, line, var_id in zip(
            rows[:, COL_KIND].tolist(), rows[:, COL_LINE].tolist(),
            rows[:, COL_VAR].tolist(),
        ):
            if kind > K_WRITE:
                prev_was_init = False
                continue
            if var_id not in self.gv:
                # instruction on a region-local variable: ignored and
                # dependences involving it excluded (§3.2.3 step 2)
                continue
            if not (self.region.start_line <= line <= self.region.end_line):
                continue
            idx = len(occ)
            occ.append((line, var_id, kind))
            uf.find(idx)  # register
            if kind == K_READ:
                readers.setdefault(var_id, []).append(idx)
                w = writer.get(var_id)
                if w is not None:
                    # true dependence: directed edge, no merge
                    raw_edges.add((idx, w))
                prev_was_init = False
            else:
                first_write = var_id not in writer
                # merge with every CU that read the variable before us
                # (anti-dependence keeps read before write in one CU)
                for r in readers.pop(var_id, []):
                    uf.union(idx, r)
                writer[var_id] = idx
                if first_write and var_id not in readers:
                    if prev_was_init and init_occs:
                        uf.union(idx, init_occs[-1])
                    init_occs.append(idx)
                    prev_was_init = True
                else:
                    prev_was_init = False

        # materialise CUs
        groups: dict[int, FineCU] = {}
        roots: dict[int, int] = {}
        for idx, (line, var_id, kind) in enumerate(occ):
            root = uf.find(idx)
            cu = groups.get(root)
            if cu is None:
                cu = FineCU(cu_id=len(groups))
                groups[root] = cu
            roots[idx] = cu.cu_id
            cu.lines.add(line)
            cu.n_instructions += 1
            if kind == K_READ:
                cu.vars_read.add(var_id)
            else:
                cu.vars_written.add(var_id)
        for root_idx in init_occs:
            root = uf.find(root_idx)
            if root in groups:
                groups[root].is_init = True
        edges = {
            (roots[a], roots[b])
            for a, b in raw_edges
            if roots[a] != roots[b]
        }
        return BottomUpResult(list(groups.values()), edges)


def first_instance_events(
    chunks: Iterable[EventChunk], module: Module, region: Region
) -> EventChunk:
    """Extract the memory events of the first complete instance of a region
    (first iteration for loops) — the slice the bottom-up builder analyses."""
    out: list = []
    strings = None
    rid = region.region_id
    is_func = region.kind == "func"
    tid_of_instance: Optional[int] = None
    for chunk in chunks:
        strings = chunk.strings
        names = strings.values
        for row in chunk.rows.tolist():
            kind = row[COL_KIND]
            if tid_of_instance is None:
                if (kind == K_BGN and row[COL_ADDR] == rid) or (
                    kind == K_FENTRY and is_func
                    and names[row[COL_NAME]] == region.func
                ):
                    tid_of_instance = row[COL_TID]
                continue
            # end of the instance: next iteration, region end, or return
            if (kind == K_ITER or kind == K_END) and row[COL_ADDR] == rid or (
                kind == K_FEXIT and is_func
                and names[row[COL_NAME]] == region.func
            ):
                return EventChunk.from_rows(out, strings)
            if kind <= K_WRITE and row[COL_TID] == tid_of_instance:
                out.append(row)
    return EventChunk.from_rows(out, strings)


def build_cus_bottom_up(
    module: Module, region: Region, chunks: Iterable[EventChunk]
) -> BottomUpResult:
    """Convenience: bottom-up CUs of a region's first execution instance."""
    instance = first_instance_events(chunks, module, region)
    return BottomUpBuilder(module, region).build(instance)
