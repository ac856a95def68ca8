"""The Program Execution Tree (§2.3.6).

A PET represents one execution: function nodes (reached by "calling"
edges), loop nodes and block nodes (reached by "containing" edges).  Block
nodes are the leaf stretches of straight-line code between control
constructs.  Each node carries the metrics the paper lists — number of
executed (IR) memory instructions, number of data dependences, iteration
counts for loops — which the ranking step (§4.3) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.runtime.events import (
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TID,
    EventChunk,
    K_BGN,
    K_END,
    K_FENTRY,
    K_FEXIT,
    K_WRITE,
    stack_markers,
)


@dataclass
class PETNode:
    """One node of the program execution tree."""

    node_id: int
    kind: str  # 'function' | 'loop' | 'branch' | 'block'
    name: str
    line: int = 0
    children: list["PETNode"] = field(default_factory=list)
    parent: Optional["PETNode"] = None
    #: metrics
    executions: int = 0
    iterations: int = 0
    memory_instructions: int = 0
    lines_touched: set = field(default_factory=set)

    def add_child(self, child: "PETNode") -> "PETNode":
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterable["PETNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def subtree_memory_instructions(self) -> int:
        return self.memory_instructions + sum(
            c.subtree_memory_instructions for c in self.children
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PET {self.kind} {self.name} x{self.executions}>"


class PETBuilder:
    """Streams instrumentation events into a PET.

    One static construct gets one node per *position in the tree* (multiple
    executions are aggregated on the node — consistent with the profiler's
    merged view of loops, §2.3.5).
    """

    def __init__(self) -> None:
        self.root = PETNode(0, "root", "<execution>")
        self._next_id = 1
        #: per-thread stack of open nodes; thread 0 starts at root
        self._stacks: dict[int, list[PETNode]] = {}
        #: current block leaf per thread
        self._blocks: dict[int, Optional[PETNode]] = {}

    def _new_node(self, kind: str, name: str, line: int) -> PETNode:
        node = PETNode(self._next_id, kind, name, line)
        self._next_id += 1
        return node

    def _stack(self, tid: int) -> list[PETNode]:
        stack = self._stacks.get(tid)
        if stack is None:
            stack = [self.root]
            self._stacks[tid] = stack
        return stack

    def _enter(self, tid: int, kind: str, name: str, line: int) -> None:
        stack = self._stack(tid)
        top = stack[-1]
        # reuse an existing child for the same static construct
        for child in top.children:
            if child.kind == kind and child.name == name and child.line == line:
                node = child
                break
        else:
            node = top.add_child(self._new_node(kind, name, line))
        node.executions += 1
        stack.append(node)
        self._blocks[tid] = None

    def _leave(self, tid: int, kind: str, iterations: int = 0) -> None:
        stack = self._stack(tid)
        if len(stack) > 1:
            node = stack.pop()
            node.iterations += iterations
        self._blocks[tid] = None

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk: EventChunk) -> None:
        """PET construction with batched block attribution.

        The tree only changes shape at BGN/END/FENTRY/FEXIT; between two
        such markers every memory event of a thread lands in the same
        block node and attributes to the same enclosing stack.  The
        memory rows are therefore split into runs at those four kinds only
        (ITER and the other rows change nothing here) and attributed *per
        run* — one counter bump and one ``set.update`` per (run, thread)
        instead of per event.
        """
        rows = chunk.rows
        n = rows.shape[0]
        if n == 0:
            return
        kinds = rows[:, COL_KIND]
        markers = stack_markers(kinds)
        mem = np.flatnonzero(kinds <= K_WRITE)
        lines_col = rows[mem, COL_LINE]
        tids_col = rows[mem, COL_TID]
        # single-threaded chunks (the common case) skip the per-run
        # thread split entirely: one vectorized check for the whole chunk
        tid0 = int(tids_col[0]) if mem.shape[0] else 0
        chunk_single = bool((tids_col == tid0).all())
        names = chunk.strings.values
        ends = np.searchsorted(mem, markers).tolist() + [mem.shape[0]]
        start = 0
        for ci, end in zip(markers.tolist() + [n], ends):
            if end > start:
                if chunk_single:
                    self._attribute_run(
                        tid0, lines_col[start:end], end - start
                    )
                else:
                    seg_tids = tids_col[start:end]
                    uniq, first = np.unique(seg_tids, return_index=True)
                    single = uniq.shape[0] == 1
                    if not single:
                        # keep first-appearance order so node creation
                        # follows the threads' interleaving
                        uniq = uniq[np.argsort(first)]
                    for tid in uniq.tolist():
                        if single:
                            seg_lines = lines_col[start:end]
                            count = end - start
                        else:
                            mask = seg_tids == tid
                            seg_lines = lines_col[start:end][mask]
                            count = int(mask.sum())
                        self._attribute_run(tid, seg_lines, count)
            if ci < n:
                row = rows[ci].tolist()
                k = row[COL_KIND]
                if k == K_BGN:
                    kind = names[row[COL_NAME]]
                    self._enter(
                        row[COL_TID], kind, f"{kind}@{row[COL_LINE]}",
                        row[COL_LINE],
                    )
                elif k == K_END:
                    self._leave(
                        row[COL_TID], names[row[COL_NAME]], row[COL_AUX]
                    )
                elif k == K_FENTRY:
                    self._enter(
                        row[COL_TID], "function", names[row[COL_NAME]],
                        row[COL_LINE],
                    )
                elif k == K_FEXIT:
                    self._leave(row[COL_TID], "function")
            start = end

    def _attribute_run(self, tid: int, seg_lines, count: int) -> None:
        """Attribute a marker-free run of memory events to one thread."""
        block = self._blocks.get(tid)
        if block is None:
            stack = self._stack(tid)
            top = stack[-1]
            for child in top.children:
                if child.kind == "block":
                    block = child
                    break
            else:
                first_line = int(seg_lines[0])
                block = top.add_child(
                    self._new_node("block", f"block@{first_line}", first_line)
                )
            self._blocks[tid] = block
        block.memory_instructions += count
        block.lines_touched.update(seg_lines.tolist())
        for node in self._stack(tid)[1:]:
            node.memory_instructions += count

    # ------------------------------------------------------------------

    def functions(self) -> list[PETNode]:
        return [n for n in self.root.walk() if n.kind == "function"]

    def loops(self) -> list[PETNode]:
        return [n for n in self.root.walk() if n.kind == "loop"]

    def format_tree(self, max_depth: int = 6) -> str:
        """ASCII rendering (Fig. 2.6 style)."""
        lines: list[str] = []

        def visit(node: PETNode, depth: int) -> None:
            if depth > max_depth:
                return
            indent = "  " * depth
            metrics = f"exec={node.executions}"
            if node.kind == "loop":
                metrics += f" iters={node.iterations}"
            if node.memory_instructions:
                metrics += f" mem={node.memory_instructions}"
            lines.append(f"{indent}{node.kind} {node.name} [{metrics}]")
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)
