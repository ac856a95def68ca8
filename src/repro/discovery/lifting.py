"""Call-site anchoring of memory events.

To find parallelism *between* calls (SPMD tasks between recursive calls,
MPMD tasks between pipeline-stage functions), dependences whose endpoints
lie inside callees must surface at the call sites in the container under
analysis — the paper gets this from the PET: "when examining parallelism
between two functions, data dependences within each of them can be easily
ignored".

:func:`anchor_events` rewrites each memory event's line to its *anchor*
within a container region: the line itself when the access executes directly
in the container's function, otherwise the call-site line (within the
container) of the call chain that led to the access.  Profiling the anchored
stream with the ordinary serial profiler then yields a dependence store in
container-line coordinates, ready for CU-graph task analysis.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.mir.module import Module, Region
from repro.runtime.events import (
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TID,
    EventChunk,
    K_FENTRY,
    K_FEXIT,
    K_FREE,
    K_WRITE,
)

#: anchor modes of a thread between two of its call rows
_DROP, _DIRECT, _CALL = 0, 1, 2


def anchor_events(
    chunks: Iterable[EventChunk], module: Module, container: Region
) -> Iterator[EventChunk]:
    """Yield each trace chunk rewritten to container anchors.

    Only the rows the anchored profile reads survive: memory rows
    executing inside a dynamic instance of the container, with the line
    column of callee rows rewritten to their call-site line, and FREE
    rows, which end variable lifetimes.  Call rows are consumed here, and
    every other row is dropped: loop contexts ride in each memory row's
    signature column, and region markers would only feed control
    records, which the task analysis never reads.

    Anchoring is relative to the *outermost* frame of the container's
    function: the whole dynamic subtree under a call at line L collapses
    onto L.  For recursive containers this folds the recursion tree onto
    the top instance's call sites — dependences between two recursive
    calls then appear as edges between their call lines, which is what
    SPMD task detection needs (§4.2.1).

    A thread's anchor only changes at its own call rows, so it is
    resolved once per segment between them and broadcast over the
    segment's rows.  Rewritten rows get a fresh ``op_id`` per (op_id,
    anchor line) pair: the profiler's occurrence memo relies on an op id
    fixing the sink line, and one callee op may anchor to several call
    sites.
    """
    start, end = container.start_line, container.end_line
    #: per-thread call-line stack, and the depth of the outermost frame
    #: of the container's function on it (absent = not under it)
    stacks: dict[int, list[int]] = {}
    outer: dict[int, int] = {}
    #: (op_id << 32 | anchor line) -> op id of the rewritten rows
    anchored_ops: dict[int, int] = {}
    next_op = 1 + max(
        (instr.op_id for func in module.functions.values()
         for instr in func.code if instr.op_id is not None),
        default=-1,
    )

    def anchor(tid: int) -> tuple[int, int]:
        depth = outer.get(tid)
        if depth is None:
            return _DROP, 0
        stack = stacks[tid]
        if depth == len(stack) - 1:
            return _DIRECT, 0
        call_line = stack[depth + 1]
        if start <= call_line <= end:
            return _CALL, call_line
        return _DROP, 0

    for chunk in chunks:
        rows = chunk.rows
        n = rows.shape[0]
        if n == 0:
            continue
        kinds = rows[:, COL_KIND]
        is_call = (kinds == K_FENTRY) | (kinds == K_FEXIT)
        tids = rows[:, COL_TID]
        names = chunk.strings.values
        mode = np.empty(n, dtype=np.int64)
        anchor_line = np.empty(n, dtype=np.int64)
        tid0 = int(tids[0])
        if (tids == tid0).all():
            threads = [(tid0, slice(None))]
        else:
            threads = [
                (tid, np.nonzero(tids == tid)[0])
                for tid in np.unique(tids).tolist()
            ]
        for tid, sel in threads:
            calls = is_call[sel]
            states = [anchor(tid)]
            for kind, name, call_line in rows[sel][calls][
                :, (COL_KIND, COL_NAME, COL_AUX)
            ].tolist():
                stack = stacks.setdefault(tid, [])
                if kind == K_FENTRY:
                    if tid not in outer and names[name] == container.func:
                        outer[tid] = len(stack)
                    stack.append(call_line)
                elif stack:
                    stack.pop()
                    if outer.get(tid, -1) >= len(stack):
                        del outer[tid]
                states.append(anchor(tid))
            # rows after a thread's k-th call row take the k-th new state
            segment_states = np.array(states, dtype=np.int64)[
                np.cumsum(calls)
            ]
            mode[sel] = segment_states[:, 0]
            anchor_line[sel] = segment_states[:, 1]
        mem = kinds <= K_WRITE
        lines = rows[:, COL_LINE]
        keep = np.where(
            mem,
            (mode == _CALL)
            | ((mode == _DIRECT) & (lines >= start) & (lines <= end)),
            kinds == K_FREE,
        )
        out = rows[keep]
        moved = (mode[keep] == _CALL) & mem[keep]
        if moved.any():
            call_lines = anchor_line[keep][moved]
            pairs, inverse = np.unique(
                (out[moved, COL_AUX] << np.int64(32)) | call_lines,
                return_inverse=True,
            )
            ids = []
            for pair in pairs.tolist():
                op = anchored_ops.get(pair)
                if op is None:
                    op = anchored_ops[pair] = next_op
                    next_op += 1
                ids.append(op)
            out[moved, COL_AUX] = np.array(ids, dtype=np.int64)[inverse]
            out[moved, COL_LINE] = call_lines
        if out.shape[0]:
            yield EventChunk(out, chunk.strings, chunk.sigs)
