"""Reference top-down CU walk: Algorithm 3 one event at a time.

This is the per-event trace walk that :class:`repro.cu.topdown.TopDownBuilder`
replaced with per-batch scans.  It keeps one :class:`_Instance` per open
region on a per-thread stack and checks every read against the instances'
written sets.  It exists only so the equivalence tests can compare the
columnar builder against it; :meth:`ReferenceTopDownBuilder.build` is the
production assembly step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cu.topdown import TopDownBuilder
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
    add_line_counts,
)


@dataclass
class _Instance:
    """One dynamic execution instance of a region (per thread)."""

    region_id: int
    start_line: int
    end_line: int
    gv: frozenset
    written: set = field(default_factory=set)


class ReferenceTopDownBuilder(TopDownBuilder):
    """:class:`TopDownBuilder` fed by the per-event walk."""

    def __init__(self, module) -> None:
        super().__init__(module)
        #: per-thread stack of open instances
        self._stacks: dict[int, list[_Instance]] = {}
        #: per-thread var_id -> instances whose gv contain it, valid for the
        #: current stack state (columnar walk; invalidated on open/close)
        self._filters: dict[int, dict] = {}

    def _open(self, tid: int, region_id: int) -> None:
        region = self.module.regions[region_id]
        inst = _Instance(
            region_id, region.start_line, region.end_line, self._gv_cache[region_id]
        )
        self._stacks.setdefault(tid, []).append(inst)
        self._accum[region_id].executed = True
        self._filters.pop(tid, None)

    def _close(self, tid: int, region_id: int) -> None:
        self._filters.pop(tid, None)
        stack = self._stacks.get(tid)
        if not stack:
            return
        # pop until the matching region is closed (robust to early returns)
        while stack:
            inst = stack.pop()
            if inst.region_id == region_id:
                break

    def process_chunks(self, chunks: Iterable[EventChunk]) -> None:
        for chunk in chunks:
            self._process_chunk(chunk)

    def _process_chunk(self, chunk: EventChunk) -> None:
        rows = chunk.rows
        if rows.shape[0] == 0:
            return
        add_line_counts(self.line_counts, chunk)
        klist = rows[:, COL_KIND].tolist()
        regs = rows[:, COL_ADDR].tolist()
        lines = rows[:, COL_LINE].tolist()
        nids = rows[:, COL_NAME].tolist()
        tids = rows[:, COL_TID].tolist()
        vids = rows[:, COL_VAR].tolist()
        names = chunk.strings.values
        stacks = self._stacks
        accum = self._accum
        filters = self._filters
        idx = -1
        for k, tid in zip(klist, tids):
            idx += 1
            if k == K_READ:
                var_id = vids[idx]
                flt = filters.get(tid)
                if flt is None:
                    flt = filters[tid] = {}
                insts = flt.get(var_id)
                if insts is None:
                    insts = flt[var_id] = tuple(
                        inst
                        for inst in stacks.get(tid, ())
                        if var_id in inst.gv
                    )
                if insts:
                    line = lines[idx]
                    for inst in insts:
                        acc = accum[inst.region_id]
                        if inst.start_line <= line <= inst.end_line:
                            acc.read_phase.add((line, var_id))
                            if var_id in inst.written:
                                acc.violations.add((line, var_id))
            elif k == K_WRITE:
                var_id = vids[idx]
                flt = filters.get(tid)
                if flt is None:
                    flt = filters[tid] = {}
                insts = flt.get(var_id)
                if insts is None:
                    insts = flt[var_id] = tuple(
                        inst
                        for inst in stacks.get(tid, ())
                        if var_id in inst.gv
                    )
                if insts:
                    line = lines[idx]
                    for inst in insts:
                        if inst.start_line <= line <= inst.end_line:
                            accum[inst.region_id].write_phase.add(
                                (line, var_id)
                            )
                        inst.written.add(var_id)
            elif k == K_BGN:
                self._open(tid, regs[idx])
            elif k == K_END:
                self._close(tid, regs[idx])
            elif k == K_ITER:
                stack = stacks.get(tid, ())
                region_id = regs[idx]
                for inst in reversed(stack):
                    if inst.region_id == region_id:
                        inst.written.clear()
                        break
            elif k == K_FENTRY:
                region_id = self._func_region.get(names[nids[idx]])
                if region_id is not None:
                    self._open(tid, region_id)
            elif k == K_FEXIT:
                region_id = self._func_region.get(names[nids[idx]])
                if region_id is not None:
                    self._close(tid, region_id)
