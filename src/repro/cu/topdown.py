"""Top-down CU construction (Algorithm 3).

For every control region the builder checks — against the executed trace —
whether the whole region satisfies the read-compute-write pattern over its
region-global variables: no read of a global variable may *happen after* a
write to it within one execution instance of the region.  Instances are one
function invocation, one loop iteration (the per-iteration analysis behind
Fig. 3.4: the write of ``x`` at the end of an iteration does not violate the
pattern for the next iteration — it becomes the CU's RAW self-edge), or one
branch execution.

Regions that pass are single CUs.  Regions that fail are split at the
violating read lines: every violating read starts a new segment, and each
segment becomes a CU (the "build CUs for all code snippets separated by the
violating read instructions" step of Algorithm 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cu.model import CU, CURegistry, RegionCUInfo
from repro.cu.variables import effective_global_vars, read_write_sets
from repro.mir.instructions import Opcode
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


@dataclass
class _RegionAccum:
    """Aggregated observations for one static region."""

    executed: bool = False
    violations: set = field(default_factory=set)  # (line, var_id)
    read_phase: set = field(default_factory=set)  # (line, var_id)
    write_phase: set = field(default_factory=set)


class TopDownBuilder:
    """Builds the CU registry from a module + recorded trace."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._accum: dict[int, _RegionAccum] = {
            rid: _RegionAccum() for rid in module.regions
        }
        self._gv_cache: dict[int, frozenset] = {
            rid: effective_global_vars(module, region)
            for rid, region in module.regions.items()
        }
        #: per-thread stack of open instances
        self._stacks: dict[int, list[_Instance]] = {}
        #: dynamic memory-instruction count per source line
        self.line_counts: dict[int, int] = {}
        #: map function name -> its region id
        self._func_region = {
            name: func.region_id for name, func in module.functions.items()
        }
        #: per-thread var_id -> instances whose gv contain it, valid for the
        #: current stack state (columnar walk; invalidated on open/close)
        self._filters: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # trace consumption
    # ------------------------------------------------------------------

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
        """Walk a chunked trace (``TraceSink.iter_chunks`` /
        ``SpillingTraceSink.iter_chunks``)."""
        for chunk in chunks:
            self._process_chunk(chunk)

    def _process_chunk(self, chunk: EventChunk) -> None:
        """Columnar trace walk.

        Line counts are accumulated with one vectorized ``np.unique`` per
        chunk, and the per-event loop runs over bulk-extracted int
        columns.  The open-instance scan is memoized per ``(stack state,
        var_id)`` — stacks only change at region markers, so between
        markers the set of instances whose region-global variables contain
        a given var is a dict hit instead of a walk with per-instance
        frozenset probes.
        """
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

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def _static_mem_lines(self, region: Region) -> list[int]:
        """Source lines with memory operations lexically inside the region."""
        func = self.module.functions.get(region.func)
        if func is None:
            return []
        lines = {
            instr.line
            for instr in func.code
            if instr.is_memory() and region.contains_line(instr.line)
        }
        return sorted(lines)

    def build(self) -> CURegistry:
        registry = CURegistry()
        for region_id, region in self.module.regions.items():
            acc = self._accum[region_id]
            if not acc.executed:
                continue
            gv = self._gv_cache[region_id]
            read_set, write_set = read_write_sets(self.module, region, gv)
            lines = self._static_mem_lines(region)
            instructions = sum(self.line_counts.get(l, 0) for l in lines)
            if not acc.violations:
                cu = registry.new_cu(
                    region_id=region_id,
                    func=region.func,
                    kind="region",
                    start_line=region.start_line,
                    end_line=region.end_line,
                    lines=frozenset(lines) | {region.start_line, region.end_line},
                    read_set=read_set,
                    write_set=write_set,
                    read_phase=frozenset(acc.read_phase),
                    write_phase=frozenset(acc.write_phase),
                    instructions=instructions,
                )
                registry.by_region[region_id] = RegionCUInfo(
                    region_id, True, region_cu=cu
                )
            else:
                violating_lines = {line for line, _ in acc.violations}
                # CUs never cross control-region boundaries (§3.1): child
                # regions force segment breaks at their start and right
                # after their end.
                child_bounds: set[int] = set()
                for child_id in region.children:
                    child = self.module.regions[child_id]
                    child_bounds.add(child.start_line)
                    child_bounds.add(child.end_line + 1)
                boundary_lines = violating_lines | {
                    _first_line_at_or_after(lines, b) for b in child_bounds
                }
                boundary_lines.discard(None)
                segments = _split_segments(lines, sorted(boundary_lines))
                info = RegionCUInfo(
                    region_id,
                    False,
                    violations=frozenset(acc.violations),
                )
                for seg_lines in segments:
                    seg_set = set(seg_lines)
                    seg_reads = {
                        (l, v) for (l, v) in acc.read_phase if l in seg_set
                    }
                    seg_writes = {
                        (l, v) for (l, v) in acc.write_phase if l in seg_set
                    }
                    cu = registry.new_cu(
                        region_id=region_id,
                        func=region.func,
                        kind="segment",
                        start_line=min(seg_lines),
                        end_line=max(seg_lines),
                        lines=frozenset(seg_lines),
                        read_set=frozenset(v for _, v in seg_reads),
                        write_set=frozenset(v for _, v in seg_writes),
                        read_phase=frozenset(seg_reads),
                        write_phase=frozenset(seg_writes),
                        instructions=sum(
                            self.line_counts.get(l, 0) for l in seg_lines
                        ),
                    )
                    info.segments.append(cu)
                registry.by_region[region_id] = info
        return registry


def _first_line_at_or_after(lines: list[int], bound: int):
    """First executed-line value >= bound, or None."""
    from bisect import bisect_left

    idx = bisect_left(lines, bound)
    return lines[idx] if idx < len(lines) else None


def _split_segments(
    lines: list[int], violating_lines: list[int]
) -> list[list[int]]:
    """Split an ordered line list into segments; every violating read line
    *starts* a new segment."""
    if not lines:
        return []
    boundaries = set(violating_lines)
    segments: list[list[int]] = []
    current: list[int] = []
    for line in lines:
        if line in boundaries and current:
            segments.append(current)
            current = []
        current.append(line)
    if current:
        segments.append(current)
    return segments


def build_cus(module: Module, chunks: Iterable[EventChunk]) -> CURegistry:
    """One-call top-down CU construction from a module + trace chunks."""
    builder = TopDownBuilder(module)
    builder.process_chunks(chunks)
    return builder.build()
