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

The trace is scanned in batches of about :data:`BATCH_EVENTS` rows, split
by thread.  Only the region markers (BGN/END/FENTRY/FEXIT) are walked in
Python: they move each thread through a trie of stack states (node 0 is
the empty stack), so every row between two markers knows its stack of open
instances.  The read-after-write check then maps onto *epochs*:

* an instance's written set is the set of its global variables written
  since the instance opened or since its last ITER, whichever is later —
  its *epoch start*; every ITER therefore becomes an epoch reset at the
  depth of the innermost open instance of its region, and every open an
  epoch start at the depth it pushes;
* a read of ``v`` at line ``L`` counts for the instance at depth ``d``
  when ``v`` is in that region's global set and ``L`` lies in the region;
  it violates when the last earlier write of ``v`` on its thread falls
  after the depth-``d`` epoch start (one stable sort by variable per batch
  gives every read that position), or when the epoch began in an earlier
  batch and ``v`` is in the instance's *carried* written set, which is
  recomputed for each thread's open instances at the end of a batch.

Read and write phases depend only on the stack state, kind, line and
variable of a row, so they are computed once per distinct such key
rather than per row; a read whose (line, variable) a region already
holds as a violation is not checked again at that region's depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from repro.cu.model import CURegistry, RegionCUInfo
from repro.cu.variables import effective_global_vars, read_write_sets
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
    K_FENTRY,
    K_FEXIT,
    K_ITER,
    K_READ,
    K_WRITE,
    add_line_counts,
    stack_markers,
)

#: rows buffered before one columnar pass (a batch's scan temporaries
#: grow with it; at 16K rows they stay around a few MB)
BATCH_EVENTS = 1 << 14


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
        #: dynamic memory-instruction count per source line
        self.line_counts: dict[int, int] = {}
        #: map function name -> its region id
        self._func_region = {
            name: func.region_id for name, func in module.functions.items()
        }
        #: region id -> (global vars, start line, end line)
        self._scope = {
            rid: (self._gv_cache[rid], region.start_line, region.end_line)
            for rid, region in module.regions.items()
        }
        # stack states: a trie of open regions, node 0 the empty stack
        self._parent = [0]
        self._region_of = [-1]
        self._children: dict[tuple, int] = {}
        self._chains: dict[int, tuple] = {0: ()}
        #: per-thread current stack state
        self._node: dict[int, int] = {}
        #: per-thread written sets of the open instances, bottom first, as
        #: of the end of the last batch
        self._written: dict[int, list] = {}
        #: (node, kind, line, var) -> depths at which a row counts
        self._key_depths: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # trace consumption
    # ------------------------------------------------------------------

    def process_chunks(self, chunks: Iterable[EventChunk]) -> None:
        """Walk a chunked trace (``TraceSink.iter_chunks`` /
        ``SpillingTraceSink.iter_chunks``) in batches of about
        :data:`BATCH_EVENTS` rows; every row is processed before this
        returns."""
        batch: list[np.ndarray] = []
        size = 0
        strings = None
        for chunk in chunks:
            if len(chunk) == 0:
                continue
            add_line_counts(self.line_counts, chunk)
            if batch and chunk.strings is not strings:
                # the batch's name ids index the previous string table
                self._scan(batch, strings.values)
                batch, size = [], 0
            strings = chunk.strings
            batch.append(chunk.rows)
            size += len(chunk)
            if size >= BATCH_EVENTS:
                self._scan(batch, strings.values)
                batch, size = [], 0
        if batch:
            self._scan(batch, strings.values)

    def _chain(self, node: int) -> tuple:
        """Region ids of a stack state, bottom first."""
        chains = self._chains
        path = []
        while node not in chains:
            path.append(node)
            node = self._parent[node]
        regions = chains[node]
        for node in reversed(path):
            regions = chains[node] = regions + (self._region_of[node],)
        return regions

    def _counts_at(self, node: int, kind: int, line: int, var: int) -> tuple:
        """Depths at which a memory row counts in state ``node``; records
        the row's read/write phase on first sight of the key."""
        key = (node, kind, line, var)
        depths = self._key_depths.get(key)
        if depths is None:
            found = []
            for depth, region_id in enumerate(self._chain(node)):
                gv, lo, hi = self._scope[region_id]
                if var in gv and lo <= line <= hi:
                    acc = self._accum[region_id]
                    phase = acc.read_phase if kind == K_READ else acc.write_phase
                    phase.add((line, var))
                    found.append(depth)
            # only reads are checked against epochs
            depths = self._key_depths[key] = (
                tuple(found) if kind == K_READ else ()
            )
        return depths

    def _iter_depth(self, node: int, region_id: int) -> int:
        """Depth of the innermost open instance of ``region_id``, or -1."""
        top_down = self._chain(node)[::-1]
        if region_id not in top_down:
            return -1
        return len(top_down) - 1 - top_down.index(region_id)

    def _walk_markers(self, kinds, rows, mpos, tids, names, epochs) -> list:
        """Replay the region markers; returns the state after each one
        and appends ``(depth, position)`` of every open to ``epochs``."""
        parent, region_of = self._parent, self._region_of
        children, accum = self._children, self._accum
        func_region, nodes = self._func_region, self._node
        after: list[int] = []
        cur_tid = None
        node = 0
        depth = 0
        for k, r, nid, tid, p in zip(
            kinds[mpos].tolist(), rows[mpos, COL_ADDR].tolist(),
            rows[mpos, COL_NAME].tolist(), tids[mpos].tolist(),
            mpos.tolist(),
        ):
            if tid != cur_tid:
                if cur_tid is not None:
                    nodes[cur_tid] = node
                cur_tid = tid
                node = nodes.get(tid, 0)
                depth = len(self._chain(node))
            if k == K_FENTRY or k == K_FEXIT:
                r = func_region.get(names[nid])
                if r is None:
                    after.append(node)
                    continue
                opening = k == K_FENTRY
            else:
                opening = k == K_BGN
            if opening:
                accum[r].executed = True
                epochs.append((depth, p))
                child = children.get((node, r))
                if child is None:
                    child = children[(node, r)] = len(parent)
                    parent.append(node)
                    region_of.append(r)
                node = child
                depth += 1
            else:
                # pop until the matching region is closed (robust to
                # early returns); an unmatched close empties the stack
                while node:
                    top = region_of[node]
                    node = parent[node]
                    depth -= 1
                    if top == r:
                        break
            after.append(node)
        if cur_tid is not None:
            nodes[cur_tid] = node
        return after

    def _stack_states(self, rows, tids, starts, threads, names):
        """Every row's stack state, and the sorted ``depth * n + position``
        keys of the batch's epoch starts."""
        n = rows.shape[0]
        kinds = rows[:, COL_KIND]
        init = [self._node.get(tid, 0) for tid in threads]
        mpos = stack_markers(kinds)
        epochs: list = []
        after = self._walk_markers(kinds, rows, mpos, tids, names, epochs)
        # a row sees the state after the last marker before it on its
        # thread, or the thread's state at the start of the batch
        fill = np.empty(n, dtype=np.int64)
        fill[starts] = init
        fill[mpos] = after
        last = np.zeros(n, dtype=np.int64)
        last[starts] = starts
        last[mpos] = mpos
        np.maximum.accumulate(last, out=last)
        node_row = fill[last]

        ekeys = [np.array([d * n + p for d, p in epochs], dtype=np.int64)]
        ipos = np.flatnonzero(kinds == K_ITER)
        if ipos.shape[0]:
            (nodes, regions), inv = _group(node_row[ipos], rows[ipos, COL_ADDR])
            depth = np.array([
                self._iter_depth(node, region_id)
                for node, region_id in zip(nodes, regions)
            ], dtype=np.int64)[inv]
            reset = depth >= 0
            ekeys.append(depth[reset] * n + ipos[reset])
        return node_row, np.sort(np.concatenate(ekeys))

    def _scan(self, blocks: list, names: list) -> None:
        """One columnar pass over a batch of rows."""
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        n = rows.shape[0]
        tids = rows[:, COL_TID]
        if tids.min() != tids.max():
            # per-thread timelines, each contiguous and in order
            rows = rows[np.argsort(tids, kind="stable")]
            tids = rows[:, COL_TID]
            starts = np.concatenate(([0], np.flatnonzero(np.diff(tids)) + 1))
        else:
            starts = np.zeros(1, dtype=np.int64)
        ends = np.append(starts[1:], n)
        threads = tids[starts].tolist()
        tix = np.repeat(np.arange(len(threads)), ends - starts)
        carried = [self._written.get(tid, ()) for tid in threads]
        node_row, ekeys = self._stack_states(rows, tids, starts, threads, names)

        kinds = rows[:, COL_KIND]
        var = rows[:, COL_VAR]
        cand = np.flatnonzero(kinds <= K_WRITE)
        last_writes: dict = {}
        if cand.shape[0]:
            keys, inv = _group(
                node_row[cand], kinds[cand], rows[cand, COL_LINE], var[cand]
            )
            # depths still to check: a violation already recorded for the
            # key's (line, var) in that region needs no second sighting
            todo = []
            for key in zip(*keys):
                depths = self._counts_at(*key)
                if depths:
                    regions = self._chain(key[0])
                    line_var = (key[2], key[3])
                    depths = [
                        d for d in depths
                        if line_var not in self._accum[regions[d]].violations
                    ]
                todo.append(depths)
            per_key = np.fromiter(map(len, todo), np.int64, len(todo))
            counts = per_key[inv]
            keep = np.flatnonzero((kinds[cand] == K_WRITE) | (counts > 0))
            cand, inv, counts = cand[keep], inv[keep], counts[keep]
        if cand.shape[0]:
            c_tix = tix[cand]
            c_var = var[cand]
            lastw, last_writes = _last_writes(
                cand, kinds[cand] == K_WRITE, c_tix, c_var, n
            )
            reads = np.flatnonzero(counts)
            if reads.shape[0]:
                # one (read, depth) pair per open instance still to check
                pair = np.repeat(reads, counts[reads])
                slot = np.arange(pair.shape[0]) - np.repeat(
                    np.cumsum(counts[reads]) - counts[reads], counts[reads]
                )
                flat = np.fromiter(
                    chain.from_iterable(todo), np.int64, int(per_key.sum())
                )
                depth = flat[(np.cumsum(per_key) - per_key)[inv[pair]] + slot]
                epoch = _epoch_starts(
                    ekeys, n, depth, cand[pair], starts[c_tix[pair]]
                )
                bad = lastw[pair] > epoch
                if any(map(any, carried)):
                    # an epoch begun before this batch also sees earlier
                    # batches' writes, kept in the carried written sets
                    maybe = np.flatnonzero(~bad & (epoch < 0))
                    if maybe.shape[0]:
                        (ts, ds, vs), minv = _group(
                            c_tix[pair[maybe]], depth[maybe],
                            c_var[pair[maybe]],
                        )
                        hit = np.array([
                            v in carried[t][d] for t, d, v in zip(ts, ds, vs)
                        ], dtype=bool)
                        bad[maybe] = hit[minv]
                if bad.any():
                    key_node, _, key_line, key_var = keys
                    for k, d in zip(*_group(inv[pair[bad]], depth[bad])[0]):
                        region_id = self._chain(key_node[k])[d]
                        self._accum[region_id].violations.add(
                            (key_line[k], key_var[k])
                        )
        self._carry(threads, starts, ends, ekeys, n, carried, last_writes)

    def _carry(
        self, threads, starts, ends, ekeys, n, carried, last_writes
    ) -> None:
        """Written sets of each thread's open instances at the batch end."""
        for t, tid in enumerate(threads):
            regions = self._chain(self._node.get(tid, 0))
            if not regions:
                self._written.pop(tid, None)
                continue
            epochs = _epoch_starts(
                ekeys, n, np.arange(len(regions)), ends[t], starts[t]
            ).tolist()
            last = last_writes.get(t, {})
            sets = []
            for d, (region_id, e) in enumerate(zip(regions, epochs)):
                gv = self._scope[region_id][0]
                now = {v for v, p in last.items() if p > e and v in gv}
                # an epoch begun before the batch keeps what it carried
                sets.append(carried[t][d] | now if e < 0 else now)
            self._written[tid] = sets

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


def _epoch_starts(ekeys, n, depth, pos, thread_start) -> np.ndarray:
    """Start of the epoch open at ``depth`` just before ``pos``: the
    latest epoch key of that depth on the thread (whose rows begin at
    ``thread_start``), or -1 when the epoch began in an earlier batch."""
    base = depth * n
    if ekeys.shape[0] == 0:
        return np.full(np.shape(base), -1, dtype=np.int64)
    at = np.searchsorted(ekeys, base + pos) - 1
    found = ekeys[np.maximum(at, 0)]
    return np.where(
        (at >= 0) & (found >= base + thread_start), found - base, -1
    )


def _last_writes(pos, is_write, tix, var, n):
    """Per row, the position of the last write of its variable on its
    thread at or before it (-1 for none), and per thread index the last
    write position of every variable it wrote."""
    # a stable sort by (thread, var) keeps each group in time order
    lo = int(var.min())
    key = tix * (int(var.max()) - lo + 1) + (var - lo)
    order = np.argsort(key, kind="stable")
    sk = key[order]
    brk = sk[1:] != sk[:-1]
    group = np.zeros(order.shape[0], dtype=np.int64)
    np.cumsum(brk, out=group[1:])
    # a running max of write positions, offset so it restarts per group
    offset = group * (n + 1)
    running = np.where(is_write[order], pos[order], -1) + offset
    np.maximum.accumulate(running, out=running)
    running -= offset
    lastw = np.empty_like(running)
    lastw[order] = running
    tail = np.append(np.flatnonzero(brk), order.shape[0] - 1)
    tail = tail[running[tail] >= 0]
    last: dict = {}
    for t, v, p in zip(
        tix[order][tail].tolist(), var[order][tail].tolist(),
        running[tail].tolist(),
    ):
        last.setdefault(t, {})[v] = p
    return lastw, last


def _group(*cols: np.ndarray) -> tuple[list, np.ndarray]:
    """Distinct rows of int columns: per column, its values over the
    distinct rows (ascending row order, as lists), and every row's
    distinct-row number."""
    key = np.zeros(cols[0].shape[0], dtype=np.int64)
    bounds = []
    radix = 1
    for col in cols:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        radix *= span
        if radix >= 1 << 62:  # pragma: no cover - ids far beyond any trace
            rows, inv = np.unique(
                np.stack(cols, axis=1), axis=0, return_inverse=True
            )
            return rows.T.tolist(), inv.reshape(-1)
        bounds.append((lo, span))
        key *= span
        key += col - lo
    uniq, inv = np.unique(key, return_inverse=True)
    out = []
    for lo, span in reversed(bounds):
        out.append((uniq % span + lo).tolist())
        uniq //= span
    return out[::-1], inv


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
