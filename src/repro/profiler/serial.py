"""The serial data-dependence profiling algorithm (Algorithm 2, extended).

Consumes instrumentation event chunks and builds merged dependences:

* read  — RAW against the last write of the address;
* write — WARs against every read since the last write, WAW when the
  previous write had no intervening read (consecutive writes, §2.5.2),
  INIT when the address was never written;
* ALLOC/FREE — variable-lifetime analysis (§2.3.5): dead blocks are evicted
  from the shadow so reused stack/heap addresses do not fabricate
  dependences;
* BGN/END/ITER — control-structure records (Fig. 2.1's ``BGN loop`` /
  ``END loop <iterations>`` lines) and loop-context bookkeeping;
* timestamps — an access recorded with a timestamp older than the shadow
  state while unprotected by locks flags a potential data race (§2.3.4).

Loop-carried classification decodes the interned loop-context signatures two
accesses carried (through the chunk's :class:`SignatureTable`) and finds the
outermost loop whose iteration numbers differ — that loop is recorded as the
dependence's *carrier*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.profiler.deps import Dependence, DependenceStore
from repro.profiler.shadow import PerfectShadow
from repro.runtime.events import (
    EventChunk,
    K_BGN,
    K_END,
    K_FREE,
    K_READ,
    K_WRITE,
    SignatureTable,
)


def classify_carrier(src_sig: tuple, snk_sig: tuple) -> Optional[int]:
    """Outermost common loop whose iteration numbers differ, or None.

    Signatures are ``((region_id, iteration), ...)`` outermost-first.  The
    scan stops at the first structural mismatch (different loops at the same
    depth): beyond it the accesses are in different loop bodies and deeper
    positions say nothing about carrying.
    """
    for (r1, i1), (r2, i2) in zip(src_sig, snk_sig):
        if r1 != r2:
            return None
        if i1 != i2:
            return r1
    return None


@dataclass
class ControlRecord:
    """Aggregated control-structure info for one static region."""

    region_id: int
    kind: str
    start_line: int
    end_line: int
    executions: int = 0
    total_iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "region_id": self.region_id,
            "kind": self.kind,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "executions": self.executions,
            "total_iterations": self.total_iterations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlRecord":
        return cls(**data)


@dataclass
class ProfileStats:
    """Workload counters used by the performance figures."""

    reads: int = 0
    writes: int = 0
    deps_built: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class SerialProfiler:
    """Single-consumer profiling of an event stream.

    ``shadow`` is either shadow implementation.  Loop-context ids decode
    through the stream's signature table, bound on the first chunk: the
    ids the shadow keeps are only valid against that table, so a chunk
    carrying another one raises ``ValueError``.
    """

    def __init__(
        self,
        shadow=None,
        *,
        lifetime_analysis: bool = True,
    ) -> None:
        self.shadow = shadow if shadow is not None else PerfectShadow()
        self.store = DependenceStore()
        self.lifetime_analysis = lifetime_analysis
        self.stats = ProfileStats()
        self.control: dict[int, ControlRecord] = {}
        #: int occurrence key -> Dependence (see process_chunk)
        self._dep_memo: dict[int, Dependence] = {}
        self._sigs: Optional[SignatureTable] = None

    # ------------------------------------------------------------------

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk: EventChunk) -> None:
        """Profile one packed chunk: one tight loop over plain-int columns.

        Column extraction happens once per chunk (``ndarray.tolist`` is a
        bulk C conversion), so the per-event loop runs over plain ints
        with zero row indexing, against the shadow *interface* — the same
        walk serves :class:`PerfectShadow` and :class:`SignatureShadow`.

        The loop memoizes two pure shortcuts, so the resulting store is
        exactly what per-occurrence merging would build, however the
        stream is chunked:

        * equal interned signature ids mean equal loop contexts, so
          ``src_sig == snk_sig`` short-circuits carrier classification to
          "not carried" without decoding either signature.
        * an occurrence memo: a dependence's merge identity ``(sink_line,
          type, source_line, var, loop_carried, sink_tid, source_tid)``
          plus its carrier is fully determined by the small ints
          ``(op_id, source_line, source_tid, sink_tid, carrier, type)``
          — ``op_id`` must fix the sink line and variable name, which is
          why the anchored task walk (:mod:`repro.discovery.lifting`)
          gives every (op_id, anchor line) pair its own id.  Packed into
          one Python int key, repeat occurrences — the overwhelming
          majority in loops — reduce to one int-dict hit plus a count
          increment.  The layout leaves 22 bits for source lines, 14 for
          carrier region ids and 7 per thread id (the VM hard-caps
          threads at 64); ``op_id`` sits above bit 52 and is unbounded.
        """
        rows = chunk.rows
        if rows.shape[0] == 0:
            return
        # one bulk C conversion: a plain int list per column (COLUMNS order)
        klist, addrs, lines, nids, aux, tids, tss, sigs, _ = rows.T.tolist()
        stats = self.stats
        stats.reads += klist.count(K_READ)
        stats.writes += klist.count(K_WRITE)
        names = chunk.strings.values
        store = self.store
        shadow = self.shadow
        last_write = shadow.last_write
        reads_since = shadow.reads_since_write
        record_read = shadow.record_read
        record_write = shadow.record_write
        init_add = store.init_lines.add
        if chunk.sigs is not self._sigs:
            if self._sigs is not None:
                raise ValueError(
                    "serial detection requires one signature table per "
                    "run (the shadow holds ids of the first)"
                )
            self._sigs = chunk.sigs
        decode = chunk.sigs.values
        memo = self._dep_memo
        merge = self._merge_dep
        built = 0
        for k, addr, line, nid, op, tid, ts, ctx in zip(
            klist, addrs, lines, nids, aux, tids, tss, sigs
        ):
            if k == K_READ:
                lw = last_write(addr)
                if lw is not None:
                    code = 0
                    if lw[1] != ctx:
                        carrier = classify_carrier(decode[lw[1]], decode[ctx])
                        if carrier is not None:
                            code = (carrier + 1) << 16
                    mk = ((op << 52) | (lw[0] << 30) | code
                          | (lw[2] << 9) | (tid << 2))
                    dep = memo.get(mk)
                    if dep is None:
                        dep = merge(mk, "RAW", line, lw[0], names[nid],
                                    code, tid, lw[2])
                    dep.count += 1
                    if lw[3] > ts:
                        dep.maybe_race = True
                    built += 1
                record_read(addr, line, ctx, tid, ts)
            elif k == K_WRITE:
                lw = last_write(addr)
                if lw is None:
                    init_add(line)
                else:
                    pending = reads_since(addr)
                    if pending:
                        var = names[nid]
                        mk_base = (op << 52) | (tid << 2) | 1
                        snk_sig = None
                        for rd in pending:
                            code = 0
                            if rd[1] != ctx:
                                if snk_sig is None:
                                    snk_sig = decode[ctx]
                                carrier = classify_carrier(
                                    decode[rd[1]], snk_sig
                                )
                                if carrier is not None:
                                    code = (carrier + 1) << 16
                            mk = (mk_base | (rd[0] << 30) | code
                                  | (rd[2] << 9))
                            dep = memo.get(mk)
                            if dep is None:
                                dep = merge(mk, "WAR", line, rd[0], var,
                                            code, tid, rd[2])
                            dep.count += 1
                            if rd[3] > ts:
                                dep.maybe_race = True
                            built += 1
                    else:
                        code = 0
                        if lw[1] != ctx:
                            carrier = classify_carrier(
                                decode[lw[1]], decode[ctx]
                            )
                            if carrier is not None:
                                code = (carrier + 1) << 16
                        mk = ((op << 52) | (lw[0] << 30) | code
                              | (lw[2] << 9) | (tid << 2) | 2)
                        dep = memo.get(mk)
                        if dep is None:
                            dep = merge(mk, "WAW", line, lw[0], names[nid],
                                        code, tid, lw[2])
                        dep.count += 1
                        if lw[3] > ts:
                            dep.maybe_race = True
                        built += 1
                record_write(addr, line, ctx, tid, ts)
            elif k == K_FREE:
                if self.lifetime_analysis:
                    shadow.evict(addr, op)  # aux column: block size
                    stats.evictions += 1
            elif k == K_BGN:
                rec = self.control.get(addr)
                if rec is None:
                    rec = ControlRecord(addr, names[nid], line, line)
                    self.control[addr] = rec
                rec.executions += 1
            elif k == K_END:
                rec = self.control.get(addr)
                if rec is None:
                    rec = ControlRecord(addr, names[nid], line, line)
                    self.control[addr] = rec
                rec.end_line = max(rec.end_line, line)
                rec.total_iterations += op  # aux: iterations
        stats.deps_built += built
        store.raw_occurrences += built

    def _merge_dep(
        self, memo_key, dep_type, sink_line, source_line, var, code,
        sink_tid, source_tid,
    ):
        """Occurrence-memo miss: full legacy-keyed merge, then index it.

        ``code`` arrives pre-shifted into key position (carrier region + 1,
        shifted left 16; 0 = not carried).
        """
        carried = code != 0
        key = (sink_line, dep_type, source_line, var, carried, sink_tid,
               source_tid)
        deps = self.store._deps
        dep = deps.get(key)
        if dep is None:
            dep = Dependence(
                sink_line, dep_type, source_line, var, carried, sink_tid,
                source_tid, count=0,
            )
            deps[key] = dep
        if carried:
            dep.carriers.add((code >> 16) - 1)
        self._dep_memo[memo_key] = dep
        return dep

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.shadow.memory_bytes() + self.store.memory_bytes()

    def result(self) -> DependenceStore:
        return self.store
