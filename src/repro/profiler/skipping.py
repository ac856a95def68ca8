"""Skipping repeatedly-executed memory operations in loops (§2.4).

Every static memory operation ``op`` keeps three state variables —
``lastAddr``, ``lastStatusRead``, ``lastStatusWrite``.  A dynamic memory
instruction translated from ``op`` may be *skipped* (no dependence storage
is touched) when both necessary conditions hold:

* condition on ``addr``  (§2.4.1):  ``addr == lastAddr[op]``
* condition on ``accessInfo`` (§2.4.2): the address's current access status
  (the memory operations of the last read and the last write that touched
  it) equals the status recorded when ``op`` was last profiled.

Together they are sufficient: the operation was profiled before, on the
same address, and the address's status has not changed since — re-profiling
would only rebuild dependences that runtime merging collapses anyway.

The *special case* at the end of §2.4.3 — ``currentWrite == statusWrite ==
lastStatusWrite`` (and symmetrically for reads) — allows skipping without
even updating the status shadow; it is counted separately and can be
disabled for the ablation bench.

Statistics reproduce Table 2.7 (how many instructions that lead to a
dependence were skipped, split by read/write) and Fig. 2.13 (distribution
of skipped instructions by the dependence type they would have created).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.profiler.serial import SerialProfiler, classify_carrier
from repro.runtime.events import (
    COL_ADDR,
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_SIG,
    COL_TID,
    COL_TS,
    EventChunk,
    K_FREE,
    K_READ,
    K_WRITE,
)


@dataclass
class SkipStats:
    """Counters for Table 2.7 / Fig. 2.13."""

    reads_leading_to_dep: int = 0
    writes_leading_to_dep: int = 0
    reads_skipped: int = 0
    writes_skipped: int = 0
    #: skipped instructions by the dependence type they would create
    raw_skips: int = 0
    war_skips: int = 0
    waw_skips: int = 0
    #: §2.4.3 special case: skipped without a status update
    pure_skips: int = 0
    processed: int = 0
    skipped: int = 0

    @property
    def read_skip_percent(self) -> float:
        if not self.reads_leading_to_dep:
            return 0.0
        return 100.0 * self.reads_skipped / self.reads_leading_to_dep

    @property
    def write_skip_percent(self) -> float:
        if not self.writes_leading_to_dep:
            return 0.0
        return 100.0 * self.writes_skipped / self.writes_leading_to_dep

    @property
    def total_skip_percent(self) -> float:
        total = self.reads_leading_to_dep + self.writes_leading_to_dep
        if not total:
            return 0.0
        return 100.0 * (self.reads_skipped + self.writes_skipped) / total

    def skip_distribution(self) -> dict[str, float]:
        """Fig. 2.13: percentage of skipped instructions per dep type."""
        total = self.raw_skips + self.war_skips + self.waw_skips
        if not total:
            return {"RAW": 0.0, "WAR": 0.0, "WAW": 0.0}
        return {
            "RAW": 100.0 * self.raw_skips / total,
            "WAR": 100.0 * self.war_skips / total,
            "WAW": 100.0 * self.waw_skips / total,
        }


class SkippingProfiler:
    """Wraps a :class:`SerialProfiler`, filtering skippable instructions.

    Acts as a VM chunk sink.  Non-memory events pass straight through (the
    inner profiler still performs lifetime analysis and control tracking);
    the surviving rows forward to the inner profiler as packed chunks.
    """

    def __init__(
        self,
        inner: Optional[SerialProfiler] = None,
        *,
        enable_special_case: bool = True,
    ) -> None:
        self.inner = inner if inner is not None else SerialProfiler()
        self.enable_special_case = enable_special_case
        self.stats = SkipStats()
        #: op_id -> last address profiled
        self._last_addr: dict[int, int] = {}
        #: op_id -> (statusRead, statusWrite) observed at last profile time
        self._last_status: dict[int, tuple] = {}
        #: addr -> [statusRead_op, statusWrite_op, read_since_write_flag]
        #: (-1 = never accessed; op ids are >= 0)
        self._status: dict[int, list] = {}

    # proxy conveniences -------------------------------------------------

    @property
    def store(self):
        return self.inner.store

    @property
    def control(self):
        return self.inner.control

    # ------------------------------------------------------------------

    def __call__(self, chunk) -> None:
        self.process_chunk(chunk)

    def process_chunk(self, chunk: EventChunk) -> None:
        # The skipping filter is inherently per-event (its state machine
        # keys on single instructions), so it walks the chunk row by row.
        forward: list = []
        stats = self.stats
        status_map = self._status
        last_addr = self._last_addr
        last_status = self._last_status
        special = self.enable_special_case
        # On a skip, the dependence storage is not touched but the shadow
        # memory IS still updated "for ensuring the consistency between the
        # instruction stream and the access status" (§2.4.3).  Shadow
        # updates must stay in program order relative to profiled events,
        # so the forward buffer is flushed before any direct shadow access.
        shadow = self.inner.shadow
        strings = chunk.strings
        sigs = chunk.sigs
        decode = sigs.values

        def inner_process(rows: list) -> None:
            self.inner.process_chunk(
                EventChunk.from_rows(rows, strings, sigs)
            )

        for ev in chunk.rows.tolist():
            kind = ev[COL_KIND]
            if kind == K_READ:
                addr = ev[COL_ADDR]
                op = ev[COL_AUX]
                entry = status_map.get(addr)
                if entry is None:
                    entry = [-1, -1, False]
                    status_map[addr] = entry
                leads_to_dep = entry[1] != -1  # a write exists -> RAW
                if leads_to_dep:
                    stats.reads_leading_to_dep += 1
                # The RAW a read would build is (line, lw.line, carried?):
                # the carried bit is part of the status, or a skipped
                # occurrence could hide a flag variant never built before.
                # Computed only when the cheap address condition holds.
                if last_addr.get(op) == addr:
                    if forward:
                        inner_process(forward)
                        forward = []
                    lw = shadow.last_write(addr)
                    if lw is None:
                        carried_bit = False
                    elif lw[1] == ev[COL_SIG]:
                        carried_bit = False  # identical loop context
                    else:
                        carried_bit = classify_carrier(
                            decode[lw[1]], decode[ev[COL_SIG]]
                        ) is not None
                    status = (entry[0], entry[1], carried_bit)
                    if last_status.get(op) == status:
                        stats.skipped += 1
                        if leads_to_dep:
                            stats.reads_skipped += 1
                            stats.raw_skips += 1
                        if special and entry[0] == op:
                            # §2.4.3 special case: the op-status cannot
                            # change.  (Our dependence shadow keeps a read
                            # *set* that writes clear, so unlike the paper's
                            # single-value status it is still refreshed.)
                            stats.pure_skips += 1
                        else:
                            entry[0] = op
                        shadow.record_read(addr, ev[COL_LINE], ev[COL_SIG],
                                           ev[COL_TID], ev[COL_TS])
                        entry[2] = True
                        continue
                    stats.processed += 1
                    last_addr[op] = addr
                    last_status[op] = status
                    entry[0] = op
                    entry[2] = True
                    forward.append(ev)
                else:
                    stats.processed += 1
                    last_addr[op] = addr
                    last_status[op] = None  # force status rebuild next time
                    entry[0] = op
                    entry[2] = True
                    forward.append(ev)
            elif kind == K_WRITE:
                addr = ev[COL_ADDR]
                op = ev[COL_AUX]
                entry = status_map.get(addr)
                if entry is None:
                    entry = [-1, -1, False]
                    status_map[addr] = entry
                # dependence the write would create: WAR when reads happened
                # since the last write, else WAW when a write exists
                if entry[2] and entry[0] != -1:
                    would = "WAR"
                elif entry[1] != -1:
                    would = "WAW"
                else:
                    would = None
                if would is not None:
                    stats.writes_leading_to_dep += 1
                # For writes the status must determine the full would-be
                # dependence set: which WAR sources (read lines + carried
                # bits) it would close, or the WAW carried bit.  This
                # extends the paper's two-value status — our records are
                # richer (read sets, per-occurrence carried flags), so two
                # fields alone are not a sufficient skip condition.
                if last_addr.get(op) == addr:
                    if forward:
                        inner_process(forward)
                        forward = []
                    snk_sig = None
                    pending = shadow.reads_since_write(addr)
                    if pending:
                        parts = []
                        for rd in pending:
                            if rd[1] == ev[COL_SIG]:
                                parts.append((rd[0], False))
                            else:
                                if snk_sig is None:
                                    snk_sig = decode[ev[COL_SIG]]
                                parts.append(
                                    (rd[0],
                                     classify_carrier(decode[rd[1]], snk_sig)
                                     is not None)
                                )
                        would_set = frozenset(parts)
                    else:
                        lw = shadow.last_write(addr)
                        if lw is None:
                            would_set = None
                        elif lw[1] == ev[COL_SIG]:
                            would_set = (lw[0], False)
                        else:
                            would_set = (
                                lw[0],
                                classify_carrier(decode[lw[1]],
                                                 decode[ev[COL_SIG]])
                                is not None,
                            )
                    status = (entry[0], entry[1], entry[2], would_set)
                    if last_status.get(op) == status:
                        stats.skipped += 1
                        if would == "WAR":
                            stats.writes_skipped += 1
                            stats.war_skips += 1
                        elif would == "WAW":
                            stats.writes_skipped += 1
                            stats.waw_skips += 1
                        if special and entry[1] == op:
                            stats.pure_skips += 1
                        else:
                            entry[1] = op
                        shadow.record_write(addr, ev[COL_LINE], ev[COL_SIG],
                                            ev[COL_TID], ev[COL_TS])
                        entry[2] = False
                        continue
                    stats.processed += 1
                    last_addr[op] = addr
                    last_status[op] = status
                    entry[1] = op
                    entry[2] = False
                    forward.append(ev)
                else:
                    stats.processed += 1
                    last_addr[op] = addr
                    last_status[op] = None
                    entry[1] = op
                    entry[2] = False
                    forward.append(ev)
            else:
                if kind == K_FREE:
                    base, size = ev[COL_ADDR], ev[COL_AUX]
                    if size > 2 * len(status_map):
                        end = base + size
                        status_map = self._status = {
                            addr: entry
                            for addr, entry in status_map.items()
                            if not base <= addr < end
                        }
                    else:
                        for dead in range(base, base + size):
                            status_map.pop(dead, None)
                forward.append(ev)
        if forward:
            inner_process(forward)

    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Inner profiler + the skipping state (§2.4: one word lastAddr +
        two words lastStatus per op, plus the op-status shadow)."""
        per_op = 16
        return (
            self.inner.memory_bytes()
            + per_op * len(self._last_addr)
            + 120 * len(self._status)
        )
