"""Span tracing: nested wall-clock spans on ring-buffered lanes.

A :class:`Tracer` records *spans* — named, categorised intervals with
optional arguments — onto **lanes**.  A lane is one timeline row in the
exported trace: the main process gets one lane per instrumented Python
thread, the sharded detection workers each contribute a lane from their
own process, and the simulated :class:`~repro.parallelize.scheduler`
workers get one synthetic lane apiece (they are worker *roles*, not OS
threads, but their bursts are real wall-clock intervals).

Design constraints, in order:

1. **Disabled is free.**  Every instrumentation site guards on a single
   attribute (``tracer.enabled`` — or ``tracer is None`` where no tracer
   was threaded at all), so the disabled pipeline takes the identical
   code path it took before the observability layer existed.
   The obs bench suite (``python -m benchmarks.suites obs``) measures
   the residual per-site cost and gates it at ≤ 2 % of profile wall
   time.
2. **Bounded memory.**  Each lane is a ring buffer of
   ``capacity`` finished spans; overflow drops the *oldest* spans and
   counts them (``dropped``), never grows without bound, and never
   throws away the open-span stack (nesting stays consistent).
3. **Mergeable across processes.**  :meth:`ship` emits a picklable
   bundle of a process's lanes; :meth:`absorb` folds shipped bundles
   into the parent tracer.  All timestamps come from
   ``time.perf_counter_ns()`` (CLOCK_MONOTONIC on Linux — one timebase
   across forked workers), so shipped spans land on the same timeline.
   :meth:`export` then renders everything as Chrome trace-event JSON
   (the ``{"traceEvents": [...]}`` flavour) that Perfetto / chrome://
   tracing load directly, with per-pid process groups and named lanes.

Span storage is a plain tuple per finished span::

    (name, cat, start_ns, dur_ns, depth, path, args_or_None)

``path`` is the semicolon-joined ancestry (``"phase.profile;vm.run"``),
recorded at begin time — it makes flame-style aggregation
(:meth:`Tracer.flame`, :mod:`repro.obs.selfprof`) a dictionary fold
instead of an interval-containment sweep.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Optional

#: finished-span tuple column indices
S_NAME, S_CAT, S_TS, S_DUR, S_DEPTH, S_PATH, S_ARGS = range(7)

#: finished spans retained per lane before the ring starts dropping
DEFAULT_LANE_CAPACITY = 1 << 16


class _NullSpan:
    """The disabled-tracer context manager: one shared, reusable no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """An open span handed out by :meth:`Tracer.span` (enabled path)."""

    __slots__ = ("_tracer", "_lane", "name", "cat", "args")

    def __init__(self, tracer, lane, name, cat, args):
        self._tracer = tracer
        self._lane = lane
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self):
        self._tracer._begin(self._lane, self.name, self.cat, self.args)
        return self

    def __exit__(self, *exc):
        self._tracer._end(self._lane)
        return False


class _Lane:
    """One timeline row: a ring of finished spans + the open-span stack."""

    __slots__ = ("label", "spans", "stack", "dropped")

    def __init__(self, label: str, capacity: int) -> None:
        self.label = label
        self.spans: deque = deque(maxlen=capacity)
        #: open spans, innermost last: [name, cat, t0, args, path, child_ns]
        self.stack: list[list] = []
        self.dropped = 0


class Tracer:
    """Process-local span recorder with ring-buffered lanes.

    One tracer serves one process.  The default lane is ``"main"``;
    subsystems that multiplex logical workers inside the process (the
    ParallelVM pool) record onto named lanes.  Worker processes build
    their own enabled tracer and :meth:`ship` their lanes home.
    """

    __slots__ = (
        "enabled",
        "capacity",
        "pid",
        "process_label",
        "_lanes",
        "_foreign",
        "n_spans",
    )

    def __init__(
        self,
        enabled: bool = False,
        *,
        capacity: int = DEFAULT_LANE_CAPACITY,
        process_label: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.pid = os.getpid()
        self.process_label = process_label or "main"
        self._lanes: dict[str, _Lane] = {}
        #: shipped bundles from other processes: (pid, label) -> lane data
        self._foreign: dict[tuple, dict] = {}
        #: total spans recorded locally (drops included)
        self.n_spans = 0

    # -- clock ---------------------------------------------------------

    @staticmethod
    def now() -> int:
        """Monotonic nanoseconds, shared across forked processes."""
        return time.perf_counter_ns()

    # -- recording -----------------------------------------------------

    def lane(self, label: str) -> _Lane:
        lane = self._lanes.get(label)
        if lane is None:
            lane = self._lanes[label] = _Lane(label, self.capacity)
        return lane

    def span(self, name: str, cat: str = "engine", lane: str = "main",
             **args):
        """Context manager recording one nested span (no-op if disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, self.lane(lane), name, cat, args or None)

    def _begin(self, lane: _Lane, name: str, cat: str, args) -> None:
        parent = lane.stack[-1][4] if lane.stack else ""
        path = f"{parent};{name}" if parent else name
        lane.stack.append([name, cat, time.perf_counter_ns(), args, path, 0])

    def _end(self, lane: _Lane) -> None:
        name, cat, t0, args, path, _child_ns = lane.stack.pop()
        dur = time.perf_counter_ns() - t0
        if len(lane.spans) == lane.spans.maxlen:
            lane.dropped += 1
        lane.spans.append(
            (name, cat, t0, dur, len(lane.stack), path, args)
        )
        self.n_spans += 1

    def begin(self, name: str, cat: str = "engine",
              lane: str = "main", **args) -> None:
        """Explicit begin for sites where ``with`` does not fit."""
        if self.enabled:
            self._begin(self.lane(lane), name, cat, args or None)

    def end(self, lane: str = "main") -> None:
        if self.enabled:
            target = self._lanes.get(lane)
            if target is not None and target.stack:
                self._end(target)

    def complete(
        self,
        name: str,
        cat: str,
        start_ns: int,
        dur_ns: int,
        *,
        lane: str = "main",
        args: Optional[dict] = None,
    ) -> None:
        """Record an already-measured interval (the ParallelVM bursts)."""
        if not self.enabled:
            return
        target = self.lane(lane)
        parent = target.stack[-1][4] if target.stack else ""
        path = f"{parent};{name}" if parent else name
        if len(target.spans) == target.spans.maxlen:
            target.dropped += 1
        target.spans.append(
            (name, cat, start_ns, dur_ns, len(target.stack), path, args)
        )
        self.n_spans += 1

    def open_paths(self) -> dict[str, str]:
        """Current innermost open path per lane (the sampling hook)."""
        return {
            label: lane.stack[-1][4]
            for label, lane in self._lanes.items()
            if lane.stack
        }

    # -- cross-process transport ---------------------------------------

    def ship(self) -> list[tuple]:
        """Picklable lane bundle: [(pid, process_label, lane_label,
        [span tuples], dropped), ...]."""
        return [
            (self.pid, self.process_label, label,
             list(lane.spans), lane.dropped)
            for label, lane in self._lanes.items()
        ]

    def absorb(self, shipped: list[tuple]) -> None:
        """Fold a shipped bundle (from :meth:`ship`) onto this timeline.

        Idempotent per (pid, process label, lane): re-absorbing the same
        bundle replaces rather than duplicates, and the export order is
        independent of absorb order (export sorts lanes and spans).
        """
        for pid, process_label, label, spans, dropped in shipped:
            self._foreign[(pid, process_label, label)] = {
                "spans": list(spans),
                "dropped": dropped,
            }

    # -- aggregation ---------------------------------------------------

    def _all_lanes(self) -> list[tuple]:
        """[(pid, process_label, lane_label, spans, dropped)] sorted."""
        rows = [
            (self.pid, self.process_label, label,
             list(lane.spans), lane.dropped)
            for label, lane in self._lanes.items()
        ]
        rows.extend(
            (pid, plabel, label, data["spans"], data["dropped"])
            for (pid, plabel, label), data in self._foreign.items()
        )
        rows.sort(key=lambda r: (r[0] != self.pid, r[0], r[1], r[2]))
        return rows

    def flame(self) -> dict[str, dict]:
        """Self-time aggregates per span path, across every lane.

        ``{path: {"count": n, "total_ns": inclusive, "self_ns":
        exclusive}}`` — the deterministic hotness feed
        (:func:`repro.obs.selfprof.hotness` sits on top of this).
        """
        agg: dict[str, dict] = {}
        for _pid, _plabel, _label, spans, _dropped in self._all_lanes():
            # per-lane child accumulation: spans are stored end-time
            # ordered, so a parent's children always precede it
            child_ns: dict[str, int] = {}
            for span in spans:
                path = span[S_PATH]
                entry = agg.setdefault(
                    path, {"count": 0, "total_ns": 0, "self_ns": 0}
                )
                entry["count"] += 1
                entry["total_ns"] += span[S_DUR]
                entry["self_ns"] += span[S_DUR] - child_ns.pop(path, 0)
                parent = path.rsplit(";", 1)[0] if ";" in path else None
                if parent is not None:
                    child_ns[parent] = child_ns.get(parent, 0) + span[S_DUR]
        return agg

    # -- Chrome trace-event export -------------------------------------

    def export(self) -> dict:
        """The full timeline as a Chrome trace-event JSON object.

        Deterministic: lanes sort by (own-process-first, pid, process
        label, lane label) and spans by (start, -duration, name), so the
        same set of absorbed bundles always renders the identical
        document regardless of arrival order.
        """
        events: list[dict] = []
        seen_pids: dict[int, str] = {}
        tid_of: dict[tuple, int] = {}
        lanes = self._all_lanes()
        for pid, plabel, label, _spans, _dropped in lanes:
            if pid not in seen_pids:
                seen_pids[pid] = plabel
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid,
                    "tid": 0, "args": {"name": plabel},
                })
            tid = tid_of.setdefault((pid, label), len(
                [k for k in tid_of if k[0] == pid]
            ))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        for pid, _plabel, label, spans, dropped in lanes:
            tid = tid_of[(pid, label)]
            for span in sorted(
                spans, key=lambda s: (s[S_TS], -s[S_DUR], s[S_NAME])
            ):
                row = {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": span[S_NAME],
                    "cat": span[S_CAT],
                    "ts": span[S_TS] / 1000.0,
                    "dur": span[S_DUR] / 1000.0,
                }
                if span[S_ARGS]:
                    row["args"] = dict(span[S_ARGS])
                events.append(row)
            if dropped:
                events.append({
                    "ph": "i", "s": "t", "pid": pid, "tid": tid,
                    "name": f"{dropped} spans dropped (ring full)",
                    "cat": "obs",
                    "ts": (
                        min(s[S_TS] for s in spans) / 1000.0
                        if spans else 0.0
                    ),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_json(self, path: str) -> int:
        """Write :meth:`export` to ``path``; returns the event count."""
        import json

        doc = self.export()
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=0)
        return len(doc["traceEvents"])


#: the shared disabled tracer: sites without an explicitly threaded
#: tracer guard on ``NULL_TRACER.enabled`` (a single attribute load)
NULL_TRACER = Tracer(enabled=False)
