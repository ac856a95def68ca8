"""Modeling the access-vs-push reordering of multi-threaded targets (§2.3.4).

In the real system, a thread's memory access and the ``push_read`` /
``push_write`` call that reports it are separate instructions; unless both
sit in the same lock region, the scheduler may interleave another thread's
access between them, so the profiler can receive accesses *out of order*
(Fig. 2.4b) — detectable as a timestamp inversion, which both marks the
dependence and exposes a potential data race.

Our VM emits events atomically with the access, so the hazard cannot arise
naturally.  :class:`DeferredSink` reintroduces it faithfully: every thread's
events are held in a per-thread buffer and released a bounded number of that
thread's *own* subsequent events later — **except** while the thread holds a
lock, in which case its events are released exactly at ``unlock``
(mirroring Fig. 2.4c, where the push is inside the lock region).  Cross-
thread order is therefore scrambled for unprotected accesses only, exactly
the paper's model.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.runtime.events import (
    COL_KIND,
    COL_TID,
    EventChunk,
    K_LOCK,
    K_UNLOCK,
    K_WRITE,
    StringTable,
)


class DeferredSink:
    """Chunk-sink adapter adding bounded per-thread delivery delay."""

    def __init__(
        self,
        inner: Callable[[EventChunk], None],
        *,
        window: int = 4,
        seed: int = 7,
        chunk_size: int = 4096,
    ) -> None:
        self.inner = inner
        self.window = window
        self.rng = random.Random(seed)
        self.chunk_size = chunk_size
        #: per-thread pending rows with their release deadline
        self._pending: dict[int, list[tuple[int, list]]] = {}
        #: per-thread count of events seen (the release clock)
        self._seen: dict[int, int] = {}
        #: per-thread held-lock depth
        self._locks: dict[int, int] = {}
        self._out: list = []
        self._strings: Optional[StringTable] = None

    def __call__(self, chunk: EventChunk) -> None:
        self._strings = chunk.strings
        for row in chunk.rows.tolist():
            self._feed(row)
        self._drain_ready()

    def _feed(self, ev: list) -> None:
        kind = ev[COL_KIND]
        if kind > K_WRITE and kind != K_LOCK and kind != K_UNLOCK:
            self._out.append(ev)
            return
        tid = ev[COL_TID]

        seen = self._seen.get(tid, 0) + 1
        self._seen[tid] = seen
        pending = self._pending.setdefault(tid, [])

        if kind == K_LOCK:
            self._locks[tid] = self._locks.get(tid, 0) + 1
            pending.append((seen, ev))
            return
        if kind == K_UNLOCK:
            self._locks[tid] = max(0, self._locks.get(tid, 0) - 1)
            pending.append((seen, ev))
            if self._locks[tid] == 0:
                # release the whole lock region atomically (Fig. 2.4c)
                self._out.extend(e for _, e in pending)
                pending.clear()
            return

        if self._locks.get(tid, 0) > 0:
            pending.append((seen, ev))  # held until unlock
        else:
            delay = self.rng.randint(0, self.window)
            pending.append((seen + delay, ev))
        # release matured events in order
        while pending and pending[0][0] <= seen and self._locks.get(tid, 0) == 0:
            self._out.append(pending.pop(0)[1])

    def _ship(self) -> None:
        self.inner(EventChunk.from_rows(self._out, self._strings))
        self._out = []

    def _drain_ready(self) -> None:
        if len(self._out) >= self.chunk_size:
            self._ship()

    def finish(self) -> None:
        """Flush all pending events (end of program)."""
        for tid, pending in self._pending.items():
            self._out.extend(e for _, e in pending)
            pending.clear()
        if self._out:
            self._ship()
