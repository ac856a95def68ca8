"""Queue implementations for the parallel profiling pipeline (§2.3.3).

Three variants mirror the paper's design space:

* :class:`LockedQueue` — the baseline: a deque guarded by a mutex on both
  ends (the "lock-based" profiler of Fig. 2.9).
* :class:`SPSCQueue` — single-producer single-consumer ring buffer.  The
  paper's lock-free design narrows synchronisation to release/acquire pairs
  on head/tail indices; under CPython the GIL provides exactly that
  visibility for int stores, so the structure is a faithful analogue: no
  mutex is ever taken, producer touches only ``tail``, consumer only
  ``head``.
* :class:`MPSCQueue` — multiple-producer single-consumer linked list of
  fixed arrays (Fig. 2.5): producers claim array indices with an atomic
  fetch-and-add (``itertools.count``, which is GIL-atomic in CPython, plays
  the hardware fetch-and-add) and a new node is appended when one fills up.

All queues carry *chunks* (lists of events), not single events.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Optional

#: sentinel that tells a consumer the stream is complete
DONE = object()


def _item_bytes(item: Any) -> int:
    """Best-effort resident size of one queued chunk."""
    if item is None or item is DONE:
        return 0
    return int(getattr(item, "nbytes", 64))


class LockedQueue:
    """Mutex-guarded FIFO — the lock-based baseline."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        self._items: deque = deque()
        self._lock = threading.Lock()
        self.capacity = capacity
        self.pushes = 0
        self.pops = 0

    def push(self, item: Any) -> None:
        while True:
            with self._lock:
                if len(self._items) < self.capacity:
                    self._items.append(item)
                    self.pushes += 1
                    return
            time.sleep(0)

    def pop(self, block: bool = True) -> Any:
        while True:
            with self._lock:
                if self._items:
                    self.pops += 1
                    return self._items.popleft()
            if not block:
                return None
            time.sleep(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def pending_nbytes(self) -> int:
        """Resident bytes of the queued-but-unconsumed chunks."""
        with self._lock:
            return sum(_item_bytes(item) for item in self._items)


class SPSCQueue:
    """Lock-free-style single-producer single-consumer ring buffer.

    Producer writes ``_buf[tail]`` then publishes by advancing ``_tail``;
    consumer reads ``_buf[head]`` then advances ``_head``.  As long as
    ``tail != head`` there is at least one element to dequeue — the
    invariant §2.3.3 relies on.
    """

    def __init__(self, capacity: int = 4096) -> None:
        # one slot is sacrificed to distinguish full from empty
        self._cap = capacity + 1
        self._buf: list = [None] * self._cap
        self._head = 0  # consumer index
        self._tail = 0  # producer index
        self.pushes = 0
        self.pops = 0

    def push(self, item: Any) -> None:
        cap = self._cap
        nxt = (self._tail + 1) % cap
        while nxt == self._head:  # full: spin (backpressure)
            time.sleep(0)
        self._buf[self._tail] = item
        self._tail = nxt  # publish
        self.pushes += 1

    def try_push(self, item: Any) -> bool:
        cap = self._cap
        nxt = (self._tail + 1) % cap
        if nxt == self._head:
            return False
        self._buf[self._tail] = item
        self._tail = nxt
        self.pushes += 1
        return True

    def pop(self, block: bool = True) -> Any:
        cap = self._cap
        while self._head == self._tail:  # empty
            if not block:
                return None
            time.sleep(0)
        item = self._buf[self._head]
        self._buf[self._head] = None
        self._head = (self._head + 1) % cap
        self.pops += 1
        return item

    def __len__(self) -> int:
        return (self._tail - self._head) % self._cap

    def pending_nbytes(self) -> int:
        """Resident bytes of the queued-but-unconsumed chunks.

        Best-effort snapshot: head/tail are read once; a concurrent
        consumer can only shrink the window, never corrupt it.
        """
        head, tail, cap = self._head, self._tail, self._cap
        total = 0
        while head != tail:
            total += _item_bytes(self._buf[head])
            head = (head + 1) % cap
        return total


class _MPSCNode:
    __slots__ = ("array", "claimed", "filled", "next")

    def __init__(self, size: int) -> None:
        self.array: list = [None] * size
        #: per-slot published flag (producers fill out of order)
        self.filled: list = [False] * size
        self.claimed = itertools.count()  # atomic fetch-and-add
        self.next: Optional[_MPSCNode] = None


class MPSCQueue:
    """Multiple-producer single-consumer queue: linked list of arrays.

    Producers ``fetch_and_add`` an index into the tail node's array; the
    producer that claims the last index appends a fresh node.  The single
    consumer walks nodes in order, waiting for each slot's published flag.
    """

    def __init__(self, node_size: int = 256) -> None:
        self.node_size = node_size
        self._head = _MPSCNode(node_size)
        self._tail = self._head
        self._head_pos = 0
        self._tail_lock = threading.Lock()  # only for node append, rare
        self.pushes = 0
        self.pops = 0

    def push(self, item: Any) -> None:
        while True:
            node = self._tail
            idx = next(node.claimed)  # atomic under the GIL
            if idx < self.node_size:
                node.array[idx] = item
                node.filled[idx] = True  # publish
                self.pushes += 1
                return
            # node exhausted: one producer appends the next node
            with self._tail_lock:
                if self._tail is node:
                    new = _MPSCNode(self.node_size)
                    node.next = new
                    self._tail = new
            # retry on the new tail

    def pop(self, block: bool = True) -> Any:
        while True:
            node = self._head
            pos = self._head_pos
            if pos >= self.node_size:
                if node.next is None:
                    if not block:
                        return None
                    time.sleep(0)
                    continue
                self._head = node.next
                self._head_pos = 0
                continue
            if node.filled[pos]:
                item = node.array[pos]
                node.array[pos] = None
                self._head_pos = pos + 1
                self.pops += 1
                return item
            # slot not yet published (or nothing pushed yet)
            if not block:
                return None
            time.sleep(0)

    def __len__(self) -> int:  # approximate
        return max(0, self.pushes - self.pops)

    def pending_nbytes(self) -> int:
        """Resident bytes of the queued-but-unconsumed chunks (snapshot)."""
        total = 0
        node, pos = self._head, self._head_pos
        while node is not None:
            for i in range(pos, self.node_size):
                if node.filled[i]:
                    total += _item_bytes(node.array[i])
            node, pos = node.next, 0
        return total


def make_queue(kind: str, capacity: int = 4096):
    """Factory: ``kind`` in {'locked', 'spsc', 'mpsc'}."""
    if kind == "locked":
        return LockedQueue(capacity)
    if kind == "spsc":
        return SPSCQueue(capacity)
    if kind == "mpsc":
        return MPSCQueue(min(capacity, 1024))
    raise ValueError(f"unknown queue kind {kind!r}")
