"""Deterministic synthetic event streams for the detect-scale suite.

A 10⁸-event input recorded through the VM would cost minutes of
interpreter time per bench rep; the detection layers only see packed
int64 rows, so the detect-scale suite drives them with a generator
that materializes one chunk at a time — peak memory stays a single
chunk plus detector state no matter the trace length, which is
exactly the out-of-core property the suite records.

The stream models one hot loop with a realistic dependence mix:

* array ``A`` (``working_set`` cells): iteration ``i`` writes
  ``A[i & mask]`` and reads the ``A[(i-1..i-3) & mask]`` stencil — a
  loop-carried RAW one iteration apart, WAR/WAW as indices recycle,
  and *repeat* reads per write interval (each cell is read three
  times after its write), the traffic class the sampling mode thins;
* array ``B``: a splitmix64-hashed gather/scatter — scattered-address
  traffic with occasional same-cell collisions;
* scalar ``acc``: read twice then written every iteration — carried
  RAW/WAW and an intra-iteration WAR on one address every worker must
  contend with (it shows sharding's worst case: one shard owns the
  hot cell).

Everything is a pure function of the iteration index — no RNG state,
no wall clock — so any two runs (and any sharding of one run) see
byte-identical rows.  Loop signatures use a single region (id 1) with
the iteration number recycled mod ``max_iters`` to bound the interned
table; :attr:`SyntheticStream.sigs` is that table, and every chunk
references it.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.events import (
    COL_ADDR,
    COL_AUX,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_SIG,
    COL_TS,
    EventChunk,
    K_BGN,
    K_END,
    K_READ,
    K_WRITE,
    N_COLS,
    SignatureTable,
    StringTable,
)

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)

#: events emitted per synthetic loop iteration
OPS_PER_ITER = 9

_REGION = 1
_A_BASE = 1 << 32
_B_BASE = 2 << 32
_ACC_ADDR = 3 << 32


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — the stream's only source of 'randomness'."""
    x = x.astype(np.uint64) * _MIX_A
    x ^= x >> np.uint64(30)
    x *= _MIX_B
    x ^= x >> np.uint64(27)
    x *= _MIX_C
    x ^= x >> np.uint64(31)
    return x


class SyntheticStream:
    """Re-iterable chunked event stream of ``~n_events`` packed rows.

    ``iter_chunks()`` yields :class:`EventChunk`\\ s of at most
    ``chunk_events`` rows; iterate it as many times as needed (bench
    reps, exact-vs-sampled comparisons) — every pass is identical.
    """

    def __init__(
        self,
        n_events: int,
        *,
        working_set: int = 1 << 20,
        b_cells: int = 1 << 16,
        max_iters: int = 1 << 16,
        chunk_events: int = 3 << 17,
    ) -> None:
        if working_set & (working_set - 1) or b_cells & (b_cells - 1):
            raise ValueError("working_set and b_cells must be powers of two")
        self.n_iters = max(1, n_events // OPS_PER_ITER)
        #: exact row count a full pass yields (incl. BGN/END framing)
        self.n_events = self.n_iters * OPS_PER_ITER + 2
        self.working_set = working_set
        self.b_cells = b_cells
        self.max_iters = max_iters
        self.chunk_iters = max(1, chunk_events // OPS_PER_ITER)
        self.strings = StringTable()
        self._nid = {
            name: self.strings.intern(name)
            for name in ("loop", "A", "B", "acc")
        }
        #: sig id ``1 + i`` is iteration ``i`` of the one loop region
        n_sigs = min(self.n_iters, max_iters)
        self.sigs = SignatureTable(
            [()] + [((_REGION, i),) for i in range(n_sigs)]
        )

    def _iter_block(self, start: int, stop: int, ts_base: int) -> np.ndarray:
        iters = np.arange(start, stop, dtype=np.int64)
        n = iters.shape[0]
        buf = np.zeros((n, OPS_PER_ITER, N_COLS), dtype=np.int64)
        sig = 1 + iters % self.max_iters
        buf[:, :, COL_SIG] = sig[:, None]
        buf[:, :, COL_TS] = (
            ts_base + np.arange(n * OPS_PER_ITER, dtype=np.int64)
        ).reshape(n, OPS_PER_ITER)
        a_mask = self.working_set - 1
        b_idx = (_mix(iters) & np.uint64(self.b_cells - 1)).astype(np.int64)
        nid = self._nid
        ops = (
            (K_READ, _A_BASE + ((iters - 1) & a_mask), 10, nid["A"]),
            (K_READ, _A_BASE + ((iters - 2) & a_mask), 11, nid["A"]),
            (K_READ, _A_BASE + ((iters - 3) & a_mask), 12, nid["A"]),
            (K_WRITE, _A_BASE + (iters & a_mask), 13, nid["A"]),
            (K_READ, _B_BASE + b_idx, 14, nid["B"]),
            (K_WRITE, _B_BASE + b_idx, 15, nid["B"]),
            (K_READ, _ACC_ADDR, 16, nid["acc"]),
            (K_READ, _ACC_ADDR, 17, nid["acc"]),
            (K_WRITE, _ACC_ADDR, 18, nid["acc"]),
        )
        for slot, (kind, addr, line, name) in enumerate(ops):
            buf[:, slot, COL_KIND] = kind
            buf[:, slot, COL_ADDR] = addr
            buf[:, slot, COL_LINE] = line
            buf[:, slot, COL_NAME] = name
        return buf.reshape(-1, N_COLS)

    def iter_chunks(self):
        bgn = np.zeros((1, N_COLS), dtype=np.int64)
        bgn[0, COL_KIND] = K_BGN
        bgn[0, COL_ADDR] = _REGION
        bgn[0, COL_LINE] = 9
        bgn[0, COL_NAME] = self._nid["loop"]
        pending = [bgn]
        ts = 1
        for start in range(0, self.n_iters, self.chunk_iters):
            stop = min(start + self.chunk_iters, self.n_iters)
            block = self._iter_block(start, stop, ts)
            ts += block.shape[0]
            pending.append(block)
            if stop == self.n_iters:
                end = np.zeros((1, N_COLS), dtype=np.int64)
                end[0, COL_KIND] = K_END
                end[0, COL_ADDR] = _REGION
                end[0, COL_LINE] = 19
                end[0, COL_AUX] = self.n_iters
                end[0, COL_TS] = ts
                pending.append(end)
            yield EventChunk(
                np.concatenate(pending) if len(pending) > 1 else pending[0],
                self.strings,
                self.sigs,
            )
            pending = []
