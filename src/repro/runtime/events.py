"""The instrumentation event stream: packed columnar chunks.

The VM emits its event stream as :class:`EventChunk` s — a packed numpy
array (:data:`EVENT_DTYPE`): one int64 row of :data:`N_COLS` columns per
event, kinds int-coded (:data:`K_READ` ...), strings (variable/function
names, region kinds) interned through a :class:`StringTable`.  Every
event kind maps onto the same nine columns (see :data:`COLUMNS`).  A
:class:`TraceSink` keeps each column of a recorded chunk at the narrowest
integer width its values need, and widens the rows back to int64 as it
hands them out.

``sig`` is an interned id of the thread's loop-context stack
``((region_id, iteration), ...)`` at the time of the access — the profiler
uses it to classify loop-carried dependences.  The ids index a
:class:`SignatureTable` that every chunk references next to its strings, so
any consumer decodes them without the VM that recorded the trace.  ``ts`` is
a global logical timestamp (one tick per executed instruction) — the paper's
"timestamp of every memory access" used to expose potential data races in
multi-threaded targets (§2.3.4).
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from collections import deque
from itertools import chain
from typing import Iterator, Optional

import numpy as np

# ---------------------------------------------------------------------------
# packed columnar format
# ---------------------------------------------------------------------------

# Int kind codes.  READ/WRITE are 0/1 so `kind <= K_WRITE` masks memory
# events in one vectorized comparison.
K_READ = 0
K_WRITE = 1
K_BGN = 2
K_END = 3
K_ITER = 4
K_FENTRY = 5
K_FEXIT = 6
K_ALLOC = 7
K_FREE = 8
K_LOCK = 9
K_UNLOCK = 10
K_SPAWN = 11
K_JOINED = 12

#: column order of a packed row.  Per kind:
#:
#: ====== ========= ===== ============ =========== === == === ======
#: kind   addr      line  name         aux         tid ts sig var
#: ====== ========= ===== ============ =========== === == === ======
#: READ   addr      line  var-name id  op_id       ✓   ✓  ✓   var_id
#: WRITE  addr      line  var-name id  op_id       ✓   ✓  ✓   var_id
#: BGN    region_id line  kind-str id  —           ✓   ✓
#: END    region_id line  kind-str id  iterations  ✓   ✓
#: ITER   region_id —     —            —           ✓   ✓
#: FENTRY —         line  func-name id call_line   ✓   ✓
#: FEXIT  —         —     func-name id —           ✓   ✓
#: ALLOC  base      —     —            size        ✓   ✓
#: FREE   base      —     —            size        ✓   ✓
#: LOCK   lock_id   —     —            —           ✓   ✓
#: UNLOCK lock_id   —     —            —           ✓   ✓
#: SPAWN  child_tid —     —            —           ✓   ✓
#: JOINED joined    —     —            —           ✓   ✓
#: ====== ========= ===== ============ =========== === == === ======
COLUMNS = ("kind", "addr", "line", "name", "aux", "tid", "ts", "sig", "var")
N_COLS = len(COLUMNS)
COL_KIND, COL_ADDR, COL_LINE, COL_NAME, COL_AUX, COL_TID, COL_TS, COL_SIG, \
    COL_VAR = range(N_COLS)

#: structured view of a packed row — all int64 so a (n, N_COLS) C-contiguous
#: int64 array can be reinterpreted without copying
EVENT_DTYPE = np.dtype([(name, np.int64) for name in COLUMNS])

#: bytes per packed event
EVENT_NBYTES = EVENT_DTYPE.itemsize

_INT32 = np.iinfo(np.int32)

#: (min, max, dtype) of the signed widths below int64 that a recorded
#: column may rest at, narrowest first
_NARROW_WIDTHS = tuple(
    (int(np.iinfo(t).min), int(np.iinfo(t).max), np.dtype(t))
    for t in (np.int8, np.int16, np.int32)
)


class _InternTable:
    """Bidirectional interning: value -> dense int id, ``values[id]`` back.

    Slot 0 is reserved for the subclass's ``ROOT`` value.  A table only
    ever grows, so ids stay valid for the lifetime of a trace; chunks hold
    a reference to the table instead of copies.
    """

    __slots__ = ("values", "_ids")
    ROOT: object = None

    def __init__(self, values: Optional[list] = None) -> None:
        if values:
            if values[0] != self.ROOT:
                raise ValueError(
                    f"{type(self).__name__} slot 0 is reserved for "
                    f"{self.ROOT!r}"
                )
            self.values: list = list(values)
        else:
            self.values = [self.ROOT]
        self._ids: dict = {v: i for i, v in enumerate(self.values)}

    def intern(self, value) -> int:
        sid = self._ids.get(value)
        if sid is None:
            sid = len(self.values)
            self._ids[value] = sid
            self.values.append(value)
        return sid

    def decode(self, sid: int):
        return self.values[sid]

    def __len__(self) -> int:
        return len(self.values)


class StringTable(_InternTable):
    """The strings an event stream carries (variable, function and region
    kind names).  Slot 0 is ``None``: the name of memory events of unnamed
    temporaries, whose ``var`` column is -1."""

    __slots__ = ()

    def to_array(self) -> np.ndarray:
        """Unicode array for npz persistence (slot 0 stored as '')."""
        return np.array(
            ["" if v is None else v for v in self.values], dtype=str
        )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "StringTable":
        values: list = [None]
        values.extend(str(v) for v in arr.tolist()[1:])
        return cls(values)


class SignatureTable(_InternTable):
    """Interned loop signatures: id -> ``((region_id, iteration), ...)``.

    Slot 0 is the empty signature (outside every loop).  Consumers decode
    with one list index, ``values[sig_id]``, because the per-event
    profiler decodes on every carried access; an id the table lacks
    raises ``IndexError``.  Signatures share their (region, iteration)
    pair tuples: the VM grows each one from the thread's previous
    signature (``VM._intern_sig``) and :meth:`from_arrays` reuses equal
    pairs, so a table holds at most one pair object per signature.
    """

    __slots__ = ()
    ROOT = ()

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, pairs)`` for npz persistence: the depth of every
        signature, and all their (region, iteration) pairs flattened
        into one ``(total, 2)`` array."""
        values = self.values
        lengths = np.fromiter(map(len, values), np.int64, len(values))
        flat = chain.from_iterable(chain.from_iterable(values))
        pairs = np.fromiter(flat, np.int64, 2 * int(lengths.sum()))
        return lengths, pairs.reshape(-1, 2)

    @classmethod
    def from_arrays(
        cls, lengths: np.ndarray, pairs: np.ndarray
    ) -> "SignatureTable":
        shared: dict = {}
        flat = [
            shared.setdefault(pair, pair)
            for pair in map(tuple, pairs.tolist())
        ]
        values = []
        pos = 0
        for n in lengths.tolist():
            values.append(tuple(flat[pos: pos + n]))
            pos += n
        return cls(values)


class EventChunk:
    """One packed columnar chunk: a ``(n, N_COLS)`` int64 array plus the
    string and signature tables its ids index.

    ``sigs`` defaults to a fresh table holding only the empty signature,
    which is all a hand-built chunk whose ``sig`` column is 0 needs.
    """

    __slots__ = ("rows", "strings", "sigs")

    def __init__(
        self,
        rows: np.ndarray,
        strings: StringTable,
        sigs: Optional[SignatureTable] = None,
    ) -> None:
        self.rows = rows
        self.strings = strings
        self.sigs = sigs if sigs is not None else SignatureTable()

    @classmethod
    def from_rows(
        cls,
        rows: list,
        strings: StringTable,
        sigs: Optional[SignatureTable] = None,
    ) -> "EventChunk":
        """Pack a list of staged int rows (per-event filters forward these)."""
        return cls(
            np.array(rows, dtype=np.int64).reshape(-1, N_COLS), strings, sigs
        )

    # -- columns -------------------------------------------------------

    @property
    def kind(self) -> np.ndarray:
        return self.rows[:, COL_KIND]

    @property
    def addr(self) -> np.ndarray:
        return self.rows[:, COL_ADDR]

    @property
    def line(self) -> np.ndarray:
        return self.rows[:, COL_LINE]

    @property
    def structured(self) -> np.ndarray:
        """Zero-copy view of the rows as the :data:`EVENT_DTYPE` records."""
        return np.ascontiguousarray(self.rows).view(EVENT_DTYPE).reshape(-1)

    def take(self, indices) -> "EventChunk":
        """Row subset (order-preserving) sharing both tables."""
        return EventChunk(self.rows[indices], self.strings, self.sigs)

    # -- sizes ---------------------------------------------------------

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes


class ChunkBuilder:
    """Fills preallocated packed chunks from staged rows.

    The interpreter stages int rows in a plain Python list (a CPython list
    append is an order of magnitude cheaper than a per-element structured-
    array store) and the builder blits the whole batch into the
    preallocated chunk in one vectorized assignment at flush time.
    """

    __slots__ = ("capacity", "strings", "sigs", "_rows")

    def __init__(
        self,
        capacity: int,
        strings: Optional[StringTable] = None,
        sigs: Optional[SignatureTable] = None,
    ) -> None:
        self.capacity = capacity
        self.strings = strings if strings is not None else StringTable()
        self.sigs = sigs if sigs is not None else SignatureTable()
        self._rows = np.empty((capacity, N_COLS), dtype=np.int64)

    def build(self, staged: list) -> EventChunk:
        """Pack staged rows into the current preallocated chunk.

        The returned chunk always owns (a view of) the buffer it was
        packed into; the builder swaps in a fresh buffer either way, so a
        later ``build`` can never scribble over rows already handed out.
        """
        n = len(staged)
        rows, self._rows = self._rows, np.empty(
            (self.capacity, N_COLS), dtype=np.int64
        )
        if n != self.capacity:
            # short final chunk: hand out a sliced view of the
            # preallocated buffer instead of re-materializing the staged
            # rows through np.array()
            rows = rows[:n]
        if n:
            rows[:] = staged
        return EventChunk(rows, self.strings, self.sigs)

    def build_flat(self, staged: list) -> EventChunk:
        """Pack a *flat* staging list (:data:`N_COLS` ints per event).

        The compiled-dispatch VM stages scalar int columns instead of
        row tuples — converting one flat int list is almost twice as
        fast as converting a list of row tuples, and no per-event tuple
        object is ever allocated.
        """
        rows = np.fromiter(staged, np.int64, len(staged)).reshape(
            -1, N_COLS
        )
        return EventChunk(rows, self.strings, self.sigs)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


def _narrowest(lo: int, hi: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in [lo, hi]."""
    for tmin, tmax, dtype in _NARROW_WIDTHS:
        if tmin <= lo and hi <= tmax:
            return dtype
    return np.dtype(np.int64)


class _RestingChunk:
    """One recorded chunk at rest: its nine columns, each at the narrowest
    signed width that holds the chunk's values in that column, or a
    plain int where the column is constant over the chunk."""

    __slots__ = ("n", "columns", "archive_dtype", "strings", "sigs")

    def __init__(self, chunk: EventChunk) -> None:
        rows = chunk.rows
        self.n = n = rows.shape[0]
        if n:
            by_column = rows.T.copy()
            lo = by_column.min(axis=1).tolist()
            hi = by_column.max(axis=1).tolist()
        else:
            lo = hi = [0] * N_COLS
        self.columns = [
            lo[c] if lo[c] == hi[c]
            else by_column[c].astype(_narrowest(lo[c], hi[c]))
            for c in range(N_COLS)
        ]
        #: the row dtype :func:`save_trace` writes: int32 where every
        #: value fits, int64 otherwise, the layout that checkpoint and
        #: resume directories already hold
        self.archive_dtype = np.dtype(
            np.int32 if min(lo) >= _INT32.min and max(hi) <= _INT32.max
            else np.int64
        )
        self.strings = chunk.strings
        self.sigs = chunk.sigs

    def widen(self, dtype=np.int64) -> np.ndarray:
        """The ``(n, N_COLS)`` rows at ``dtype``."""
        rows = np.empty((self.n, N_COLS), dtype)
        for c, column in enumerate(self.columns):
            rows[:, c] = column
        return rows

    @property
    def nbytes(self) -> int:
        return sum(
            column.nbytes for column in self.columns
            if isinstance(column, np.ndarray)
        )


class TraceSink:
    """Sink that records the entire event stream in memory.

    A recorded chunk rests column by column, each column at the narrowest
    signed integer width (int8/16/32/64) that holds the chunk's values in
    it, and a column constant over the chunk as that value: about 13
    bytes/event on the registry programs where the VM's rows take 72.
    :meth:`iter_chunks` is the only reader and widens one chunk at a time,
    so every consumer still sees ``(n, 9)`` int64 rows, chunk for chunk
    as they were recorded.  ``n_events`` is maintained in exactly one
    place (:meth:`__call__`).  ``nbytes`` is the resident footprint of
    the columns, so memory pressure is observable.
    """

    def __init__(self) -> None:
        self._resting: list[_RestingChunk] = []
        self.n_events = 0

    def __call__(self, chunk: EventChunk) -> None:
        self._resting.append(_RestingChunk(chunk))
        self.n_events += len(chunk)

    def iter_chunks(self) -> Iterator[EventChunk]:
        """The recorded chunks in arrival order, as int64 rows."""
        for chunk in self._resting:
            yield EventChunk(chunk.widen(), chunk.strings, chunk.sigs)

    def __len__(self) -> int:
        return self.n_events

    @property
    def nbytes(self) -> int:
        """Resident bytes across recorded chunks."""
        return sum(chunk.nbytes for chunk in self._resting)


class SpillingTraceSink:
    """Bounded-memory trace recorder: resident chunk window + npz spill.

    Keeps at most ``max_resident_chunks`` packed chunks in RAM; older
    chunks are spilled to compressed ``.npz`` segment files, one chunk
    per segment, ``rows`` array only — the string and signature tables
    stay resident, they are monotonic and far smaller than the rows.
    :meth:`iter_chunks` re-iterates the full trace in order, loading
    spilled segments lazily, so CU construction and report generation
    no longer need the whole trace in memory.  The VM hands over packed
    chunks and shares its tables.
    """

    def __init__(
        self,
        max_resident_chunks: int = 64,
        *,
        spill_dir: Optional[str] = None,
    ) -> None:
        if max_resident_chunks < 1:
            raise ValueError("need at least one resident chunk")
        self.max_resident_chunks = max_resident_chunks
        self.n_events = 0
        self.n_spilled_chunks = 0
        self.spilled_bytes = 0
        self._resident: deque[EventChunk] = deque()
        self._segments: list[str] = []
        self._strings: Optional[StringTable] = None
        self._sigs: Optional[SignatureTable] = None
        self._spill_dir = spill_dir
        self._own_dir = spill_dir is None
        self._dir: Optional[str] = None

    # -- ingestion -----------------------------------------------------

    def __call__(self, chunk: EventChunk) -> None:
        if self._strings is None:
            self._strings = chunk.strings
            self._sigs = chunk.sigs
        self.n_events += len(chunk)
        self._resident.append(chunk)
        while len(self._resident) > self.max_resident_chunks:
            self._spill(self._resident.popleft())

    def _ensure_dir(self) -> str:
        if self._dir is None:
            if self._spill_dir is not None:
                os.makedirs(self._spill_dir, exist_ok=True)
                self._dir = self._spill_dir
            else:
                self._dir = tempfile.mkdtemp(prefix="repro-trace-")
        return self._dir

    def _spill(self, chunk: EventChunk) -> None:
        path = os.path.join(
            self._ensure_dir(), f"segment-{len(self._segments):06d}.npz"
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, rows=chunk.rows)
        self._segments.append(path)
        self.n_spilled_chunks += 1
        self.spilled_bytes += os.path.getsize(path)

    # -- re-iterable reading -------------------------------------------

    @property
    def strings(self) -> StringTable:
        if self._strings is None:
            self._strings = StringTable()
        return self._strings

    @property
    def sigs(self) -> SignatureTable:
        if self._sigs is None:
            self._sigs = SignatureTable()
        return self._sigs

    @property
    def resident_chunks(self) -> int:
        return len(self._resident)

    def iter_chunks(self) -> Iterator[EventChunk]:
        """All chunks in arrival order; spilled segments load lazily."""
        strings, sigs = self.strings, self.sigs
        for path in self._segments:
            with np.load(path) as data:
                yield EventChunk(data["rows"], strings, sigs)
        yield from self._resident

    def __len__(self) -> int:
        return self.n_events

    @property
    def nbytes(self) -> int:
        """Resident bytes only — the point of spilling."""
        return sum(chunk.nbytes for chunk in self._resident)

    # -- persistence / cleanup -----------------------------------------

    def save(self, path: str) -> None:
        save_trace(self, path)

    def close(self) -> None:
        """Delete spill segments (and the spill dir when we created it)."""
        for segment in self._segments:
            try:
                os.remove(segment)
            except OSError:
                pass
        self._segments.clear()
        if self._own_dir and self._dir is not None:
            try:
                os.rmdir(self._dir)
            except OSError:
                pass
        self._dir = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class TraceLayoutError(ValueError):
    """A saved trace in a layout :func:`load_trace` cannot decode."""


def save_trace(sink, path: str) -> None:
    """Persist a recorded trace (any sink with ``iter_chunks``) as one npz.

    Layout: ``rows_000000...`` one array per chunk, preserving chunk
    boundaries, then ``strings`` (unicode array, slot 0 = None) and the
    signature table as ``sig_lengths`` + ``sig_pairs`` (see
    :meth:`SignatureTable.to_arrays`), the members ``np.savez_compressed``
    writes, deflated at zlib level 1: about four times faster to write
    than the default level 6 for a quarter more bytes.  Each array goes
    into the archive as it is read, so saving a :class:`SpillingTraceSink`
    loads one spilled segment at a time, and a :class:`TraceSink` widens
    one chunk at a time, to int32 where every value in the chunk fits and
    to int64 otherwise.
    """
    if isinstance(sink, TraceSink):
        chunks = (
            EventChunk(c.widen(c.archive_dtype), c.strings, c.sigs)
            for c in sink._resting
        )
    else:
        chunks = sink.iter_chunks()
    strings, sigs = StringTable(), SignatureTable()
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1,
        allowZip64=True,
    ) as archive:

        def put(name: str, array: np.ndarray) -> None:
            with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array(out, array, allow_pickle=False)

        for i, chunk in enumerate(chunks):
            strings, sigs = chunk.strings, chunk.sigs
            put(f"rows_{i:06d}", chunk.rows)
        put("strings", strings.to_array())
        sig_lengths, sig_pairs = sigs.to_arrays()
        put("sig_lengths", sig_lengths)
        put("sig_pairs", sig_pairs)


def load_trace(path: str) -> TraceSink:
    """Reload a :func:`save_trace` artifact into an in-memory TraceSink.

    Row arrays may be int32 or int64; each rests column by column as a
    recorded chunk would.  Raises :class:`TraceLayoutError` for a file
    without a signature table (written before traces carried one): its
    ``sig`` ids cannot be decoded.
    """
    sink = TraceSink()
    with np.load(path) as data:
        if "sig_lengths" not in data.files:
            raise TraceLayoutError(
                f"{path}: trace has no loop-signature table"
            )
        strings = StringTable.from_array(data["strings"])
        sigs = SignatureTable.from_arrays(
            data["sig_lengths"], data["sig_pairs"]
        )
        for key in sorted(k for k in data.files if k.startswith("rows_")):
            sink(EventChunk(data[key], strings, sigs))
    return sink


def stack_markers(kinds: np.ndarray) -> np.ndarray:
    """Positions of the BGN/END/FENTRY/FEXIT rows in a kind column: the
    only rows that open or close a region on a thread's stack."""
    return np.flatnonzero(
        (kinds >= K_BGN) & (kinds <= K_FEXIT) & (kinds != K_ITER)
    )


def add_line_counts(counts: dict, chunk: EventChunk) -> None:
    """Add one chunk's memory-event count per source line to ``counts``."""
    rows = chunk.rows
    lines, n = np.unique(
        rows[rows[:, COL_KIND] <= K_WRITE, COL_LINE], return_counts=True
    )
    for line, count in zip(lines.tolist(), n.tolist()):
        counts[line] = counts.get(line, 0) + count
