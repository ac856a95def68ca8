"""Property-based tests of the profiler's dependence semantics.

A reference oracle implements the dependence rules directly over a synthetic
access stream (last write per address; reads since that write; WAW only for
consecutive writes); the profiler must agree with it for every stream —
with the exact shadow and with a collision-free signature.
"""

from hypothesis import given, settings, strategies as st

from repro.profiler.deps import DependenceStore, DepType
from repro.profiler.reportfmt import format_report, parse_report
from repro.profiler.serial import SerialProfiler
from repro.profiler.shadow import (
    MAX_READS_PER_SLOT,
    PerfectShadow,
    SignatureShadow,
)
from repro.runtime.events import COL_ADDR, K_FREE, K_READ, K_WRITE
from tests.conftest import make_chunk

# an access: (addr in small range, is_write, line in small range)
ACCESS = st.tuples(
    st.integers(0, 15),
    st.booleans(),
    st.integers(1, 12),
)


def _rows(accesses):
    """Synthesise memory-event rows (single thread, no loops)."""
    out = []
    for ts, (addr, is_write, line) in enumerate(accesses, start=1):
        kind = K_WRITE if is_write else K_READ
        out.append((kind, addr, line, f"v{addr}", addr * 100 + line, 0, ts,
                    0, addr))
    return out


def _events(accesses):
    return make_chunk(_rows(accesses))


def _oracle(accesses):
    """Reference dependence semantics."""
    store_keys = set()
    init_lines = set()
    last_write: dict[int, int] = {}
    reads_since: dict[int, set] = {}
    for addr, is_write, line in accesses:
        if is_write:
            if addr not in last_write:
                init_lines.add(line)
            else:
                pending = reads_since.get(addr) or set()
                if pending:
                    for rline in sorted(pending)[:MAX_READS_PER_SLOT]:
                        store_keys.add((line, DepType.WAR, rline, f"v{addr}"))
                else:
                    store_keys.add(
                        (line, DepType.WAW, last_write[addr], f"v{addr}")
                    )
            last_write[addr] = line
            reads_since[addr] = set()
        else:
            if addr in last_write:
                store_keys.add(
                    (line, DepType.RAW, last_write[addr], f"v{addr}")
                )
            reads_since.setdefault(addr, set()).add(line)
    return store_keys, init_lines


def _profiled_keys(store):
    return {
        (d.sink_line, d.type, d.source_line, d.var) for d in store
    }


class TestDependenceSemantics:
    @given(st.lists(ACCESS, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_perfect_shadow_matches_oracle(self, accesses):
        # keep read sets below the cap so the oracle's truncation rule
        # cannot diverge on *which* reads are remembered
        prof = SerialProfiler(PerfectShadow())
        prof.process_chunk(_events(accesses))
        expected_keys, expected_inits = _oracle(accesses)
        # the oracle caps WAR sources at MAX_READS_PER_SLOT by sorted
        # order; the shadow caps by arrival — restrict the check to cases
        # within the cap (line range 1..12 guarantees this)
        assert _profiled_keys(prof.store) == expected_keys
        assert prof.store.init_lines == expected_inits

    @given(st.lists(ACCESS, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_collision_free_signature_matches_perfect(self, accesses):
        events = _events(accesses)
        perfect = SerialProfiler(PerfectShadow())
        perfect.process_chunk(events)
        sig = SerialProfiler(SignatureShadow(4099))  # prime >> addr range
        sig.process_chunk(events)
        assert sig.store.keys() == perfect.store.keys()
        assert sig.store.init_lines == perfect.store.init_lines

    @given(st.lists(ACCESS, max_size=80), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_eviction_only_removes_state(self, accesses, evict_at):
        """Eviction may drop dependences (lifetime ends) but never invents
        new sinks/sources that were not accessed."""
        rows = _rows(accesses)
        rows.insert(
            min(evict_at, len(rows)),
            (K_FREE, 0, 0, 0, 16, 0, 10**6, 0, 0),
        )
        prof = SerialProfiler(PerfectShadow())
        prof.process_chunk(make_chunk(rows))
        touched_lines = {a[2] for a in accesses}
        for dep in prof.store:
            assert dep.sink_line in touched_lines
            assert dep.source_line in touched_lines

    @given(st.lists(ACCESS, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_report_roundtrip_property(self, accesses):
        prof = SerialProfiler(PerfectShadow())
        prof.process_chunk(_events(accesses))
        text = format_report(prof.store)
        parsed, _ = parse_report(text)
        assert _profiled_keys(parsed) == _profiled_keys(prof.store)
        assert parsed.init_lines == prof.store.init_lines

    @given(st.lists(ACCESS, max_size=100), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_chunking_is_invisible(self, accesses, chunk_size):
        """Processing the stream in chunks of any size gives the same
        result as one shot (the pipeline depends on this)."""
        events = _events(accesses)
        one = SerialProfiler(PerfectShadow())
        one.process_chunk(events)
        many = SerialProfiler(PerfectShadow())
        for i in range(0, len(events), chunk_size):
            many.process_chunk(events.take(slice(i, i + chunk_size)))
        assert many.store.keys() == one.store.keys()

    @given(st.lists(ACCESS, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_merge_from_equals_single_store(self, accesses):
        """Sharding by address + merging = unsharded profiling (the §2.3.3
        correctness argument)."""
        events = _events(accesses)
        whole = SerialProfiler(PerfectShadow())
        whole.process_chunk(events)
        shards = [SerialProfiler(PerfectShadow()) for _ in range(3)]
        for i, addr in enumerate(events.rows[:, COL_ADDR].tolist()):
            shards[addr % 3].process_chunk(events.take([i]))
        merged = DependenceStore()
        for shard in shards:
            merged.merge_from(shard.store)
        assert merged.keys() == whole.store.keys()
        assert merged.init_lines == whole.store.init_lines
