"""Multi-process sharded detection: exactness, merging, sampling.

The tentpole contract: the sharded backend (``addr % n_shards``
partitioning over shared-memory slabs, per-shard vectorized scans,
streaming §2.3.5 merge) is an exact drop-in for the serial vectorized
detector — bit-identical :class:`DependenceStore` contents, control
records, and stats on every registry workload — while the sampling
mode is deterministic and accuracy-gated: measured precision/recall
against the exact store, never assumed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine import DiscoveryConfig, DiscoveryEngine
from repro.profiler.deps import DependenceStore, store_accuracy
from repro.profiler.sharded import (
    ShardedDetectionError,
    ShardedDetector,
    ShardSampler,
    canonical_frontier,
    merge_frontiers,
    split_rows,
)
from repro.profiler.vectorized import ShadowFrontier, VectorizedProfiler
from repro.runtime.events import (
    COL_ADDR,
    COL_KIND,
    COL_LINE,
    COL_NAME,
    COL_TS,
    EventChunk,
    K_WRITE,
    N_COLS,
    StringTable,
)
from repro.workloads import get_workload
from tests.test_detect import (
    ALL_WORKLOADS,
    BOUNDARY_WORKLOADS,
    record,
    state_of,
    vec_profile,
)


def sharded_profile(trace, *, shards=2, sampling=None, slots=None,
                    **kwargs):
    det = ShardedDetector(
        slots, n_shards=shards, sampling=sampling,
        **kwargs,
    )
    try:
        for chunk in trace.iter_chunks():
            det.process_chunk(chunk)
        det.finalize()
    except BaseException:
        det.close()
        raise
    return det


def frontier_state(frontier: ShadowFrontier) -> dict:
    return {
        slot: getattr(frontier, slot).tolist()
        for slot in ShadowFrontier.__slots__
    }


class TestShardedExactness:
    """Real worker processes, whole registry: stores must be bit-equal."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_bit_identical_to_vectorized(self, name):
        trace, vm = record(name)
        vec = vec_profile(trace)
        det = sharded_profile(trace, shards=2)
        assert state_of(det) == state_of(vec), name

    @pytest.mark.parametrize("shards", [1, 3, 4])
    @pytest.mark.parametrize("name", BOUNDARY_WORKLOADS)
    def test_shard_counts_and_frontier(self, name, shards):
        trace, vm = record(name)
        vec = vec_profile(trace)
        det = sharded_profile(trace, shards=shards)
        assert state_of(det) == state_of(vec), (name, shards)
        # the merged cross-shard frontier carries the same entries as
        # the serial one (read-set order within a key is batch-layout
        # dependent even serially — canonical order is the contract)
        assert frontier_state(canonical_frontier(det.frontier)) == (
            frontier_state(canonical_frontier(vec.frontier))
        ), (name, shards)

    def test_signature_slots_pass_through(self):
        trace, vm = record("histogram")
        vec = vec_profile(trace, slots=1 << 12)
        det = sharded_profile(trace, shards=2, slots=1 << 12)
        assert state_of(det) == state_of(vec)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedDetector(None, n_shards=0)

    def test_worker_error_surfaces_with_traceback(self):
        trace, vm = record("histogram")
        det = ShardedDetector(None, n_shards=2)
        try:
            det.process_chunk(next(trace.iter_chunks()))
            # rows referencing a name id the parent never interned make
            # the worker's dep merge fail: the error must reach the
            # parent as ShardedDetectionError, not a hang
            rows = np.zeros((2, N_COLS), dtype=np.int64)
            rows[:, COL_KIND] = K_WRITE
            rows[:, COL_ADDR] = 7
            rows[:, COL_LINE] = 3
            rows[:, COL_NAME] = 500_000
            rows[:, COL_TS] = (10, 11)
            first = next(trace.iter_chunks())
            det.process_chunk(EventChunk(rows, first.strings, first.sigs))
            with pytest.raises(ShardedDetectionError):
                det.finalize()
        finally:
            det.close()


class TestMergeAssociativity:
    """Satellite: shard-merge is order-independent and matches serial."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_in_process_shard_merge(self, chunk_size, shards):
        for name in BOUNDARY_WORKLOADS:
            trace, vm = record(name, chunk_size=chunk_size)
            ref = vec_profile(trace)
            workers = [
                VectorizedProfiler(
                    None, track_control=False
                )
                for _ in range(shards)
            ]
            for chunk in trace.iter_chunks():
                for s, part in enumerate(split_rows(chunk.rows, shards)):
                    if part.shape[0]:
                        workers[s].process_chunk(
                            EventChunk(part, chunk.strings, chunk.sigs)
                        )
            for w in workers:
                w.flush()
            # store merge in shuffled order must equal the serial store
            order = list(range(shards))
            random.Random(0).shuffle(order)
            store = DependenceStore()
            for s in order:
                store.merge_from(workers[s].store)
            assert store.to_dict() == ref.store.to_dict(), (
                name, chunk_size, shards,
            )
            # frontier merge is a permutation-insensitive sort: any
            # merge order yields bit-identical arrays
            parts = [workers[s].frontier for s in order]
            merged = merge_frontiers(parts)
            remerged = merge_frontiers(list(reversed(parts)))
            assert frontier_state(merged) == frontier_state(remerged)
            assert frontier_state(canonical_frontier(merged)) == (
                frontier_state(canonical_frontier(ref.frontier))
            ), (name, chunk_size, shards)


class TestSampling:
    def test_rate_validation(self):
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ShardSampler(rate)

    def test_deterministic(self):
        trace, vm = record("histogram")
        runs = [
            sharded_profile(trace, shards=2, sampling=0.25)
            for _ in range(2)
        ]
        assert runs[0].store.to_dict() == runs[1].store.to_dict()
        assert (
            runs[0].sampler.kept_events == runs[1].sampler.kept_events
        )

    @pytest.mark.parametrize("name", BOUNDARY_WORKLOADS)
    def test_accuracy_floor(self, name):
        trace, vm = record(name)
        exact = vec_profile(trace)
        det = sharded_profile(trace, shards=2, sampling=0.25)
        acc = store_accuracy(det.store, exact.store)
        assert acc["precision"] >= 0.95, (name, acc)
        assert acc["recall"] >= 0.95, (name, acc)
        assert det.sampler.kept_events <= det.sampler.total_events

    def test_writes_always_ship(self):
        trace, vm = record("matmul")
        det = sharded_profile(trace, shards=2, sampling=0.01)
        # stats count what the producer saw; every write must have
        # shipped even at a 1% rate (only repeat reads are sampled)
        assert det.stats.writes > 0
        exact = vec_profile(trace)
        assert store_accuracy(det.store, exact.store)["precision"] == 1.0


class TestEngineAndConfig:
    def test_engine_sharded_matches_vectorized(self):
        workload = get_workload("histogram")
        base = DiscoveryConfig(source=workload.source(1), name="histogram")
        vec = DiscoveryEngine(config=base).run()
        sharded = DiscoveryEngine(
            config=base.replace(detect="sharded", detect_workers=2)
        ).run()
        assert vec.store.to_dict() == sharded.store.to_dict()
        stats = sharded.profile_stats
        assert stats["detect"] == "sharded"
        assert stats["detect_workers"] == 2
        assert stats["shipped_events"] > 0

    def test_engine_sampling_stats(self):
        workload = get_workload("histogram")
        config = DiscoveryConfig(
            source=workload.source(1), name="histogram",
            detect="sharded", detect_workers=2, detect_sampling=0.5,
        )
        result = DiscoveryEngine(config=config).run()
        stats = result.profile_stats
        assert stats["detect_sampling"] == 0.5
        assert 0 < stats["sampled_events"] <= stats["accesses"] + 4

    def test_config_round_trip(self):
        config = DiscoveryConfig(
            detect="sharded", detect_workers=3, detect_sampling=0.25,
        )
        restored = DiscoveryConfig.from_dict(config.to_dict())
        assert restored.detect == "sharded"
        assert restored.detect_workers == 3
        assert restored.detect_sampling == 0.25
        assert restored == config


class TestMemoryAccounting:
    def test_memory_bytes_covers_workers_and_sampler(self):
        trace, vm = record("histogram")
        det = sharded_profile(trace, shards=2, sampling=0.5)
        assert det.worker_memory_bytes > 0
        assert det.memory_bytes() >= (
            det.worker_memory_bytes + det.sampler._guard.nbytes
        )
