"""Property-based tests for multiprocess-ingest bit-identity.

The runtime's central claim: for ANY stream, ANY worker count, ANY
chunking, ANY snapshot cadence — and even a worker killed mid-stream
under inline failover — the merged parallel result is bit-identical to
a single-process sharded ingest of the same chunks.

Each example forks real worker processes, so the example budget is
deliberately small and the deadline disabled (process startup is
milliseconds-to-seconds, not microseconds).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.engine import StreamEngine
from repro.runtime.parallel import ParallelIngestRuntime
from repro.runtime.reliability import FaultPlan
from repro.runtime.sharding import ShardedASketch

GROUP_PARAMS = {"total_bytes": 8 * 1024, "filter_items": 8, "seed": 47}

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=400
)

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def chunked(keys: list[int], chunk_size: int) -> list[np.ndarray]:
    array = np.asarray(keys, dtype=np.int64)
    return [
        array[start : start + chunk_size]
        for start in range(0, len(keys), chunk_size)
    ]


def sequential(chunks: list[np.ndarray], shards: int) -> ShardedASketch:
    group = ShardedASketch(shards, **GROUP_PARAMS)
    StreamEngine(group, batched=True).run(chunks)
    return group


class TestParallelBitIdentity:
    @given(
        keys=keys_strategy,
        workers=st.integers(min_value=1, max_value=4),
        extra_shards=st.integers(min_value=0, max_value=3),
        chunk_size=st.integers(min_value=1, max_value=64),
        sync_every=st.integers(min_value=1, max_value=5),
    )
    @SLOW
    def test_merged_equals_single_process(
        self, keys, workers, extra_shards, chunk_size, sync_every
    ):
        shards = workers + extra_shards
        chunks = chunked(keys, chunk_size)
        expected = sequential(chunks, shards)
        runtime = ParallelIngestRuntime(
            workers,
            shards=shards,
            sync_every=sync_every,
            **GROUP_PARAMS,
        )
        stats = runtime.run(iter(chunks))
        supervisor = runtime.supervisor
        assert stats.tuples_ingested == len(keys)
        assert supervisor.group.state().equals(expected.state())

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=40,
            max_size=400,
        ),
        workers=st.integers(min_value=2, max_value=3),
        chunk_size=st.integers(min_value=4, max_value=32),
        sync_every=st.integers(min_value=1, max_value=4),
        crash_worker=st.integers(min_value=0, max_value=2),
        crash_after=st.integers(min_value=0, max_value=6),
    )
    @SLOW
    def test_mid_stream_crash_is_invisible_inline(
        self, keys, workers, chunk_size, sync_every, crash_worker, crash_after
    ):
        # A worker killed with os._exit after an arbitrary number of
        # chunks — possibly before its first snapshot — must not change
        # the merged result under inline failover.
        chunks = chunked(keys, chunk_size)
        expected = sequential(chunks, workers)
        runtime = ParallelIngestRuntime(
            workers,
            shards=workers,
            sync_every=sync_every,
            fault_plan=FaultPlan(
                worker_crash={crash_worker % workers: crash_after}
            ),
            **GROUP_PARAMS,
        )
        stats = runtime.run(iter(chunks))
        supervisor = runtime.supervisor
        assert stats.tuples_ingested == len(keys)
        assert supervisor.group.state().equals(expected.state())


class TestSelfHealingBitIdentity:
    """Recovery idempotence: random kill and exit schedules interleaved
    with ingest leave the merged state bit-identical to the no-fault
    single-process run."""

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=60,
            max_size=400,
        ),
        chunk_size=st.integers(min_value=4, max_value=32),
        sync_every=st.integers(min_value=1, max_value=4),
        crash_worker=st.integers(min_value=0, max_value=1),
        crash_after=st.integers(min_value=0, max_value=8),
        second_crash_after=st.integers(min_value=0, max_value=8),
    )
    @SLOW
    def test_random_kill_and_exit_recover_exactly(
        self,
        keys,
        chunk_size,
        sync_every,
        crash_worker,
        crash_after,
        second_crash_after,
    ):
        chunks = chunked(keys, chunk_size)
        expected = sequential(chunks, 2)
        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=sync_every,
            fault_plan=FaultPlan(
                worker_crash={crash_worker: crash_after},
                worker_exit={1 - crash_worker: second_crash_after},
            ),
            **GROUP_PARAMS,
        )
        stats = runtime.run(iter(chunks))
        assert stats.tuples_ingested == len(keys)
        assert runtime.supervisor.group.state().equals(expected.state())
