"""Tests for the shared-memory multiprocess ingest runtime.

Everything here runs real forked worker processes (no mocks, no
threads-pretending-to-be-processes): the bit-identity, failover and
cleanup claims in :mod:`repro.runtime.parallel` are only worth anything
when exercised across actual process boundaries.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import socket
import time
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    JsonlTraceWriter,
    install_registry,
    install_tracer,
    uninstall_registry,
    uninstall_tracer,
)
from repro.runtime.engine import StreamEngine
from repro.runtime.parallel import (
    RING_TIMEOUT,
    ChunkRing,
    ParallelIngestRuntime,
)
from repro.runtime.reliability import (
    CheckpointStore,
    DeadLetterQueue,
    FaultPlan,
)
from repro.runtime.sharding import ShardedASketch
from repro.streams.zipf import zipf_stream

GROUP_PARAMS = {"total_bytes": 32 * 1024, "filter_items": 16, "seed": 31}


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(40_000, 10_000, 1.5, seed=171)


def chunks_of(stream, size=4_000):
    keys = stream.keys
    return [keys[i : i + size] for i in range(0, keys.shape[0], size)]


def sequential_group(stream, shards, chunk_size=4_000):
    group = ShardedASketch(shards, **GROUP_PARAMS)
    StreamEngine(group, batched=True).run(chunks_of(stream, chunk_size))
    return group


def with_float_chunk(chunks, position):
    """``chunks`` with a float copy of ``chunks[position]`` inserted at
    ``position``, and that poison payload."""
    poison = chunks[position].astype(np.float64) + 0.5
    return [*chunks[:position], poison, *chunks[position:]], poison


def quarantining_group(chunks, shards):
    """The sequential reference for a source holding poison: the
    ingest loop over ``chunks`` with a quarantine set."""
    group = ShardedASketch(shards, **GROUP_PARAMS)
    engine = StreamEngine(group, batched=True)
    engine.quarantine = DeadLetterQueue().quarantine
    engine.run(chunks)
    return group


class TestChunkRing:
    def test_put_get_roundtrip(self):
        ring = ChunkRing(slots=4, slot_capacity=16)
        try:
            first = np.arange(10, dtype=np.int64)
            second = np.array([7, 7, 7], dtype=np.int64)
            assert ring.put(first, timeout=1.0)
            assert ring.put(second, timeout=1.0)
            assert ring.depth() == 2
            np.testing.assert_array_equal(ring.get(timeout=1.0), first)
            np.testing.assert_array_equal(ring.get(timeout=1.0), second)
            assert ring.depth() == 0
            assert ring.items_published() == 13
        finally:
            ring.close()
            ring.unlink()

    def test_eof_and_timeout_are_distinct(self):
        ring = ChunkRing(slots=2, slot_capacity=8)
        try:
            assert ring.get(timeout=0.01) is RING_TIMEOUT
            assert ring.close_producer(timeout=1.0)
            assert ring.get(timeout=1.0) is None
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_times_out_then_frees(self):
        ring = ChunkRing(slots=2, slot_capacity=8)
        try:
            chunk = np.ones(4, dtype=np.int64)
            assert ring.put(chunk, timeout=0.5)
            assert ring.put(chunk, timeout=0.5)
            assert not ring.put(chunk, timeout=0.01)  # full
            ring.get(timeout=1.0)
            assert ring.put(chunk, timeout=0.5)  # slot freed
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_chunk_rejected(self):
        ring = ChunkRing(slots=2, slot_capacity=8)
        try:
            with pytest.raises(ConfigurationError):
                ring.put(np.zeros(9, dtype=np.int64))
        finally:
            ring.close()
            ring.unlink()

    def test_empty_chunk_roundtrips(self):
        ring = ChunkRing(slots=2, slot_capacity=8)
        try:
            assert ring.put(np.empty(0, dtype=np.int64), timeout=1.0)
            out = ring.get(timeout=1.0)
            assert out is not None and out is not RING_TIMEOUT
            assert out.shape == (0,)
        finally:
            ring.close()
            ring.unlink()

    def test_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            ChunkRing(slots=0)
        with pytest.raises(ConfigurationError):
            ChunkRing(slot_capacity=0)

    def test_full_shm_is_a_typed_error_not_sigbus(
        self, monkeypatch, leaked_rings
    ):
        # A full /dev/shm fails the page reservation at creation; the
        # segment must not outlive the error.
        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", no_space, raising=False)
        with pytest.raises(ConfigurationError) as raised:
            ChunkRing(slots=3, slot_capacity=100)
        message = str(raised.value)
        assert str(8 * (4 + 3 + 3 * 100)) in message
        assert "slots=3" in message and "slot_capacity=100" in message
        assert leaked_rings() == []


class TestConfigValidation:
    def test_workers_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelIngestRuntime(0)

    def test_at_least_one_shard_per_worker(self):
        with pytest.raises(ConfigurationError):
            ParallelIngestRuntime(4, shards=2)

    def test_sync_every_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelIngestRuntime(2, sync_every=0)

    def test_checkpoint_every_requires_store(self, stream):
        runtime = ParallelIngestRuntime(2, **GROUP_PARAMS)
        with pytest.raises(ConfigurationError):
            runtime.run(chunks_of(stream), checkpoint_every=2)


class TestBitIdentity:
    @pytest.mark.parametrize("workers,shards", [(1, 1), (2, 4), (3, 4)])
    def test_merged_equals_sequential(self, stream, workers, shards):
        sequential = sequential_group(stream, shards)
        runtime = ParallelIngestRuntime(workers, shards=shards, **GROUP_PARAMS)
        stats = runtime.run(iter(chunks_of(stream)))
        supervisor = runtime.supervisor
        assert stats.tuples_ingested == len(stream)
        assert supervisor.group.state().equals(sequential.state())
        queries = stream.keys[:500]
        assert supervisor.query_batch(queries).tolist() == [
            sequential.query(int(k)) for k in queries
        ]

    def test_uneven_chunks_and_empty_shares(self, stream):
        # Chunk sizes that don't divide evenly + more shards than
        # workers force some per-worker shares to be empty; the chunk
        # accounting must stay aligned regardless.
        sequential = sequential_group(stream, shards=5, chunk_size=1_777)
        runtime = ParallelIngestRuntime(2, shards=5, **GROUP_PARAMS)
        stats = runtime.run(iter(chunks_of(stream, 1_777)))
        supervisor = runtime.supervisor
        assert stats.chunks_ingested == len(chunks_of(stream, 1_777))
        assert supervisor.group.state().equals(sequential.state())

    def test_one_worker_chunks_interleaved_with_mixed(self, stream):
        # Worker 0 owns shards 0 and 2; every other chunk holds only
        # their keys, so worker 1's share of it is empty, yet worker 1
        # is still sent one share per chunk.
        mixed = chunks_of(stream)
        owned = np.array_split(keys_owned_by(stream, 4, {0, 2}), len(mixed))
        chunks = [chunk for pair in zip(mixed, owned) for chunk in pair]
        assert all(chunk.size for chunk in chunks)
        sequential = ShardedASketch(4, **GROUP_PARAMS)
        StreamEngine(sequential, batched=True).run(chunks)
        runtime = ParallelIngestRuntime(2, shards=4, **GROUP_PARAMS)
        stats = runtime.run(iter(chunks))
        assert stats.chunks_ingested == len(chunks)
        assert runtime.supervisor.group.state().equals(sequential.state())
        first, second = runtime._slots
        assert first.sent_chunks == second.sent_chunks == len(chunks)
        owners = sequential.owners_of(np.concatenate(chunks))
        assert second.sent_items == int(np.isin(owners, [1, 3]).sum())

    def test_full_int64_keys_match_sharded(self):
        # Keys span the whole int64 range, and -1, 0 and both extremes
        # are among the heaviest, so they sit in the shard filters.
        rng = np.random.default_rng(29)
        forced = [-1, 0, -(1 << 63), (1 << 63) - 1]
        pool = np.concatenate([
            np.array(forced, dtype=np.int64),
            rng.integers(-(1 << 63), (1 << 63) - 1, size=2_000,
                         dtype=np.int64, endpoint=True),
        ])
        keys = pool[(rng.zipf(1.3, size=20_000) - 1) % pool.shape[0]]
        chunks = [keys[i : i + 1_500] for i in range(0, keys.shape[0], 1_500)]
        sequential = ShardedASketch(2, **GROUP_PARAMS)
        StreamEngine(sequential, batched=True).run(chunks)
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)
        stats = runtime.run(iter(chunks))
        assert stats.tuples_ingested == keys.shape[0]
        assert runtime.supervisor.group.state().equals(sequential.state())
        probes = np.array(forced + [-2, 1], dtype=np.int64)
        answers = runtime.supervisor.query_batch(probes)
        assert answers.tolist() == [sequential.query(int(k)) for k in probes]
        exact = Counter(keys.tolist())
        assert all(a >= exact[k] for a, k in zip(answers, probes.tolist()))
        assert runtime.supervisor.total_mass == keys.shape[0]
        resident = {k for shard in sequential.shards
                    for k, _ in shard.top_k(16)}
        assert set(forced) <= resident

    def test_worker_health_reports_clean_run(self, stream):
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)
        runtime.run(chunks_of(stream))
        health = runtime.worker_health()
        assert [entry["status"] for entry in health] == ["ok", "ok"]
        assert sum(entry["sent_items"] for entry in health) == len(stream)
        assert all(entry["error"] is None for entry in health)
        assert [entry["status"] for entry in runtime.shard_health()] == [
            "ok",
            "ok",
        ]


class TestInlineFailover:
    def test_crash_mid_stream_still_bit_identical(self, stream):
        sequential = sequential_group(stream, shards=4)
        runtime = ParallelIngestRuntime(
            3,
            shards=4,
            sync_every=2,
            fault_plan=FaultPlan(worker_crash={1: 3}),
            **GROUP_PARAMS,
        )
        stats = runtime.run(iter(chunks_of(stream)))
        supervisor = runtime.supervisor
        assert stats.tuples_ingested == len(stream)
        assert supervisor.group.state().equals(sequential.state())

    def test_crash_before_first_snapshot(self, stream):
        # Dies before any snapshot exists: the whole tail replays from
        # a fresh group.
        sequential = sequential_group(stream, shards=2)
        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=100,
            fault_plan=FaultPlan(worker_crash={0: 1}),
            **GROUP_PARAMS,
        )
        runtime.run(iter(chunks_of(stream)))
        supervisor = runtime.supervisor
        assert supervisor.group.state().equals(sequential.state())

    def test_health_reflects_inlined_worker(self, stream):
        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=2,
            fault_plan=FaultPlan(worker_crash={1: 2}),
            **GROUP_PARAMS,
        )
        runtime.run(chunks_of(stream))
        health = {entry["worker"]: entry for entry in runtime.worker_health()}
        assert health[0]["status"] == "ok"
        assert health[1]["status"] == "inlined"
        assert "died" in health[1]["error"]
        # Inline recovery is exact, so the shards all still read ok.
        statuses = [entry["status"] for entry in runtime.shard_health()]
        assert statuses == ["ok", "ok"]


class TestObservability:
    def test_parent_and_worker_metrics(self, stream):
        registry = install_registry()
        try:
            runtime = ParallelIngestRuntime(2, shards=4, **GROUP_PARAMS)
            runtime.run(chunks_of(stream))
            # Parent-side routing and fleet metrics.
            assert registry.value("engine_tuples_total") == len(stream)
            per_worker = [
                registry.value("parallel_worker_items_total", worker=str(w))
                for w in (0, 1)
            ]
            assert sum(per_worker) == len(stream)
            assert registry.value("parallel_workers_alive") is not None
            assert registry.value("shard_skew") > 0
            # Worker-side metrics arrive re-labelled with worker=<id>.
            worker_rows = [
                instrument
                for instrument in registry.instruments()
                if instrument.name == "shard_items_total"
                and dict(instrument.labels).get("worker") is not None
            ]
            assert worker_rows, "no forwarded worker metrics"
        finally:
            uninstall_registry()

    def test_no_registry_means_no_worker_metric_rows(
        self, stream, monkeypatch
    ):
        # Without a registry in the parent, workers record nothing and
        # every snapshot message carries an empty metric row list.
        rows = []
        original = ParallelIngestRuntime._handle_message

        def recording(runtime, slot, message):
            if message[0] == "snapshot":
                rows.append(message[-1])
            return original(runtime, slot, message)

        monkeypatch.setattr(
            ParallelIngestRuntime, "_handle_message", recording
        )
        uninstall_registry()
        runtime = ParallelIngestRuntime(
            2, shards=4, sync_every=2, **GROUP_PARAMS
        )
        runtime.run(chunks_of(stream))
        assert len(rows) >= 2 * 5  # each worker syncs every 2 of 10 chunks
        assert all(row == [] for row in rows)

    def test_inline_ingest_counts_routed_items_once(self):
        # The parent records shard_items_total once per chunk when it
        # routes; ingesting an inlined worker's shares into the result
        # group must not record them again.
        keys = zipf_stream(20_000, 5_000, 1.5, seed=7).keys
        routed = np.bincount(
            ShardedASketch(2, **GROUP_PARAMS).owners_of(keys), minlength=2
        )
        registry = install_registry()
        try:
            runtime = ParallelIngestRuntime(
                2,
                shards=2,
                sync_every=2,
                fault_plan=FaultPlan(worker_crash={1: 2}),
                **GROUP_PARAMS,
            )
            runtime.run([keys[i : i + 1_000] for i in range(0, 20_000, 1_000)])
            assert runtime.worker_health()[1]["status"] == "inlined"
            for shard in (0, 1):
                assert registry.value(
                    "shard_items_total", shard=str(shard)
                ) == routed[shard]
        finally:
            uninstall_registry()

    def test_workers_leave_the_parents_tracer_alone(self, tmp_path):
        # Only the parent writes the installed trace: the enter and exit
        # events of one ingest span per chunk it routes, and no worker's
        # ingest spans or exchange points.
        keys = zipf_stream(200_000, 100_000, 1.1, seed=5).keys
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            install_tracer(writer)
            try:
                ParallelIngestRuntime(
                    2, shards=4, total_bytes=32 * 1024, seed=7
                ).run([keys[i : i + 10_000] for i in range(0, 200_000, 10_000)])
            finally:
                uninstall_tracer()
        names = Counter(
            json.loads(line)["name"] for line in path.read_text().splitlines()
        )
        assert names["ingest"] == 40
        assert names["exchange"] == 0

    def test_failure_counter_increments(self, stream):
        registry = install_registry()
        try:
            runtime = ParallelIngestRuntime(
                2,
                shards=2,
                sync_every=2,
                fault_plan=FaultPlan(worker_crash={1: 2}),
                **GROUP_PARAMS,
            )
            runtime.run(iter(chunks_of(stream)))
            assert (
                registry.value(
                    "parallel_worker_failures_total", worker="1"
                )
                == 1
            )
        finally:
            uninstall_registry()


class TestCheckpointing:
    def test_periodic_checkpoints_are_consistent(self, stream, tmp_path):
        store = CheckpointStore(tmp_path)
        runtime = ParallelIngestRuntime(2, shards=4, **GROUP_PARAMS)
        runtime.run(
            chunks_of(stream), checkpoint_store=store, checkpoint_every=4
        )
        restored, record = store.load_latest()
        assert record["chunk_index"] == len(chunks_of(stream))
        assert record["tuples_ingested"] == len(stream)
        sequential = sequential_group(stream, shards=4)
        assert restored.group.state().equals(sequential.state())

    def test_mid_run_checkpoint_covers_prefix(self, stream, tmp_path):
        # Every checkpoint taken after k chunks must equal a sequential
        # ingest of exactly those k chunks (keep them all un-pruned).
        from repro.persistence import load_synopsis

        store = CheckpointStore(tmp_path, keep=16)
        runtime = ParallelIngestRuntime(2, shards=4, **GROUP_PARAMS)
        all_chunks = chunks_of(stream)
        runtime.run(
            all_chunks, checkpoint_store=store, checkpoint_every=3
        )
        records = store.journal_records()
        assert len(records) >= 2
        for record in records:
            restored = load_synopsis(
                store.snapshot_path(record["generation"])
            )
            prefix = ShardedASketch(4, **GROUP_PARAMS)
            StreamEngine(prefix, batched=True).run(
                all_chunks[: record["chunk_index"]]
            )
            assert restored.group.state().equals(prefix.state())


    def test_checkpoints_racing_failover_cover_prefixes(
        self, stream, tmp_path
    ):
        # Checkpoints after every chunk while two workers are inlined:
        # no journaled snapshot may count a parent-owned shard twice or
        # drop one.
        from repro.persistence import load_synopsis

        store = CheckpointStore(tmp_path, keep=64)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=2,
            fault_plan=FaultPlan(worker_crash={0: 2, 2: 3}),
            **GROUP_PARAMS,
        )
        all_chunks = chunks_of(stream, 2_000)
        runtime.run(all_chunks, checkpoint_store=store, checkpoint_every=1)
        statuses = [h["status"] for h in runtime.worker_health()]
        assert statuses == ["inlined", "ok", "inlined"]
        records = store.journal_records()
        assert len(records) >= len(all_chunks)
        for record in records:
            restored = load_synopsis(
                store.snapshot_path(record["generation"])
            )
            prefix = ShardedASketch(6, **GROUP_PARAMS)
            StreamEngine(prefix, batched=True).run(
                all_chunks[: record["chunk_index"]]
            )
            assert restored.group.state().equals(prefix.state())
        final = sequential_group(stream, shards=6, chunk_size=2_000)
        assert runtime.supervisor.group.state().equals(final.state())

    def test_checkpoint_journals_source_position(self, stream, tmp_path):
        # A quarantined chunk advances the source position the journal
        # keys replay to, not the count of chunks ingested.
        from repro.persistence import load_synopsis

        chunks, _ = with_float_chunk(chunks_of(stream)[:3], 1)
        store = CheckpointStore(tmp_path, keep=8)
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)
        runtime.run(chunks, checkpoint_store=store, checkpoint_every=2)
        first, last = store.journal_records()
        assert first["chunk_index"] == 2
        assert first["engine_chunks"] == 1
        assert first["tuples_ingested"] == len(chunks[0])
        assert (last["chunk_index"], last["engine_chunks"]) == (4, 3)
        assert last["extra"]["quarantined_chunks"] == 1
        restored = load_synopsis(store.snapshot_path(first["generation"]))
        assert restored.group.state().equals(
            quarantining_group(chunks[:2], 2).state()
        )


class TestResourceHygiene:
    def test_no_leaked_processes_or_shm(self, stream, leaked_rings):
        import multiprocessing as mp

        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=2,
            fault_plan=FaultPlan(worker_crash={0: 2}),
            **GROUP_PARAMS,
        )
        runtime.run(chunks_of(stream))
        assert leaked_rings() == []
        assert mp.active_children() == []

    def test_failed_worker_start_cleans_up(
        self, stream, monkeypatch, leaked_rings
    ):
        # If the Nth process fails to start, the rings and workers
        # already launched (and the ring created for the failed start)
        # must all be swept — nothing may leak.
        import multiprocessing as mp
        import multiprocessing.context as mp_context

        original = mp_context.ForkProcess.start
        calls = {"n": 0}

        def flaky_start(self):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("injected spawn failure")
            return original(self)

        monkeypatch.setattr(mp_context.ForkProcess, "start", flaky_start)
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)
        with pytest.raises(OSError, match="injected spawn failure"):
            runtime.run(chunks_of(stream))
        assert leaked_rings() == []
        assert mp.active_children() == []

    def test_shutdown_even_when_source_raises(self, stream, leaked_rings):
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)

        def exploding():
            yield chunks_of(stream)[0]
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            runtime.run(exploding())
        import multiprocessing as mp

        assert leaked_rings() == []
        assert mp.active_children() == []


class TestParentWaits:
    """The parent never sits out a worker blocked sending a snapshot.

    A snapshot larger than a Unix socket's default send buffer blocks
    its worker in ``send`` at every snapshot (every chunk with
    ``sync_every=1``) until the parent reads its pipe, and meanwhile the
    worker cannot free ring slots.  Every parent-side wait must read
    the pipes within a few milliseconds, so no single ring publish may
    block anywhere near a long timeout.
    """

    LAYOUT = {"shards": 4, "total_bytes": 32 * 1024, "seed": 7}
    LONG_PUT_S = 0.2

    @pytest.fixture
    def keys(self):
        return zipf_stream(300_000, 100_000, 1.1, seed=23).keys

    @staticmethod
    def ten_k_chunks(keys):
        return [keys[i : i + 10_000] for i in range(0, keys.shape[0], 10_000)]

    def sequential(self, keys):
        group = ShardedASketch(**self.LAYOUT)
        StreamEngine(group, batched=True).run(self.ten_k_chunks(keys))
        return group

    @pytest.fixture
    def put_seconds(self, monkeypatch):
        """Blocked time of every ``ChunkRing.put`` call in this process."""
        seconds: list[float] = []
        original = ChunkRing.put

        def timed_put(ring, chunk, timeout=None):
            start = time.perf_counter()
            try:
                return original(ring, chunk, timeout)
            finally:
                seconds.append(time.perf_counter() - start)

        monkeypatch.setattr(ChunkRing, "put", timed_put)
        return seconds

    def test_snapshot_larger_than_socket_buffer(self, keys, put_seconds):
        runtime = ParallelIngestRuntime(2, sync_every=1, **self.LAYOUT)
        stats = runtime.run(self.ten_k_chunks(keys))
        assert stats.tuples_ingested == keys.shape[0]
        assert len(put_seconds) >= 2 * 30
        assert max(put_seconds) < self.LONG_PUT_S
        assert runtime.supervisor.group.state().equals(
            self.sequential(keys).state()
        )

    def test_owned_shard_snapshot_larger_than_socket_buffer(
        self, keys, put_seconds
    ):
        # Each worker owns one 256 KB shard, so even its owned-shard
        # snapshot is more than twice the default send buffer.
        layout = {"shards": 2, "total_bytes": 256 * 1024, "seed": 7}
        runtime = ParallelIngestRuntime(2, sync_every=1, **layout)
        stats = runtime.run(self.ten_k_chunks(keys))
        assert stats.tuples_ingested == keys.shape[0]
        assert len(put_seconds) >= 2 * 30
        assert max(put_seconds) < self.LONG_PUT_S
        left, right = socket.socketpair()
        with left, right:
            send_buffer = left.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        for slot in runtime._slots:
            assert len(pickle.dumps(slot.snapshot)) > max(
                212_992, send_buffer
            )
        sequential = ShardedASketch(**layout)
        StreamEngine(sequential, batched=True).run(self.ten_k_chunks(keys))
        assert runtime.supervisor.group.state().equals(sequential.state())


class TestStallDetection:
    def test_hung_worker_fails_over_inline(self, stream):
        # A hung worker is alive but makes no ring progress: liveness
        # polling alone would wait forever; the stall budget must trip
        # and the failover keep the result exact.
        sequential = sequential_group(stream, shards=2, chunk_size=1_000)
        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=2,
            stall_timeout=1.0,
            slots=2,
            fault_plan=FaultPlan(worker_hang={1: 2}),
            **GROUP_PARAMS,
        )
        runtime.run(chunks_of(stream, 1_000))
        assert runtime.stall_count >= 1
        health = {h["worker"]: h for h in runtime.worker_health()}
        assert health[1]["status"] == "inlined"
        assert "stalled" in health[1]["error"]
        assert runtime.supervisor.group.state().equals(sequential.state())

    def test_stall_counter_recorded(self, stream):
        registry = install_registry()
        try:
            runtime = ParallelIngestRuntime(
                2,
                shards=2,
                sync_every=2,
                stall_timeout=1.0,
                slots=2,
                fault_plan=FaultPlan(worker_hang={0: 1}),
                **GROUP_PARAMS,
            )
            runtime.run(chunks_of(stream, 1_000))
            assert (
                registry.value("parallel_worker_stalls_total", worker="0")
                >= 1
            )
        finally:
            uninstall_registry()


class TestParentQuarantine:
    """A chunk that fails validation is quarantined by the parent at its
    source position, before routing: the fleet's result is the
    sequential run's that quarantines the same chunk, with or without a
    worker failure."""

    @pytest.mark.parametrize(
        "plan, statuses",
        [
            (FaultPlan(), ["ok", "ok"]),
            (FaultPlan(worker_crash={1: 3}), ["ok", "inlined"]),
        ],
        ids=["no-fault", "worker-crash"],
    )
    def test_poison_chunk_quarantined_at_its_source_position(
        self, stream, plan, statuses
    ):
        chunks, poison = with_float_chunk(chunks_of(stream), 4)
        runtime = ParallelIngestRuntime(
            2, shards=2, sync_every=2, fault_plan=plan, **GROUP_PARAMS
        )
        stats = runtime.run(chunks)
        assert stats.chunks_ingested == len(chunks) - 1
        assert stats.tuples_ingested == len(stream)
        letters = runtime.dead_letters.letters
        assert [letter.chunk_index for letter in letters] == [4]
        assert letters[0].payload is poison
        assert "float keys" in letters[0].reason
        health = runtime.health()
        assert health["status"] == "degraded"
        assert health["quarantined_chunks"] == 1
        assert [h["status"] for h in health["workers"]] == statuses
        assert runtime.supervisor.group.state().equals(
            quarantining_group(chunks, 2).state()
        )

    def test_dead_letters_belong_to_one_run(self, stream):
        # Like the result group, the dead letters are the last run's:
        # a clean run after a poisoned one reads ok.
        clean = chunks_of(stream)
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)
        runtime.run(with_float_chunk(clean, 4)[0])
        assert runtime.dead_letters.chunk_indices() == [4]
        runtime.run(clean)
        assert runtime.dead_letters.quarantined == 0
        assert runtime.health()["status"] == "ok"


class TestWorkerQuarantine:
    """The workers around a quarantine: poison never reaches a ring, so
    no worker dies of it, and their counts stay one-sided over the
    chunks that were not quarantined."""

    def test_poison_chunk_quarantines_instead_of_killing(self, stream):
        chunks, poison = with_float_chunk(chunks_of(stream), 3)
        runtime = ParallelIngestRuntime(
            2, shards=2, sync_every=2, **GROUP_PARAMS
        )
        stats = runtime.run(chunks)
        assert stats.chunks_ingested == len(chunks) - 1
        assert [h["status"] for h in runtime.worker_health()] == [
            "ok",
            "ok",
        ]
        letters = runtime.dead_letters.letters
        assert len(letters) == 1
        assert letters[0].payload is poison
        assert runtime.health()["status"] == "degraded"

    def test_estimates_one_sided_excluding_quarantined(self, stream):
        chunks = chunks_of(stream)
        chunks[3] = chunks[3].astype(np.float64) + 0.5
        runtime = ParallelIngestRuntime(
            2, shards=2, sync_every=2, **GROUP_PARAMS
        )
        runtime.run(chunks)
        assert runtime.dead_letters.chunk_indices() == [3]
        ingested = Counter(
            int(k) for i, chunk in enumerate(chunks) if i != 3 for k in chunk
        )
        for key, count in ingested.most_common(50):
            assert runtime.supervisor.query(key) >= count


class TestSnapshotCorruption:
    def test_corrupt_snapshot_rejected_not_adopted(self, stream):
        # The worker corrupts its first snapshot after computing the
        # digest; the parent must reject it (keeping the retained tail)
        # and the run must still end bit-identical via later snapshots.
        sequential = sequential_group(stream, shards=2)
        registry = install_registry()
        try:
            runtime = ParallelIngestRuntime(
                2,
                shards=2,
                sync_every=2,
                fault_plan=FaultPlan(corrupt_snapshot={1: 1}),
                **GROUP_PARAMS,
            )
            runtime.run(chunks_of(stream))
            health = {h["worker"]: h for h in runtime.worker_health()}
            assert health[1]["snapshot_rejects"] == 1
            assert (
                registry.value(
                    "parallel_snapshot_rejects_total", worker="1"
                )
                == 1
            )
            assert runtime.supervisor.group.state().equals(
                sequential.state()
            )
        finally:
            uninstall_registry()

    def test_corrupt_snapshot_then_crash_replays_longer_tail(self, stream):
        # The only snapshot before the crash was rejected, so failover
        # must rebuild from nothing + the full retained tail.
        sequential = sequential_group(stream, shards=2)
        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=3,
            fault_plan=FaultPlan(
                corrupt_snapshot={1: 1}, worker_crash={1: 4}
            ),
            **GROUP_PARAMS,
        )
        runtime.run(chunks_of(stream))
        assert runtime.supervisor.group.state().equals(sequential.state())


def keys_owned_by(stream, shards, owners):
    """The stream's keys whose shard (of ``shards``) is in ``owners``."""
    keys = stream.keys
    routed = ShardedASketch(shards, **GROUP_PARAMS).owners_of(keys)
    return keys[np.isin(routed, list(owners))]


class TestOwnedShardSnapshots:
    """A worker snapshot is exactly its non-pristine owned shards."""

    def test_snapshot_holds_the_non_pristine_owned_shards(self, stream):
        # Worker 0 owns shards 0 and 2, worker 1 shards 1 and 3; no key
        # routes to shard 2 or 3, so each snapshots one of its shards.
        keys = keys_owned_by(stream, 4, {0, 1})
        chunks = [keys[i : i + 2_000] for i in range(0, len(keys), 2_000)]
        runtime = ParallelIngestRuntime(
            2, shards=4, sync_every=2, **GROUP_PARAMS
        )
        runtime.run(chunks)
        sequential = ShardedASketch(4, **GROUP_PARAMS)
        StreamEngine(sequential, batched=True).run(chunks)
        first, second = runtime._slots
        assert sorted(first.snapshot) == [0]
        assert sorted(second.snapshot) == [1]
        assert first.snapshot_chunks == first.sent_chunks
        assert second.snapshot_chunks == second.sent_chunks
        for slot in (first, second):
            for shard, state in slot.snapshot.items():
                assert state.equals(sequential.shards[shard].state())
        assert runtime.supervisor.group.state().equals(sequential.state())

    def test_idle_worker_snapshots_nothing(self, stream):
        keys = keys_owned_by(stream, 2, {0})
        runtime = ParallelIngestRuntime(
            2, shards=2, sync_every=2, **GROUP_PARAMS
        )
        runtime.run([keys[i : i + 2_000] for i in range(0, len(keys), 2_000)])
        idle = runtime._slots[1]
        assert idle.snapshot == {}
        assert idle.snapshot_chunks == idle.sent_chunks > 0
        assert runtime.supervisor.group.total_mass == len(keys)


class TestFleetHealth:
    def test_health_extra_journaled_with_checkpoints(self, stream, tmp_path):
        store = CheckpointStore(tmp_path)
        runtime = ParallelIngestRuntime(
            2,
            shards=2,
            sync_every=2,
            fault_plan=FaultPlan(worker_crash={1: 2}),
            **GROUP_PARAMS,
        )
        runtime.run(
            chunks_of(stream), checkpoint_store=store, checkpoint_every=4
        )
        _, record = store.load_latest()
        assert record["extra"] == {
            "worker_stalls": 0,
            "quarantined_chunks": 0,
            "snapshot_rejects": 0,
        }

    def test_health_report_shape(self, stream):
        runtime = ParallelIngestRuntime(2, shards=2, **GROUP_PARAMS)
        runtime.run(chunks_of(stream))
        health = runtime.health()
        assert health["status"] == "ok"
        assert health["worker_stalls"] == 0
        assert len(health["workers"]) == 2
        assert all("stalls" in row for row in health["workers"])
