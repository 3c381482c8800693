"""Tests for the streaming engine and its consumers."""

from __future__ import annotations

import sys

import pytest

import numpy as np

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError, PoisonChunkError
from repro.runtime.engine import (
    StreamEngine,
    ThresholdAlert,
    TopKBoard,
    coerce_chunk,
)
from repro.runtime.parallel import ParallelIngestRuntime
from repro.runtime.reliability import ResilientEngine
from repro.streams.zipf import zipf_stream

@pytest.fixture()
def asketch():
    return ASketch(total_bytes=64 * 1024, filter_items=32, seed=12)

@pytest.fixture(scope="module")
def stream():
    return zipf_stream(40_000, 10_000, 1.5, seed=151)


class TestEngine:
    def test_ingests_all_chunks(self, asketch, stream):
        engine = StreamEngine(asketch)
        stats = engine.run(stream.chunks(5_000))
        assert stats.tuples_ingested == len(stream)
        assert stats.chunks_ingested == 8
        assert asketch.total_mass == len(stream)
        assert stats.wall_throughput_items_per_ms > 0

    def test_consumer_fires_on_schedule(self, asketch, stream):
        engine = StreamEngine(asketch)
        firings: list[int] = []
        engine.every(10_000, firings.append, name="probe")
        engine.run(stream.chunks(5_000))
        assert firings == [10_000, 20_000, 30_000, 40_000]

    def test_consumer_catches_up_on_large_chunks(self, asketch, stream):
        """A chunk larger than the period fires the consumer repeatedly."""
        engine = StreamEngine(asketch)
        firings: list[int] = []
        engine.every(8_000, firings.append)
        engine.run([stream.keys])  # one 40K chunk
        assert firings == [40_000] * 5
        assert engine.stats.consumer_firings == 5

    def test_invalid_period(self, asketch):
        with pytest.raises(ConfigurationError):
            StreamEngine(asketch).every(0, lambda _: None)

    def test_works_with_plain_sketch(self, stream):
        from repro.sketches.count_min import CountMinSketch

        sketch = CountMinSketch(8, total_bytes=64 * 1024, seed=13)
        engine = StreamEngine(sketch)
        assert engine.batched is False  # no process_batch: scalar fallback
        engine.run(stream.chunks(10_000))
        assert sketch.ops.items == len(stream)


class TestBatchedIngest:
    """The engine drives batch-capable synopses through process_batch."""

    def test_asketch_defaults_to_batched(self, asketch):
        assert StreamEngine(asketch).batched is True

    def test_batched_requires_process_batch(self):
        from repro.sketches.count_min import CountMinSketch

        sketch = CountMinSketch(8, total_bytes=64 * 1024, seed=14)
        with pytest.raises(ConfigurationError):
            StreamEngine(sketch, batched=True)

    def test_scalar_opt_out_matches_reference(self, stream):
        """batched=False reproduces the per-item reference run exactly."""
        reference = ASketch(total_bytes=64 * 1024, filter_items=32, seed=12)
        reference.process_stream(stream.keys)
        scalar = ASketch(total_bytes=64 * 1024, filter_items=32, seed=12)
        engine = StreamEngine(scalar, batched=False)
        assert engine.batched is False
        engine.run(stream.chunks(5_000))
        assert {
            e.key: (e.new_count, e.old_count)
            for e in reference.filter.entries()
        } == {
            e.key: (e.new_count, e.old_count) for e in scalar.filter.entries()
        }

    def test_batched_ingest_totals_and_stats(self, asketch, stream):
        engine = StreamEngine(asketch)
        stats = engine.run(stream.chunks(5_000))
        assert stats.tuples_ingested == len(stream)
        assert stats.chunks_ingested == 8
        assert asketch.total_mass == len(stream)
        assert asketch.ops.items == len(stream)

    def test_topk_consumer_over_batched_ingest(self, asketch, stream):
        """The top-k continuous query sees the true heavy hitter through
        the batched path."""
        engine = StreamEngine(asketch)
        board = TopKBoard(asketch, k=5)
        engine.every(10_000, board)
        engine.run(stream.chunks(5_000))
        assert len(board.snapshots) == 4
        heaviest_true = max(stream.exact.items(), key=lambda kv: kv[1])[0]
        assert board.latest[0][0] == heaviest_true
        # Reported counts are one-sided over-estimates of the truth.
        for key, reported in board.latest:
            assert reported >= stream.exact.count_of(key)

    def test_threshold_alerts_over_batched_ingest(self, asketch, stream):
        engine = StreamEngine(asketch)
        threshold = int(0.01 * len(stream))
        alert = ThresholdAlert(asketch, threshold)
        engine.every(5_000, alert)
        engine.run(stream.chunks(5_000))
        keys = [key for _, key, _ in alert.alerts]
        assert len(keys) == len(set(keys))
        for key, count in stream.exact.items():
            if count >= threshold:
                assert key in alert.alerted_keys

    def test_sharded_group_batches_per_shard(self, stream):
        from repro.runtime.sharding import ShardedASketch

        group = ShardedASketch(shards=4, total_bytes=32 * 1024, seed=3)
        engine = StreamEngine(group)
        assert engine.batched is True
        engine.run(stream.chunks(8_000))
        assert group.total_mass == len(stream)
        # Batched owner-partitioned queries agree with scalar routing.
        probes = stream.keys[:500].tolist()
        assert group.query_batch(probes) == [group.query(k) for k in probes]


class TestTopKBoard:
    def test_snapshots_accumulate(self, asketch, stream):
        engine = StreamEngine(asketch)
        board = TopKBoard(asketch, k=5)
        engine.every(20_000, board)
        engine.run(stream.chunks(5_000))
        assert len(board.snapshots) == 2
        positions = [position for position, _ in board.snapshots]
        assert positions == [20_000, 40_000]
        assert len(board.latest) == 5

    def test_latest_matches_final_topk(self, asketch, stream):
        engine = StreamEngine(asketch)
        board = TopKBoard(asketch, k=10)
        engine.every(len(stream), board)
        engine.run(stream.chunks(5_000))
        assert board.latest == asketch.top_k(10)

    def test_empty_board(self, asketch):
        assert TopKBoard(asketch, k=3).latest == []

    def test_invalid_k(self, asketch):
        with pytest.raises(ConfigurationError):
            TopKBoard(asketch, k=0)


class TestThresholdAlert:
    def test_alerts_once_per_key(self, asketch, stream):
        engine = StreamEngine(asketch)
        threshold = int(0.01 * len(stream))
        alert = ThresholdAlert(asketch, threshold)
        engine.every(5_000, alert)
        engine.run(stream.chunks(5_000))
        keys = [key for _, key, _ in alert.alerts]
        assert len(keys) == len(set(keys))  # no duplicate alerts
        # Every true heavy key above the threshold eventually alerted.
        for key, count in stream.exact.items():
            if count >= threshold:
                assert key in alert.alerted_keys

    def test_alert_positions_monotone(self, asketch, stream):
        engine = StreamEngine(asketch)
        alert = ThresholdAlert(asketch, int(0.005 * len(stream)))
        engine.every(4_000, alert)
        engine.run(stream.chunks(4_000))
        positions = [position for position, _, _ in alert.alerts]
        assert positions == sorted(positions)

    def test_invalid_threshold(self, asketch):
        with pytest.raises(ConfigurationError):
            ThresholdAlert(asketch, 0)


class TestChunkValidation:
    def test_float_chunk_is_poison_with_index(self, asketch):
        engine = StreamEngine(asketch)
        chunks = [np.arange(10), np.arange(10) + 0.5]
        with pytest.raises(PoisonChunkError) as info:
            engine.run(chunks)
        assert info.value.chunk_index == 1
        assert "float keys" in str(info.value)
        # The healthy chunk before the poison one was ingested.
        assert engine.stats.chunks_ingested == 1

    def test_nan_chunk_names_the_nan(self):
        with pytest.raises(PoisonChunkError, match="NaN"):
            coerce_chunk(np.array([1.0, np.nan, 3.0]), 7)

    def test_object_chunk_is_poison(self):
        with pytest.raises(PoisonChunkError, match="object dtype") as info:
            coerce_chunk(np.array([1, "two", 3], dtype=object), 4)
        assert info.value.chunk_index == 4

    def test_uint64_chunk_above_int64_max_is_poison(self):
        # A cast would wrap 2**63 to INT64_MIN; INT64_MAX still passes.
        with pytest.raises(PoisonChunkError, match="INT64_MAX"):
            coerce_chunk(np.array([1, 1 << 63], dtype=np.uint64), 2)
        out = coerce_chunk(np.array([(1 << 63) - 1], dtype=np.uint64), 2)
        assert out.tolist() == [(1 << 63) - 1]

    def test_2d_chunk_is_poison(self):
        with pytest.raises(PoisonChunkError, match="1-D"):
            coerce_chunk(np.arange(8).reshape(2, 4), 0)

    def test_negative_counts_are_poison(self):
        with pytest.raises(PoisonChunkError, match="strict-turnstile"):
            coerce_chunk(
                np.arange(3), 0, counts=np.array([1, -2, 3])
            )

    def test_count_shape_mismatch_is_poison(self):
        with pytest.raises(PoisonChunkError, match="does not match"):
            coerce_chunk(np.arange(3), 0, counts=np.arange(4))

    @pytest.mark.parametrize("dtype", [np.float64, object, np.uint64])
    def test_empty_chunk_of_any_dtype_is_accepted(
        self, asketch, dtype
    ):
        # ``np.array([])`` is float64: with no key in it, the driver and
        # the synopsis's own batch calls follow the same rule.
        empty = np.array([], dtype=dtype)
        asketch.process_batch(empty)
        assert asketch.query_batch(empty) == []
        engine = StreamEngine(asketch, batched=True)
        engine.run([empty, np.array([3, 3, 5])])
        assert engine.stats.chunks_ingested == 2
        assert asketch.total_mass == 3

    def test_clean_chunk_passes_through_as_int64(self):
        out = coerce_chunk(np.arange(5, dtype=np.int32), 0)
        assert out.dtype == np.int64
        assert out.flags["C_CONTIGUOUS"]
        assert out.tolist() == [0, 1, 2, 3, 4]


class TestConsumerMetering:
    def test_consumer_seconds_metered_separately(self, asketch, stream):
        engine = StreamEngine(asketch)

        def slow_consumer(_position):
            total = 0
            for value in range(20_000):
                total += value
            return total

        engine.every(5_000, slow_consumer)
        stats = engine.run(stream.chunks(5_000))
        assert stats.consumer_seconds > 0.0
        assert stats.consumer_firings == len(stream) // 5_000

    def test_no_consumers_means_zero_consumer_seconds(self, asketch, stream):
        engine = StreamEngine(asketch)
        stats = engine.run(stream.chunks(10_000))
        assert stats.consumer_seconds == 0.0


class TestOneIngestLoop:
    """Every driver pushes each chunk through one validation, in order."""

    @staticmethod
    def validated_positions(drive) -> list[int]:
        """Source positions of every :func:`coerce_chunk` call made in
        this process while ``drive()`` runs, however it is reached."""
        positions: list[int] = []
        code = coerce_chunk.__code__
        previous = sys.getprofile()

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code is code:
                positions.append(frame.f_locals["chunk_index"])

        sys.setprofile(profile)
        try:
            drive()
        finally:
            sys.setprofile(previous)
        return positions

    @pytest.mark.parametrize("driver", ["engine", "resilient", "fleet"])
    def test_each_chunk_is_validated_exactly_once(
        self, driver, stream, tmp_path
    ):
        chunks = list(stream.chunks(4_000))
        if driver == "engine":
            def drive():
                StreamEngine(ASketch(total_bytes=16 * 1024)).run(chunks)
        elif driver == "resilient":
            def drive():
                ResilientEngine(
                    ASketch(total_bytes=16 * 1024),
                    checkpoint_dir=tmp_path,
                    checkpoint_every=3,
                ).run(chunks)
        else:
            def drive():
                ParallelIngestRuntime(2, total_bytes=16 * 1024).run(chunks)

        assert self.validated_positions(drive) == list(range(len(chunks)))
