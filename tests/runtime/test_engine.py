"""Tests for the streaming engine."""

from __future__ import annotations

import sys

import pytest

import numpy as np

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError, PoisonChunkError
from repro.runtime.engine import StreamEngine, coerce_chunk
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

    def test_sharded_group_batches_per_shard(self, stream):
        from repro.runtime.sharding import ShardedASketch

        group = ShardedASketch(shards=4, total_bytes=32 * 1024, seed=3)
        engine = StreamEngine(group)
        assert engine.batched is True
        engine.run(stream.chunks(8_000))
        assert group.total_mass == len(stream)
        # Batched owner-partitioned queries agree with scalar routing.
        probes = stream.keys[:500].tolist()
        assert group.query_batch(probes).tolist() == [group.query(k) for k in probes]


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

    @pytest.mark.parametrize(
        "counts, named",
        [
            (np.array([1.0, 2.0, 3.0]), "float64"),
            (np.array([1, 2, 3], dtype=object), "object"),
            (np.array([1, 1 << 63, 3], dtype=np.uint64), str(1 << 63)),
        ],
    )
    def test_counts_break_the_count_rule(self, asketch, counts, named):
        # Chunks carry no counts: the synopsis's own batch call applies
        # the count rule, naming the offender, and stays empty.
        with pytest.raises(ConfigurationError, match=named):
            asketch.process_batch(np.arange(3), counts)
        assert asketch.total_mass == 0

    @pytest.mark.parametrize("dtype", [np.float64, object, np.uint64])
    def test_empty_chunk_of_any_dtype_is_accepted(
        self, asketch, dtype
    ):
        # ``np.array([])`` is float64: with no key in it, the driver and
        # the synopsis's own batch calls follow the same rule.
        empty = np.array([], dtype=dtype)
        asketch.process_batch(empty)
        asketch.process_batch(empty, empty)
        assert coerce_chunk(empty, 0).tolist() == []
        assert asketch.query_batch(empty).tolist() == []
        engine = StreamEngine(asketch, batched=True)
        engine.run([empty, np.array([3, 3, 5])])
        assert engine.stats.chunks_ingested == 2
        assert asketch.total_mass == 3

    def test_clean_chunk_passes_through_as_int64(self):
        out = coerce_chunk(np.arange(5, dtype=np.int32), 0)
        assert out.dtype == np.int64
        assert out.flags["C_CONTIGUOUS"]
        assert out.tolist() == [0, 1, 2, 3, 4]


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
