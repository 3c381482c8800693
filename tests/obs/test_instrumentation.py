"""Correctness of the metrics woven through ingest and recovery paths.

The instrumentation contract is observational: with a registry
installed the counters must reconcile exactly with the synopsis' own
bookkeeping (hits + misses = items, exchange counts match), and the
synopsis state must stay bit-identical to an unobserved run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.obs import (
    RecordingTraceSink,
    install_registry,
    install_tracer,
    uninstall_registry,
)
from repro.runtime.engine import EngineStats, StreamEngine
from repro.runtime.reliability import DeadLetterQueue, ResilientEngine
from repro.runtime.sharding import ShardedASketch
from repro.streams.zipf import zipf_stream


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(30_000, 8_000, 1.5, seed=17)


def make_asketch() -> ASketch:
    return ASketch(total_bytes=16 * 1024, filter_items=16, seed=5)


class TestASketchCounters:
    def test_scalar_hits_plus_misses_equal_items(self, stream, registry):
        asketch = make_asketch()
        asketch.process_stream(stream.keys)
        items = registry.value("asketch_items_total")
        hits = registry.value("asketch_filter_hits_total")
        misses = registry.value("asketch_filter_misses_total")
        assert items == stream.keys.shape[0]
        assert hits + misses == items
        assert registry.value("asketch_exchanges_total") == float(
            asketch.ops.exchanges
        )
        assert misses == float(asketch.miss_events)

    def test_batched_hits_plus_misses_equal_items(self, stream, registry):
        asketch = make_asketch()
        asketch.process_batch(stream.keys)
        items = registry.value("asketch_items_total")
        hits = registry.value("asketch_filter_hits_total")
        misses = registry.value("asketch_filter_misses_total")
        assert items == stream.keys.shape[0]
        assert hits + misses == items
        assert registry.value("asketch_exchanges_total") == float(
            asketch.ops.exchanges
        )

    def test_chunk_size_one_batched_matches_scalar_totals(self, stream):
        """Driving ``process_batch`` one key at a time is the scalar
        path in batch clothing: every counter total must agree."""
        keys = stream.keys[:4_000]

        scalar_registry = install_registry()
        scalar = make_asketch()
        scalar.process_stream(keys)
        scalar_totals = {
            name: scalar_registry.value(name)
            for name in (
                "asketch_items_total",
                "asketch_filter_hits_total",
                "asketch_filter_misses_total",
                "asketch_exchanges_total",
            )
        }
        uninstall_registry()

        batched_registry = install_registry()
        batched = make_asketch()
        for key in keys:
            batched.process_batch(np.asarray([key], dtype=np.int64))
        batched_totals = {
            name: batched_registry.value(name) for name in scalar_totals
        }
        assert batched_totals == scalar_totals
        assert batched.state().equals(scalar.state())

    def test_latency_histogram_observes_each_call(self, stream, registry):
        asketch = make_asketch()
        asketch.process_stream(stream.keys[:1_000])
        asketch.process_batch(stream.keys[1_000:2_000])
        histogram = registry.get("asketch_chunk_seconds")
        assert histogram.count == 2
        assert histogram.sum > 0.0


class TestBitIdenticalStates:
    def test_scalar_state_unchanged_by_observation(self, stream):
        bare = make_asketch()
        bare.process_stream(stream.keys)
        install_registry()
        observed = make_asketch()
        observed.process_stream(stream.keys)
        uninstall_registry()
        assert observed.state().equals(bare.state())

    def test_batched_state_unchanged_by_observation(self, stream):
        bare = make_asketch()
        bare.process_batch(stream.keys)
        install_registry()
        install_tracer(RecordingTraceSink())
        observed = make_asketch()
        observed.process_batch(stream.keys)
        assert observed.state().equals(bare.state())


class TestEngineMetrics:
    def test_engine_counters_reconcile(self, stream, registry):
        engine = StreamEngine(make_asketch())
        stats = engine.run(stream.chunks(5_000))
        assert registry.value("engine_tuples_total") == stats.tuples_ingested
        assert registry.value("engine_chunks_total") == stats.chunks_ingested
        assert registry.get("engine_chunk_seconds").count == (
            stats.chunks_ingested
        )
        assert registry.value("engine_items_per_s") > 0.0

    def test_ingest_spans_emitted(self, stream, registry):
        sink = RecordingTraceSink()
        install_tracer(sink)
        StreamEngine(make_asketch()).run(stream.chunks(10_000))
        spans = sink.named("ingest")
        assert [event.phase for event in spans[:2]] == ["enter", "exit"]
        assert spans[1].attrs["items"] == 10_000

    def test_exchange_points_emitted(self, stream):
        sink = RecordingTraceSink()
        install_tracer(sink)
        asketch = make_asketch()
        asketch.process_stream(stream.keys[:5_000])
        points = sink.named("exchange")
        assert len(points) == asketch.ops.exchanges
        assert all(event.phase == "point" for event in points)


class TestZeroWallTimeGuards:
    """Satellite regression: throughput accessors at zero wall time."""

    def test_engine_stats_zero_wall_time(self):
        stats = EngineStats(tuples_ingested=1_000, wall_seconds=0.0)
        assert stats.wall_throughput_items_per_ms == 0.0

    def test_phase_measurement_zero_wall_time(self):
        from repro.experiments.common import PhaseMeasurement
        from repro.hardware import OpCounters

        phase = PhaseMeasurement(
            ops=OpCounters(), wall_seconds=0.0, n_items=500
        )
        assert phase.wall_throughput_items_per_ms == 0.0


class TestShardMetrics:
    def test_shard_items_sum_to_stream(self, stream, registry):
        group = ShardedASketch(shards=4, total_bytes=8 * 1024, seed=3)
        group.process_batch(stream.keys)
        total = sum(
            registry.value("shard_items_total", shard=str(index))
            for index in range(4)
        )
        assert total == stream.keys.shape[0]
        assert registry.value("shard_skew") >= 1.0

    def test_scalar_route_records_too(self, stream, registry):
        group = ShardedASketch(shards=2, total_bytes=8 * 1024, seed=3)
        group.process_stream(stream.keys[:2_000])
        total = sum(
            registry.value("shard_items_total", shard=str(index))
            for index in range(2)
        )
        assert total == 2_000


class TestReliabilityMetrics:
    def test_checkpoint_metrics(self, stream, tmp_path, registry):
        sink = RecordingTraceSink()
        install_tracer(sink)
        engine = ResilientEngine(
            make_asketch(),
            checkpoint_dir=tmp_path / "ckpts",
            checkpoint_every=2,
        )
        engine.run(stream.chunks(5_000))
        written = registry.value("checkpoints_total")
        assert written == 3  # 6 chunks / every 2
        assert registry.value("checkpoint_bytes_total") > 0.0
        assert registry.value("journal_fsyncs_total") == written
        assert registry.get("checkpoint_seconds").count == written
        checkpoint_spans = sink.named("checkpoint")
        assert len(checkpoint_spans) == 2 * written

    def test_recovery_metrics(self, stream, tmp_path, registry):
        sink = RecordingTraceSink()
        install_tracer(sink)
        directory = tmp_path / "ckpts"
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=directory, checkpoint_every=2
        )
        chunks = list(stream.chunks(5_000))
        engine.run(chunks[:4])  # checkpoints at chunks 2 and 4

        resumed = ResilientEngine(
            make_asketch(), checkpoint_dir=directory, checkpoint_every=2
        )
        resumed.resume(chunks)
        assert registry.value("recoveries_total") == 1.0
        assert registry.value("recovery_restored_chunk_index") == 4.0
        assert registry.value("recovery_replay_chunks") == 2.0
        recover_spans = sink.named("recover")
        assert [event.phase for event in recover_spans] == ["enter", "exit"]

    def test_dlq_metrics(self, registry):
        queue = DeadLetterQueue(capacity=1)
        queue.quarantine(0, "poison", None)
        queue.quarantine(1, "poison", None)
        assert registry.value("dlq_quarantined_total") == 2.0
        assert registry.value("dlq_dropped_total") == 1.0
        assert registry.value("dlq_depth") == 1.0
