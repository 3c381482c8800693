"""A small streaming runtime around the synopses.

The paper's systems context is continuous ingestion: tuples arrive in
batches from a source, a summary absorbs them, and consumers read
periodic snapshots (top-k boards, threshold alerts).  This package
provides that operational shell:

* :class:`~repro.runtime.engine.StreamEngine` — drives any synopsis from
  a chunk iterator, metering throughput and firing registered callbacks
  (every N tuples) with consistent snapshots;
* :class:`~repro.runtime.engine.TopKBoard` and
  :class:`~repro.runtime.engine.ThresholdAlert` — the two consumer types
  the paper's applications (§1) describe;
* :class:`~repro.runtime.sharding.ShardedASketch` — hash-partitioned
  ingestion across several ASketch shards (each key owned by exactly one
  shard, so queries need no merging), the standard scale-out layout for
  a multi-core collector;
* :mod:`~repro.runtime.reliability` — the fault-tolerance layer:
  :class:`~repro.runtime.reliability.ResilientEngine` (atomic
  checkpoints + exact crash recovery), :class:`~repro.runtime.
  reliability.RetryingSource` (backoff retries, dead-letter
  quarantine), :class:`~repro.runtime.reliability.ShardSupervisor`
  (a shard group plus its ``ok``/``healing`` health view), and the
  deterministic :class:`~repro.runtime.reliability.FaultPlan`
  injection harness the recovery tests are built on;
* :class:`~repro.runtime.adaptive.AdaptiveController` — closes the
  observability loop: watches windowed filter hit-rate / exchange rate
  / shard skew and re-tunes the staged filter online through
  ``resize_filter()``;
* :mod:`~repro.runtime.parallel` — true multicore ingest:
  :class:`~repro.runtime.parallel.ParallelIngestRuntime` runs N worker
  processes over shared-memory chunk rings, each ingesting its shards'
  keys, recombined through the synopsis ``merge()`` protocol into a
  result bit-identical to a single-process run (a failed worker is
  respawned or inlined, both exact).
"""

from repro.runtime.adaptive import AdaptiveController
from repro.runtime.engine import (
    EngineStats,
    StreamEngine,
    ThresholdAlert,
    TopKBoard,
    coerce_chunk,
)
from repro.runtime.parallel import (
    ChunkRing,
    ParallelIngestRuntime,
    parallel_ingest,
)
from repro.runtime.reliability import (
    CheckpointStore,
    DeadLetter,
    DeadLetterQueue,
    FaultPlan,
    FaultySource,
    ResilientEngine,
    RetryingSource,
    RetryPolicy,
    ShardSupervisor,
    SimulatedCrash,
    corrupt_file,
)
from repro.runtime.sharding import ShardedASketch

__all__ = [
    "AdaptiveController",
    "CheckpointStore",
    "ChunkRing",
    "DeadLetter",
    "DeadLetterQueue",
    "EngineStats",
    "FaultPlan",
    "FaultySource",
    "ParallelIngestRuntime",
    "ResilientEngine",
    "RetryPolicy",
    "RetryingSource",
    "ShardSupervisor",
    "ShardedASketch",
    "SimulatedCrash",
    "StreamEngine",
    "ThresholdAlert",
    "TopKBoard",
    "coerce_chunk",
    "corrupt_file",
    "parallel_ingest",
]
