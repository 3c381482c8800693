"""A small streaming runtime around the synopses.

The paper's systems context is continuous ingestion: tuples arrive in
batches from a source and a summary absorbs them; a caller queries the
summary between runs.  This package provides that operational shell:

* :class:`~repro.runtime.engine.StreamEngine` — drives any synopsis from
  a chunk iterator, validating each chunk and metering throughput;
* :class:`~repro.runtime.sharding.ShardedASketch` — hash-partitioned
  ingestion across several ASketch shards (each key owned by exactly one
  shard, so queries need no merging), the standard scale-out layout for
  a multi-core collector;
* :mod:`~repro.runtime.reliability` — the fault-tolerance layer:
  :class:`~repro.runtime.reliability.ResilientEngine` (atomic
  checkpoints + exact crash recovery),
  :class:`~repro.runtime.reliability.DeadLetterQueue` (quarantine),
  :class:`~repro.runtime.reliability.ShardSupervisor`
  (a shard group plus its per-shard health view), and the
  deterministic :class:`~repro.runtime.reliability.FaultPlan`
  injection harness the recovery tests are built on;
* :mod:`~repro.runtime.parallel` — true multicore ingest:
  :class:`~repro.runtime.parallel.ParallelIngestRuntime` runs N worker
  processes over shared-memory chunk rings, each ingesting its shards'
  keys, recombined through the synopsis ``merge()`` protocol into a
  result bit-identical to a single-process run (a failed worker's
  shards are taken over by the parent, exactly).
"""

from repro.runtime.engine import (
    EngineStats,
    StreamEngine,
    coerce_chunk,
)
from repro.runtime.parallel import (
    ChunkRing,
    ParallelIngestRuntime,
)
from repro.runtime.reliability import (
    CheckpointStore,
    DeadLetter,
    DeadLetterQueue,
    FaultPlan,
    ResilientEngine,
    ShardSupervisor,
    SimulatedCrash,
    corrupt_file,
)
from repro.runtime.sharding import ShardedASketch

__all__ = [
    "CheckpointStore",
    "ChunkRing",
    "DeadLetter",
    "DeadLetterQueue",
    "EngineStats",
    "FaultPlan",
    "ParallelIngestRuntime",
    "ResilientEngine",
    "ShardSupervisor",
    "ShardedASketch",
    "SimulatedCrash",
    "StreamEngine",
    "coerce_chunk",
    "corrupt_file",
]
