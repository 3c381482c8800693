"""Distributed collectors: checkpoint, restore, and merge synopses.

Extension demo: four collector shards each summarise their own partition
of a stream (e.g. per-NIC or per-datacenter), checkpoint to disk,
restart from the checkpoint, and finally merge into one global synopsis
whose answers keep the one-sided guarantee over the union of all
partitions — the aggregation story behind the paper's SPMD deployment.

Run with::

    python examples/checkpoint_and_merge.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ASketch,
    ExactCounter,
    load_synopsis,
    save_synopsis,
    zipf_stream,
)
from repro.runtime.sharding import ShardedASketch

SHARDS = 4
SYNOPSIS_BYTES = 64 * 1024


def main() -> None:
    partitions = [
        zipf_stream(50_000, 12_000, 1.4, seed=31 + shard)
        for shard in range(SHARDS)
    ]
    truth = ExactCounter()
    for partition in partitions:
        truth.update_batch(partition.keys)
    print(f"{SHARDS} shards x {len(partitions[0]):,} tuples, "
          f"{truth.distinct:,} distinct keys overall")

    with tempfile.TemporaryDirectory() as workdir:
        # Phase 1: each shard summarises its partition and checkpoints.
        # Shards share seeds so their sketches are merge-compatible.
        checkpoint_paths = []
        for shard, partition in enumerate(partitions):
            collector = ASketch(
                total_bytes=SYNOPSIS_BYTES, filter_items=32, seed=7
            )
            collector.process_stream(partition.keys)
            path = Path(workdir) / f"shard{shard}.npz"
            save_synopsis(collector, path)
            checkpoint_paths.append(path)
            print(f"  shard {shard}: checkpointed "
                  f"({collector.exchange_count} exchanges, "
                  f"selectivity {collector.achieved_selectivity:.3f})")

        # Phase 2: a fresh aggregator restores every checkpoint ("the
        # collectors restarted") and merges them into one synopsis.
        restored = [
            load_synopsis(path, expect_kind="asketch")
            for path in checkpoint_paths
        ]
        merged = restored[0]
        for other in restored[1:]:
            merged.merge(other)

    print(f"\nmerged synopsis: {merged.total_mass:,} tuples accounted")

    print(f"\n{'key':>8} {'true total':>10} {'merged est':>10}")
    violations = 0
    for key, count in truth.top_k(8):
        estimate = merged.query(key)
        print(f"{key:>8} {count:>10,} {estimate:>10,}")
        if estimate < count:
            violations += 1
    assert violations == 0, "one-sided guarantee violated after merge"

    # Global top-k from the merged filter.
    merged_top = {key for key, _ in merged.top_k(10)}
    true_top = {key for key, _ in truth.top_k(10)}
    print(f"\nmerged top-10 vs true global top-10 overlap: "
          f"{len(merged_top & true_top)}/10")
    print("Checkpoints restore bit-for-bit; merging preserves the "
          "one-sided guarantee over the union of all shards.")

    # Alternative: hash-partitioned sharding in one process.  reduce()
    # collapses the group into a single standalone ASketch without
    # touching the shards.
    group = ShardedASketch(
        shards=SHARDS, total_bytes=SYNOPSIS_BYTES, filter_items=32, seed=7
    )
    group.process_stream(
        np.concatenate([partition.keys for partition in partitions])
    )
    reduced = group.reduce()
    key, count = truth.top_k(1)[0]
    print(f"\nShardedASketch.reduce(): one ASketch, "
          f"{reduced.total_mass:,} tuples; top key estimate "
          f"{reduced.query(key):,} (true {count:,})")


if __name__ == "__main__":
    main()
