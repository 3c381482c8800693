"""Holistic UDAFs (Cormode et al., reference [10] of the paper).

The Holistic-UDAF architecture performs *run-length aggregation* in a
small low-level table in front of a sketch: an incoming tuple is
aggregated in the table if its key is present; when the table is full and
a new key arrives, the whole table is flushed into the sketch and cleared.
This raises update throughput on skewed data (one table hit replaces ``w``
hash updates) but — unlike ASketch — the table is transient: everything is
eventually flushed, so query accuracy equals the underlying sketch's
("Holistic UDAFs relies on the underlying sketch for answering the
queries, therefore the performance is almost the same as that of
Count-Min", §7.2.1).

Space accounting matches the paper's fairness protocol: the table's slots
(same 12-byte array layout as the ASketch filter) are carved out of the
sketch's byte budget, and the table lookup is priced as the same SIMD
linear scan ("For the lookup in the low-level table, we use the same code
that we use for the filter lookup").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters
from repro.hashing.families import int64_keys
from repro.simd.engine import simd_probe_blocks
from repro.sketches.base import FrequencySketch
from repro.sketches.count_min import CountMinSketch
from repro.synopses.protocol import (
    SynopsisState,
    pack_nested,
    prefix_arrays,
    unpack_nested,
)

#: Logical bytes per table slot (id + count + padding; the array layout).
TABLE_BYTES_PER_ITEM = 12


class HolisticUDAF(FrequencySketch):
    """Run-length aggregation table in front of a Count-Min sketch.

    Parameters
    ----------
    table_items:
        Capacity of the low-level aggregate table (the paper sizes it to
        the ASketch filter's item count).
    total_bytes:
        Total synopsis budget; the sketch receives what the table leaves.
    num_hashes, seed, hash_family:
        Forwarded to the underlying Count-Min sketch.
    """

    def __init__(
        self,
        table_items: int = 32,
        *,
        total_bytes: int,
        num_hashes: int = 8,
        seed: int = 0,
        hash_family: str = "carter-wegman",
    ) -> None:
        if table_items < 1:
            raise ConfigurationError(
                f"table_items must be >= 1, got {table_items}"
            )
        table_bytes = table_items * TABLE_BYTES_PER_ITEM
        sketch_bytes = total_bytes - table_bytes
        if sketch_bytes <= 0:
            raise ConfigurationError(
                "aggregate table does not fit in the byte budget"
            )
        self.table_items = int(table_items)
        self.total_bytes = int(total_bytes)
        self.seed = int(seed)
        self.hash_family_name = hash_family
        self.sketch = CountMinSketch(
            num_hashes=num_hashes,
            total_bytes=sketch_bytes,
            seed=seed,
            hash_family=hash_family,
        )
        self.ops = OpCounters()
        self._table: dict[int, int] = {}
        #: Number of whole-table flushes performed (throughput analysis).
        self.flush_count = 0

    @property
    def size_bytes(self) -> int:
        return self.sketch.size_bytes + self.table_items * TABLE_BYTES_PER_ITEM

    def _charge_probe(self) -> None:
        self.ops.filter_probes += 1
        self.ops.filter_probe_blocks += simd_probe_blocks(self.table_items)

    def update(self, key: int, amount: int = 1) -> int:
        """Aggregate in the table, flushing to the sketch when it spills.

        Returns the current estimate (sketch plus pending table count),
        keeping the interface uniform with the other sketches.
        """
        self.ops.items += 1
        self._charge_probe()
        table = self._table
        if key in table:
            table[key] += amount
            self.ops.filter_hits += 1
        else:
            if len(table) >= self.table_items:
                self.flush()
            table[key] = amount
        return self.estimate(key)

    def process(self, key: int, amount: int = 1) -> None:
        """Update without computing an estimate (the streaming hot path)."""
        self.ops.items += 1
        self._charge_probe()
        table = self._table
        if key in table:
            table[key] += amount
            self.ops.filter_hits += 1
        else:
            if len(table) >= self.table_items:
                self.flush()
            table[key] = amount

    def process_stream(self, keys: np.ndarray) -> None:
        """Sequentially process a key array (flush points are order-exact)."""
        for key in int64_keys(keys).tolist():
            self.process(key)

    update_batch = process_stream

    def flush(self) -> None:
        """Flush every aggregated (key, count) pair into the sketch."""
        for key, count in self._table.items():
            self.sketch.update(key, count)
            self.ops.flush_items += 1
        self._table.clear()
        self.flush_count += 1

    def stage_ops(self) -> tuple["OpCounters", "OpCounters"]:
        """(table-core, sketch-core) split for the pipeline model (§6.2).

        The table core carries the per-item loop, the SIMD probes and the
        flush driver; the sketch core carries the hash/cell work of the
        flushed items.  The flush items are also the forwarded messages.
        """
        stage0 = self.ops.snapshot()
        stage1 = self.sketch.ops.snapshot()
        return stage0, stage1

    def estimate(self, key: int) -> int:
        """Sketch estimate plus any count still pending in the table.

        The table alone can never answer a query (its content is a partial
        run), so every query pays the sketch probe — the behaviour behind
        the paper's Figure 5(b).
        """
        self._charge_probe()
        pending = self._table.get(key, 0)
        return self.sketch.estimate(key) + pending

    # -- merging ----------------------------------------------------------

    def merge(self, other: "HolisticUDAF") -> None:
        """Flush both pending tables, then cell-wise merge the sketches.

        Post-merge estimates summarise the concatenation of both streams
        with the underlying Count-Min one-sided guarantee; they are not
        bit-identical to a single-instance run because flush boundaries
        differ (the table is transient by design, so only the sketch's
        guarantee is preserved — the same reason §7.2.1 ties Holistic
        UDAF accuracy to the backing sketch's).
        """
        if not isinstance(other, HolisticUDAF):
            raise ConfigurationError(
                f"cannot merge HolisticUDAF with {type(other).__name__}"
            )
        self.flush()
        other.flush()
        self.sketch.merge(other.sketch)

    # -- synopsis protocol --------------------------------------------------

    SYNOPSIS_KIND = "holistic-udaf"

    def state(self) -> SynopsisState:
        """Nested sketch state plus the pending table in insertion order.

        Insertion order matters: the next spill flushes the table dict in
        that order, so restoring it verbatim keeps flush traces identical.
        """
        sketch_state = self.sketch.state()
        arrays = {
            "table_keys": np.array(list(self._table.keys()), dtype=np.int64),
            "table_counts": np.array(
                list(self._table.values()), dtype=np.int64
            ),
        }
        arrays.update(prefix_arrays("sketch", sketch_state.arrays))
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "table_items": self.table_items,
                "total_bytes": self.total_bytes,
                "num_hashes": self.sketch.num_hashes,
                "seed": self.seed,
                "hash_family": self.hash_family_name,
            },
            arrays=arrays,
            extra={
                "flush_count": self.flush_count,
                "sketch": pack_nested(sketch_state),
            },
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "HolisticUDAF":
        udaf = cls(
            state.params["table_items"],
            total_bytes=state.params["total_bytes"],
            num_hashes=state.params["num_hashes"],
            seed=state.params["seed"],
            hash_family=state.params["hash_family"],
        )
        sketch_state = unpack_nested(
            state.extra["sketch"], state.arrays, "sketch"
        )
        udaf.sketch = CountMinSketch.from_state(sketch_state)
        udaf._table = {
            int(key): int(count)
            for key, count in zip(
                state.arrays["table_keys"].tolist(),
                state.arrays["table_counts"].tolist(),
            )
        }
        udaf.flush_count = int(state.extra["flush_count"])
        return udaf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HolisticUDAF(table={self.table_items}, "
            f"sketch_bytes={self.sketch.size_bytes})"
        )
