"""SALSA: self-adjusting lean streaming analytics on Count-Min.

Basat et al., "SALSA: Self-Adjusting Lean Streaming Analytics"
(arXiv:2102.12531) start Count-Min rows from *small* counters (one byte
per slot instead of the paper's four-byte cells — four times as many
counters at equal space) and merge a counter with its buddy on overflow:
when a segment's value exceeds what its bytes can represent, the
aligned power-of-two block containing it and its buddy becomes one
logical counter whose value is the *sum* of the merged sub-segments.
Heavy keys end up owning wide, high-capacity counters while the long
tail keeps many narrow ones — the row adapts its layout to the
frequency distribution instead of fixing cell width up front.

Representation: per row, ``values[slot]`` holds the logical value of
the segment containing ``slot`` (mirrored across the segment, so a
query is a plain gather) and ``seg_log[slot]`` the log2 of that
segment's size.  Segments are always power-of-two sized and aligned
(truncated at the row end), so two segments either nest or are
disjoint — the buddy-merge invariant.

One-sidedness: a segment's value is the sum of every increment that
landed in any of its slots, which dominates any single key's count, so
``min`` over rows stays an over-estimate; merging buddies only ever
sums more mass in.  Insert-only streams (a merged counter cannot be
un-merged to honour a deletion).

Within the staged architecture this is a third back-stage family:
``ASketch(sketch=SalsaCountMin(...))`` puts the paper's exact filter in
front of self-adjusting rows, and the registered ``"salsa-cm"`` kind is
reachable from specs, the CLI, the experiment harness and
checkpoint/restore.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NegativeCountError
from repro.hardware.costs import OpCounters
from repro.hashing import make_hash_family
from repro.hashing.families import encode_key_array, key_to_int
from repro.sketches.base import FrequencySketch
from repro.synopses.protocol import SynopsisState

#: Stored logical values are int64; segments spanning a whole row may
#: exceed their byte-model capacity rather than overflow the store.
_VALUE_CAP_BITS = 63


class SalsaCountMin(FrequencySketch):
    """Count-Min with on-demand buddy counter merging.

    Parameters
    ----------
    num_hashes:
        ``w``, the number of rows.
    num_slots:
        Slots per row; mutually exclusive with ``total_bytes``.
    total_bytes:
        Byte budget; slots per row is ``bytes / (w * slot_bytes)`` —
        at ``slot_bytes=1`` that is 4x the counters of a 4-byte-cell
        Count-Min in the same space.
    slot_bytes:
        Bytes per base counter slot (default 1, as in the SALSA paper).
    seed:
        Seed for the hash family parameters.
    """

    def __init__(
        self,
        num_hashes: int = 8,
        num_slots: int | None = None,
        *,
        total_bytes: int | None = None,
        slot_bytes: int = 1,
        seed: int = 0,
        hash_family: str = "carter-wegman",
    ) -> None:
        if (num_slots is None) == (total_bytes is None):
            raise ConfigurationError(
                "specify exactly one of num_slots or total_bytes"
            )
        if slot_bytes < 1:
            raise ConfigurationError(
                f"slot_bytes must be >= 1, got {slot_bytes}"
            )
        if total_bytes is not None:
            num_slots = total_bytes // (num_hashes * slot_bytes)
        assert num_slots is not None
        if num_hashes <= 0 or num_slots < 2:
            raise ConfigurationError(
                f"invalid SALSA dimensions w={num_hashes}, "
                f"slots={num_slots} (need >= 2 slots per row)"
            )
        self.num_hashes = int(num_hashes)
        self.num_slots = int(num_slots)
        self.slot_bytes = int(slot_bytes)
        self.seed = int(seed)
        self.hash_family_name = hash_family
        self._values = np.zeros(
            (self.num_hashes, self.num_slots), dtype=np.int64
        )
        self._seg_log = np.zeros(
            (self.num_hashes, self.num_slots), dtype=np.uint8
        )
        self._hashes = [
            make_hash_family(
                hash_family, self.num_slots, seed * 1_000_003 + row
            )
            for row in range(self.num_hashes)
        ]
        #: Buddy merges performed so far (the structure's adaptation count).
        self.counter_merges = 0
        self.ops = OpCounters()

    # -- sizing -----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_hashes * self.num_slots * self.slot_bytes

    def _capacity(self, seg_log: int) -> int:
        """Largest value a ``2**seg_log``-slot segment can represent."""
        bits = min(8 * self.slot_bytes * (1 << seg_log), _VALUE_CAP_BITS)
        return (1 << bits) - 1

    # -- hashing ----------------------------------------------------------

    def hash_columns(self, key: int) -> list[int]:
        """The ``w`` slot indices for a key (one per row)."""
        encoded = key_to_int(key)
        return [h(encoded) for h in self._hashes]

    # -- segment mechanics -------------------------------------------------

    def _segment(self, row: int, slot: int) -> tuple[int, int, int]:
        """(head, end, seg_log) of the segment containing ``slot``."""
        level = int(self._seg_log[row, slot])
        size = 1 << level
        head = slot & ~(size - 1)
        return head, min(head + size, self.num_slots), level

    def _span_sum(self, row: int, head: int, end: int) -> int:
        """Sum of the distinct segment values inside ``[head, end)``.

        Valid because segments are aligned power-of-two blocks: every
        segment intersecting an aligned superblock nests inside it, and
        the walk always lands on sub-segment heads.
        """
        values = self._values[row]
        seg_log = self._seg_log[row]
        total = 0
        position = head
        while position < end:
            total += int(values[position])
            position += 1 << int(seg_log[position])
        return total

    def _write_segment(
        self, row: int, head: int, end: int, level: int, value: int
    ) -> None:
        """Mirror a segment's value/level across all its slots."""
        self._values[row, head:end] = value
        self._seg_log[row, head:end] = level

    def _grow_until_fits(
        self, row: int, head: int, end: int, level: int, value: int
    ) -> int:
        """Merge buddies until ``value`` fits its segment's capacity.

        The current segment already holds ``value``; each round doubles
        the aligned block, sums every sub-segment inside it (which now
        includes ``value``), and relabels.  Returns the final value.
        """
        while value > self._capacity(level) and (1 << level) < self.num_slots:
            level += 1
            size = 1 << level
            head = head & ~(size - 1)
            end = min(head + size, self.num_slots)
            value = self._span_sum(row, head, end)
            self._write_segment(row, head, end, level, value)
            self.counter_merges += 1
            self.ops.sketch_cell_writes += end - head
        return value

    # -- updates ----------------------------------------------------------

    def update(self, key: int, amount: int = 1) -> int:
        """Add ``amount`` to the key's segment in every row; merge buddies
        on overflow.  Returns the new (minimum-over-rows) estimate."""
        if amount < 0:
            raise NegativeCountError(
                "SALSA supports insert-only streams; merged counters "
                "cannot be un-merged to honour deletions"
            )
        ops = self.ops
        ops.hash_evals += self.num_hashes
        ops.sketch_cell_reads += self.num_hashes
        ops.sketch_cell_writes += self.num_hashes
        estimate: int | None = None
        for row, slot in enumerate(self.hash_columns(key)):
            head, end, level = self._segment(row, slot)
            value = int(self._values[row, head]) + amount
            self._write_segment(row, head, end, level, value)
            if value > self._capacity(level):
                value = self._grow_until_fits(row, head, end, level, value)
            if estimate is None or value < estimate:
                estimate = value
        assert estimate is not None
        return estimate

    # Batch updates keep the inherited per-key loop: merges are
    # state-dependent, so they cannot be scatter-added like a
    # fixed-layout Count-Min's.

    # -- queries ----------------------------------------------------------

    def estimate(self, key: int) -> int:
        """Minimum over rows of the key's segment value (a gather, since
        values are mirrored across segment slots)."""
        self.ops.hash_evals += self.num_hashes
        self.ops.sketch_cell_reads += self.num_hashes
        values = self._values
        return min(
            int(values[row, slot])
            for row, slot in enumerate(self.hash_columns(key))
        )

    def estimate_batch(self, keys) -> list[int]:
        """Vectorised point queries (per-row hash + gather + min)."""
        return self.estimate_array(keys).tolist()

    def estimate_array(self, keys) -> np.ndarray:
        """:meth:`estimate_batch` as an int64 array."""
        if not isinstance(keys, np.ndarray):
            keys = np.asarray(list(keys))
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        encoded = encode_key_array(keys)
        self.ops.hash_evals += self.num_hashes * len(keys)
        self.ops.sketch_cell_reads += self.num_hashes * len(keys)
        estimates = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        for row, family in enumerate(self._hashes):
            columns = family.hash_array(encoded)
            np.minimum(estimates, self._values[row, columns], out=estimates)
        return estimates

    def total_count(self) -> int:
        """Aggregate count ``N`` absorbed so far (row 0 segment sum)."""
        return self._span_sum(0, 0, self.num_slots)

    # -- merging ----------------------------------------------------------

    def is_mergeable_with(self, other: "SalsaCountMin") -> bool:
        """Same geometry, slot width and hash functions."""
        if not isinstance(other, SalsaCountMin):
            return False
        if (self.num_hashes, self.num_slots, self.slot_bytes) != (
            other.num_hashes,
            other.num_slots,
            other.slot_bytes,
        ):
            return False
        probe_keys = (0, 1, 2, 12345, 987654321)
        return all(
            self.hash_columns(key) == other.hash_columns(key)
            for key in probe_keys
        )

    def merge(self, other: "SalsaCountMin") -> None:
        """Absorb another SALSA sketch: buddy-lattice join per row.

        The merged partition of each row is the coarsest valid buddy
        partition refining neither input (pointwise max of the two
        ``seg_log`` labellings, closed under the alignment rule); each
        merged segment's value is the sum of both inputs' sub-segment
        values inside it, with a final overflow cascade.  Summing
        distinct sub-segments counts every increment from both streams
        exactly once, so the result is one-sided over the concatenated
        stream, and the construction is symmetric — merge order cannot
        change the outcome.
        """
        if not self.is_mergeable_with(other):
            raise ConfigurationError(
                "sketches must share dimensions and hash seeds to merge"
            )
        for row in range(self.num_hashes):
            self._merge_row(row, other)
        self.counter_merges += other.counter_merges
        self.ops.sketch_cell_writes += self.num_hashes * self.num_slots

    def _merge_row(self, row: int, other: "SalsaCountMin") -> None:
        levels = np.maximum(
            self._seg_log[row], other._seg_log[row]
        ).astype(np.int64)
        levels = _coarsen(levels, self.num_slots)
        merged_values = np.zeros(self.num_slots, dtype=np.int64)
        merged_log = np.zeros(self.num_slots, dtype=np.uint8)
        head = 0
        while head < self.num_slots:
            level = int(levels[head])
            end = min(head + (1 << level), self.num_slots)
            value = self._span_sum(row, head, end) + other._span_sum(
                row, head, end
            )
            merged_values[head:end] = value
            merged_log[head:end] = level
            head = end
        self._values[row] = merged_values
        self._seg_log[row] = merged_log
        # Overflow cascade: summed segments may exceed their capacity.
        head = 0
        while head < self.num_slots:
            start_head, end, level = self._segment(row, head)
            value = int(self._values[row, start_head])
            if value > self._capacity(level):
                self._grow_until_fits(row, start_head, end, level, value)
                # The grown segment may cover earlier slots; rescan it.
                head = self._segment(row, start_head)[0]
            head = self._segment(row, head)[1]

    # -- synopsis protocol --------------------------------------------------

    SYNOPSIS_KIND = "salsa-cm"

    def state(self) -> SynopsisState:
        """Portable snapshot: values, segment layout and geometry."""
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "num_hashes": self.num_hashes,
                "num_slots": self.num_slots,
                "slot_bytes": self.slot_bytes,
                "seed": self.seed,
                "hash_family": self.hash_family_name,
            },
            arrays={
                "values": self._values.copy(),
                "seg_log": self._seg_log.copy(),
            },
            extra={"counter_merges": self.counter_merges},
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "SalsaCountMin":
        sketch = cls(**state.params)
        sketch._values[:] = state.arrays["values"]
        sketch._seg_log[:] = state.arrays["seg_log"]
        sketch.counter_merges = int(state.extra["counter_merges"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SalsaCountMin(w={self.num_hashes}, slots={self.num_slots}, "
            f"slot_bytes={self.slot_bytes}, bytes={self.size_bytes})"
        )


def _coarsen(levels: np.ndarray, n: int) -> np.ndarray:
    """Close a per-slot level labelling under the buddy alignment rule.

    A labelling is a valid partition when, for every slot, the aligned
    ``2**level`` block containing it is labelled uniformly.  Raising any
    slot's level can force its whole block up, so iterate to fixpoint
    (bounded by ``log2(n)`` doublings per slot).
    """
    levels = levels.copy()
    changed = True
    while changed:
        changed = False
        slot = 0
        while slot < n:
            size = 1 << int(levels[slot])
            head = slot & ~(size - 1)
            end = min(head + size, n)
            block_max = int(levels[head:end].max())
            if (levels[head:end] != block_max).any():
                levels[head:end] = block_max
                changed = True
            slot = end
    return levels
