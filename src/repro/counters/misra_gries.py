"""Misra-Gries frequent-items counter (reference [28] of the paper).

Maintains at most ``k`` (key, count) pairs.  A hit increments; a miss with
a free slot inserts; a miss with a full table decrements *every* counter,
discarding zeros — the classical "repeated elements" algorithm.  Any item
with true frequency above ``N / (k + 1)`` is guaranteed to be monitored,
and each monitored count underestimates the true count by at most the
total decrement amount.

In this library Misra-Gries serves as the high/low-frequency classifier
inside Frequency-Aware Counting (FCM), exactly as in the paper's baseline
description (§7.1).  The classifier lookup uses the same array layout as
the ASketch filter so the cost model charges it the same SIMD probe costs
("For lookup in the MG counter, we use the same hardware-conscious
SIMD-enabled lookup code that we use for the filter lookup").
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.hardware.costs import OpCounters
from repro.simd.engine import simd_probe_blocks
from repro.synopses.protocol import SynopsisState


class MisraGries:
    """Array-backed Misra-Gries summary with SIMD-costed lookup.

    Parameters
    ----------
    capacity:
        ``k``, the maximum number of monitored items.
    ops:
        Optional shared operation record.
    """

    def __init__(self, capacity: int, ops: OpCounters | None = None) -> None:
        if capacity < 1:
            raise CapacityError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.ops = ops if ops is not None else OpCounters()
        # Slots hold raw keys; a slot is live unless it is on the free
        # list.  The dict index mirrors the key array for O(1) Python-side
        # lookup; the cost model still charges the SIMD scan the C
        # implementation performs.
        self._keys = np.zeros(self.capacity, dtype=np.int64)
        self._counts = [0] * self.capacity
        self._index: dict[int, int] = {}
        self._free = list(range(capacity - 1, -1, -1))
        #: Total per-counter decrement applied so far (error bound).
        self.total_decrements = 0

    def __len__(self) -> int:
        return len(self._index)

    def _find(self, key: int) -> int:
        self.ops.filter_probes += 1
        self.ops.filter_probe_blocks += simd_probe_blocks(self.capacity)
        return self._index.get(key, -1)

    def update(self, key: int, amount: int = 1) -> None:
        """Process one stream occurrence of ``key``."""
        self.ops.mg_ops += 1
        index = self._find(key)
        if index >= 0:
            self._counts[index] += amount
            return
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
            self._counts[slot] = amount
            self._index[key] = slot
            return
        self._decrement_all(amount)

    def _decrement_all(self, amount: int) -> None:
        """Decrement every counter by ``amount``, freeing exhausted slots."""
        self.total_decrements += amount
        for slot in self._live_slots():
            self._counts[slot] -= amount
            if self._counts[slot] <= 0:
                del self._index[int(self._keys[slot])]
                self._keys[slot] = 0
                self._counts[slot] = 0
                self._free.append(slot)
        self.ops.mg_ops += self.capacity

    def count_of(self, key: int) -> int | None:
        """Monitored (under)count of ``key``, or None if not monitored."""
        index = self._find(key)
        if index < 0:
            return None
        return self._counts[index]

    def is_frequent(self, key: int) -> bool:
        """Whether the key is currently monitored (FCM's classifier test)."""
        return self._find(key) >= 0

    def items(self) -> list[tuple[int, int]]:
        """All monitored (key, count) pairs, descending count."""
        pairs = [
            (int(self._keys[slot]), self._counts[slot])
            for slot in self._live_slots()
        ]
        pairs.sort(key=lambda pair: pair[1], reverse=True)
        return pairs

    def _live_slots(self) -> list[int]:
        """Slots not on the free list, ascending."""
        free = set(self._free)
        return [slot for slot in range(self.capacity) if slot not in free]

    # -- sizing ------------------------------------------------------------

    #: Logical bytes per slot: key + count in the 12-byte array layout the
    #: cost model prices (same as the ASketch array filters).
    BYTES_PER_ITEM = 12

    @property
    def size_bytes(self) -> int:
        """Logical summary size: ``capacity * BYTES_PER_ITEM``."""
        return self.capacity * self.BYTES_PER_ITEM

    # -- queries -----------------------------------------------------------

    def estimate(self, key: int) -> int:
        """Monitored undercount of ``key`` (0 when not monitored).

        Always a lower bound: ``estimate(k) <= true count``, with error
        at most :attr:`total_decrements`.
        """
        count = self.count_of(key)
        return 0 if count is None else count

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MisraGries") -> None:
        """Fold another summary in by weighted replay.

        Each of ``other``'s monitored (key, count) pairs is replayed as
        one weighted update; capacity pressure triggers the usual
        all-counter decrements.  The combined error bound is the sum of
        both summaries' decrement totals (replay-induced decrements are
        accumulated by :meth:`update` itself), so monitored counts stay
        valid undercounts of the concatenated stream.
        """
        if not isinstance(other, MisraGries):
            raise CapacityError(
                f"cannot merge MisraGries with {type(other).__name__}"
            )
        for key, count in other.items():
            self.update(key, count)
        self.total_decrements += other.total_decrements

    # -- synopsis protocol ---------------------------------------------------

    SYNOPSIS_KIND = "misra-gries"

    def state(self) -> SynopsisState:
        """Exact slot-level state, including the free-slot stack order.

        The free list's LIFO order decides which slot a future insert
        lands in; persisting it verbatim makes the restored summary's
        slot assignments — and thus its SIMD probe traces — identical.
        It also marks which slots are live, so ``keys`` holds raw keys.
        """
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={"capacity": self.capacity},
            arrays={
                "keys": self._keys.copy(),
                "counts": np.array(self._counts, dtype=np.int64),
                "free": np.array(self._free, dtype=np.int64),
            },
            extra={"total_decrements": self.total_decrements},
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "MisraGries":
        """Inverse of :meth:`state`.  Older states hold ``ids`` (each
        live slot's ``key + 1``) in place of ``keys``; they load to the
        same summary, key -1 (stored as id 0) included."""
        summary = cls(**state.params)
        summary._counts = [int(c) for c in state.arrays["counts"].tolist()]
        summary._free = [int(s) for s in state.arrays["free"].tolist()]
        live = summary._live_slots()
        if "keys" in state.arrays:
            summary._keys[:] = state.arrays["keys"]
        else:
            summary._keys[live] = state.arrays["ids"][live] - 1
        summary._index = {int(summary._keys[slot]): slot for slot in live}
        summary.total_decrements = int(state.extra["total_decrements"])
        return summary
