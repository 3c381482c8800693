"""Vector filter: three flat arrays scanned linearly (paper §6.1).

Lookup is the SIMD linear scan of Algorithm 3 (16 keys per probe block);
finding the minimum ``new_count`` is another linear scan.  On modern
hardware this beats pointer-based structures for small arrays, and the
paper finds it the best filter at skew > 2 — where almost every update is
a hit and the min-scan on the miss path is rarely exercised.

Python-speed note: the runtime lookup uses a dict index and the min-scan
uses a cached minimum (counts only grow, so the cached minimum is exact
and only needs recomputing when the minimum slot itself changes).  Both
are *semantically identical* to the scans; the operation record still
charges the scans the C implementation performs (``filter_probe_blocks``
per lookup, ``min_scans`` elements per miss-path min query), which is what
the cost model prices.  The key array is maintained so the faithful
SIMD kernel can be run against the same state in tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.filters.base import ArrayFilter, FilterEntry
from repro.errors import CapacityError
from repro.hardware.costs import OpCounters
from repro.kernels import active_backend


class VectorFilter(ArrayFilter):
    """Linear-scan filter over (key, new_count, old_count) arrays."""

    BYTES_PER_SLOT = 12

    def __init__(self, capacity: int, ops: OpCounters | None = None) -> None:
        super().__init__(capacity, ops)
        # Cached location/value of the minimum new_count.
        self._min_slot = -1
        self._min_value = 0

    # -- lookup / hit path ---------------------------------------------------

    def add_if_present(self, key: int, amount: int) -> bool:
        ops = self.ops
        ops.filter_probes += 1
        ops.filter_probe_blocks += self._probe_blocks
        slot = self._index.get(key, -1)
        if slot < 0:
            return False
        ops.filter_hits += 1
        self._new[slot] += amount
        if slot == self._min_slot:
            self._rescan_min()
        return True

    def get_counts(self, key: int) -> tuple[int, int] | None:
        self.ops.filter_probes += 1
        self.ops.filter_probe_blocks += self._probe_blocks
        slot = self._index.get(key, -1)
        if slot < 0:
            return None
        return self._new[slot], self._old[slot]

    # -- bulk operations (batched ingest/query path) -------------------------

    def add_many_if_present(
        self, keys: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """Backend membership kernel; hits aggregate in place.

        Slots never move in this filter, so the kernel's slot answers
        are applied directly (no per-hit re-find).  Charged exactly
        like the equivalent scalar probes (one SIMD scan per key) so
        the cost model sees the same operation mix.
        """
        keys = np.asarray(keys, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=np.int64)
        n = keys.shape[0]
        ops = self.ops
        ops.filter_probes += n
        ops.filter_probe_blocks += n * self._probe_blocks
        if n == 0 or not self._size:
            return np.zeros(n, dtype=bool)
        slots = active_backend().membership_probe(
            self._keys[: self._size], keys
        )
        mask = slots >= 0
        hit_count = int(np.count_nonzero(mask))
        if hit_count:
            ops.filter_hits += hit_count
            new = self._new
            min_slot = self._min_slot
            touched_min = False
            for slot, amount in zip(
                slots[mask].tolist(), amounts[mask].tolist()
            ):
                new[slot] += amount
                if slot == min_slot:
                    touched_min = True
            if touched_min:
                self._rescan_min()
        return mask

    # -- structural operations ----------------------------------------------

    def insert(self, key: int, new_count: int, old_count: int) -> None:
        self._require_not_full()
        if key in self._index:
            raise CapacityError(f"key {key} already monitored")
        slot = self._size
        self._keys[slot] = key
        self._new[slot] = new_count
        self._old[slot] = old_count
        self._index[key] = slot
        self._size += 1
        if self._min_slot < 0 or new_count < self._min_value:
            self._min_slot = slot
            self._min_value = new_count

    def min_new_count(self) -> int:
        """Minimum new_count; charged as the full linear scan it costs in C."""
        if self._min_slot < 0:
            raise CapacityError("min_new_count on an empty filter")
        self.ops.min_scans += self.capacity
        return self._min_value

    def peek_min_new_count(self) -> int:
        """Cached minimum without the per-query scan charge."""
        if self._min_slot < 0:
            raise CapacityError("min_new_count on an empty filter")
        return self._min_value

    def charge_min_queries(self, queries: int) -> None:
        """Each elided min query would have scanned the full array."""
        self.ops.min_scans += self.capacity * int(queries)

    def replace_min(
        self, key: int, new_count: int, old_count: int
    ) -> FilterEntry:
        if self._min_slot < 0:
            raise CapacityError("replace_min on an empty filter")
        if key in self._index:
            raise CapacityError(f"key {key} already monitored")
        slot = self._min_slot
        evicted = FilterEntry(
            key=int(self._keys[slot]),
            new_count=self._new[slot],
            old_count=self._old[slot],
        )
        del self._index[evicted.key]
        self._keys[slot] = key
        self._new[slot] = new_count
        self._old[slot] = old_count
        self._index[key] = slot
        self._rescan_min()
        return evicted

    def set_counts(self, key: int, new_count: int, old_count: int) -> None:
        slot = self._index[key]
        self._new[slot] = new_count
        self._old[slot] = old_count
        self._rescan_min()

    def entries(self) -> list[FilterEntry]:
        return [
            FilterEntry(key, self._new[slot], self._old[slot])
            for key, slot in self._index.items()
        ]

    # -- internals -------------------------------------------------------

    def _rescan_min(self) -> None:
        """Recompute the cached minimum over occupied slots."""
        if not self._index:
            self._min_slot = -1
            self._min_value = 0
            return
        new = self._new
        best_slot = -1
        best_value = 0
        for slot in self._index.values():
            if best_slot < 0 or new[slot] < best_value:
                best_slot = slot
                best_value = new[slot]
        self._min_slot = best_slot
        self._min_value = best_value
