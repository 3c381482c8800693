"""Heap filters: array min-heaps on ``new_count`` (paper §6.1).

Both variants store (key, new_count, old_count) in three parallel arrays
arranged as a binary min-heap keyed by ``new_count``, so the minimum item
sits at the root and the miss-path min lookup (Algorithm 1 line 9) is a
single read — the reason the heaps beat the Vector filter at low and
medium skew.  Lookup by key is the same SIMD linear scan as the Vector
filter (a dict index at Python speed, SIMD-priced in the op record).

* :class:`StrictHeapFilter` restores the heap property after *every* hit:
  an increased count may now exceed its children, so it is sifted down.
* :class:`RelaxedHeapFilter` reconstructs the heap only when the *root*
  is hit or replaced (paper: "reconstructs the heap only when there is a
  hit on the item with the minimum count").  Because counts only grow,
  untouched items can never undercut the root between reconstructions,
  so the root is always the exact minimum — see the class docstring for
  why reconstruction (rather than a lazy root sift-down) is required.

Deletions (Appendix A) can decrease counts, which breaks the
grow-only reasoning; ``set_counts`` therefore re-heapifies fully — an
acceptable cost for the rare deletion path.

Both variants know when a rebuild would change nothing: a flag records
that the arrays form a valid heap.  A rebuild sets it; every count
write that may break the heap clears it (a relaxed-heap hit,
``set_counts``, ``restore_entries``); inserts, replacements and strict
sifts keep a valid heap valid.  While it is set, ``_heapify`` skips its
sift-downs and charges the one level per interior slot they would have
charged, so slots, index and op record stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.filters.base import ArrayFilter, FilterEntry
from repro.errors import CapacityError
from repro.hardware.costs import OpCounters


class _HeapFilterBase(ArrayFilter):
    """Shared machinery of the strict and relaxed heap filters."""

    BYTES_PER_SLOT = 12

    def __init__(self, capacity: int, ops: OpCounters | None = None) -> None:
        super().__init__(capacity, ops)
        #: The arrays form a valid min-heap (an empty one does).
        self._valid = True

    # -- lookup -------------------------------------------------------------

    def _find(self, key: int) -> int:
        self.ops.filter_probes += 1
        self.ops.filter_probe_blocks += self._probe_blocks
        return self._index.get(key, -1)

    def get_counts(self, key: int) -> tuple[int, int] | None:
        slot = self._find(key)
        if slot < 0:
            return None
        return self._new[slot], self._old[slot]

    # -- heap plumbing -----------------------------------------------------

    def _sift_down(self, position: int) -> None:
        """Move a (possibly increased) entry down to a valid spot.

        The moving entry is held aside while each smaller child moves
        up into the hole above it, then written once where it stops:
        the same slots, index and level count a swap per level gives.
        """
        keys, new, old, index = self._keys, self._new, self._old, self._index
        size = self._size
        moving_key = keys[position]
        moving_new = new[position]
        moving_old = old[position]
        levels = 0
        while True:
            child = 2 * position + 1
            if child >= size:
                break
            right = child + 1
            if right < size and new[right] < new[child]:
                child = right
            if new[child] >= moving_new:
                break
            child_key = keys[child]
            keys[position] = child_key
            new[position] = new[child]
            old[position] = old[child]
            index[int(child_key)] = position
            position = child
            levels += 1
        if levels:
            keys[position] = moving_key
            new[position] = moving_new
            old[position] = moving_old
            index[int(moving_key)] = position
        self.ops.heap_fixup_levels += max(levels, 1)

    def _sift_up(self, position: int) -> None:
        """Move a (possibly decreased / new) entry up to a valid spot,
        holding it aside like :meth:`_sift_down` does."""
        keys, new, old, index = self._keys, self._new, self._old, self._index
        moving_key = keys[position]
        moving_new = new[position]
        moving_old = old[position]
        levels = 0
        while position > 0:
            parent = (position - 1) // 2
            if new[parent] <= moving_new:
                break
            parent_key = keys[parent]
            keys[position] = parent_key
            new[position] = new[parent]
            old[position] = old[parent]
            index[int(parent_key)] = position
            position = parent
            levels += 1
        if levels:
            keys[position] = moving_key
            new[position] = moving_new
            old[position] = moving_old
            index[int(moving_key)] = position
        self.ops.heap_fixup_levels += max(levels, 1)

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
        self._sift_up(slot)

    def min_new_count(self) -> int:
        if self._size == 0:
            raise CapacityError("min_new_count on an empty filter")
        return self._new[0]

    def replace_min(
        self, key: int, new_count: int, old_count: int
    ) -> FilterEntry:
        if self._size == 0:
            raise CapacityError("replace_min on an empty filter")
        if key in self._index:
            raise CapacityError(f"key {key} already monitored")
        evicted = FilterEntry(
            key=int(self._keys[0]),
            new_count=self._new[0],
            old_count=self._old[0],
        )
        del self._index[evicted.key]
        self._keys[0] = key
        self._new[0] = new_count
        self._old[0] = old_count
        self._index[key] = 0
        self._sift_down(0)
        return evicted

    def set_counts(self, key: int, new_count: int, old_count: int) -> None:
        slot = self._index[key]
        self._new[slot] = new_count
        self._old[slot] = old_count
        self._valid = False
        self._heapify()

    def _heapify(self) -> None:
        """Full bottom-up heapify.

        On a valid heap every sift-down stops at once and charges one
        level, so the rebuild is skipped and those levels are charged.
        """
        if self._valid:
            self.ops.heap_fixup_levels += self._size // 2
            return
        for position in range(self._size // 2 - 1, -1, -1):
            self._sift_down(position)
        self._valid = True

    def entries(self) -> list[FilterEntry]:
        return [
            FilterEntry(int(self._keys[slot]), self._new[slot], self._old[slot])
            for slot in range(self._size)
        ]

    def restore_entries(self, keys, new_counts, old_counts) -> None:
        """Write saved entries back into their exact heap slots.

        ``entries()`` reports slot order, so direct assignment restores
        the precise array layout — including any interior violations a
        relaxed heap had accumulated — which a sift-up replay through
        ``insert`` would silently repair, changing future eviction
        tie-breaks.
        """
        if self._size:
            raise CapacityError("restore_entries on a non-empty filter")
        for slot, (key, new_count, old_count) in enumerate(
            zip(
                np.asarray(keys).tolist(),
                np.asarray(new_counts).tolist(),
                np.asarray(old_counts).tolist(),
            )
        ):
            self._keys[slot] = key
            self._new[slot] = int(new_count)
            self._old[slot] = int(old_count)
            self._index[int(key)] = slot
        self._size = len(self._index)
        self._valid = False

    def heap_property_violations(self) -> int:
        """Count parent>child violations (0 for strict; >=0 for relaxed)."""
        violations = 0
        for position in range(1, self._size):
            parent = (position - 1) // 2
            if self._new[parent] > self._new[position]:
                violations += 1
        return violations


class StrictHeapFilter(_HeapFilterBase):
    """Heap filter that restores the heap invariant on every hit."""

    def add_if_present(self, key: int, amount: int) -> bool:
        slot = self._find(key)
        if slot < 0:
            return False
        self.ops.filter_hits += 1
        self._new[slot] += amount
        self._sift_down(slot)
        return True


class RelaxedHeapFilter(_HeapFilterBase):
    """Heap filter that reconstructs only when the root item is touched.

    The paper's best-performing filter for skew < 2 (and therefore the
    library default): non-root hits pay nothing for heap maintenance, so
    interior heap violations accumulate freely.  Whenever the *root* —
    the tracked minimum — is hit or replaced, the heap is reconstructed
    bottom-up (O(|F|), still far cheaper than the strict filter's per-hit
    sifting because hits on the minimum item are rare by definition).

    Reconstruction at every root-touching event keeps the invariant the
    exchange policy needs — the root is the exact minimum ``new_count``:
    between reconstructions non-root counts only grow, so nothing can
    undercut the root.  A lazier variant that merely sifts the root down
    can drift arbitrarily far from the true minimum (the sift consults
    stale interior values), which starves the exchange policy and
    destroys top-k precision; the regression test
    ``test_root_is_exact_min`` pins the sound behaviour.
    """

    def add_if_present(self, key: int, amount: int) -> bool:
        slot = self._find(key)
        if slot < 0:
            return False
        self.ops.filter_hits += 1
        self._new[slot] += amount
        self._valid = False
        if slot == 0:
            self._heapify()
        return True

    def replace_min(
        self, key: int, new_count: int, old_count: int
    ) -> FilterEntry:
        evicted = super().replace_min(key, new_count, old_count)
        # The sift-down performed by the base implementation consulted
        # possibly-stale interior values; rebuild to restore exact-min.
        # On a heap with no interior violations that sift-down already
        # left a valid heap, and the rebuild is skipped.
        self._heapify()
        return evicted
