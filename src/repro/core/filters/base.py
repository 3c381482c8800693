"""The filter interface ASketch programs against.

A filter monitors up to ``capacity`` items.  Each monitored item carries
two counts (paper §5):

* ``new_count`` — the item's estimated total frequency (an over-estimate
  once the item has ever been through the sketch, exact otherwise);
* ``old_count`` — the estimate the item carried when it last *entered*
  the filter; ``new_count - old_count`` is therefore the exact mass
  accumulated while resident, and is the only part hashed back into the
  sketch on eviction.

Space accounting: each implementation declares ``BYTES_PER_SLOT`` — 12
bytes for the three-array layouts (key, new_count, old_count as 32-bit
values) and 100 bytes for Stream-Summary (pointers + hash entry).  For a
fixed filter byte budget this reproduces Table 6's observation that
Stream-Summary monitors 4 items where the arrays monitor 32.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.costs import OpCounters
from repro.kernels import active_backend
from repro.simd.engine import simd_probe_blocks


@dataclass(frozen=True)
class FilterEntry:
    """One monitored item as seen through :meth:`Filter.entries`."""

    key: int
    new_count: int
    old_count: int

    @property
    def resident_count(self) -> int:
        """Mass accumulated while in the filter (exact)."""
        return self.new_count - self.old_count


class Filter(ABC):
    """Bounded monitor of high-frequency items with two counts per item."""

    #: Logical bytes consumed per monitored slot (space accounting).
    BYTES_PER_SLOT: int = 12

    def __init__(self, capacity: int, ops: OpCounters | None = None) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"filter capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self.ops = ops if ops is not None else OpCounters()
        #: SIMD probe blocks one lookup over this capacity costs — the
        #: unit the bulk membership path charges per probed key.
        self._probe_blocks = simd_probe_blocks(self.capacity)

    # -- size -------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Logical filter size: ``capacity * BYTES_PER_SLOT``."""
        return self.capacity * self.BYTES_PER_SLOT

    @classmethod
    def capacity_for_bytes(cls, budget_bytes: int) -> int:
        """Monitored items affordable within a byte budget."""
        capacity = budget_bytes // cls.BYTES_PER_SLOT
        if capacity < 1:
            raise ConfigurationError(
                f"{budget_bytes} bytes cannot hold one "
                f"{cls.BYTES_PER_SLOT}-byte slot"
            )
        return capacity

    # -- required operations ----------------------------------------------

    @abstractmethod
    def __len__(self) -> int:
        """Number of currently monitored items."""

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    @abstractmethod
    def add_if_present(self, key: int, amount: int) -> bool:
        """If ``key`` is monitored, add ``amount`` to its new_count.

        Returns True on a hit.  This is Algorithm 1 lines 1-3 and the
        filter's hot path; implementations charge their lookup cost
        (SIMD probe blocks or hash-table ops) here.
        """

    @abstractmethod
    def insert(self, key: int, new_count: int, old_count: int) -> None:
        """Start monitoring a new key (the filter must not be full).

        Raises :class:`CapacityError` if full or the key is already
        present — the ASketch update path guards both.
        """

    @abstractmethod
    def get_counts(self, key: int) -> tuple[int, int] | None:
        """(new_count, old_count) of a monitored key, else None."""

    @abstractmethod
    def min_new_count(self) -> int:
        """new_count of the minimum item (Algorithm 1 line 9).

        All four implementations track the exact minimum; they differ
        only in what the tracking costs (a cached scan for Vector, the
        heap root for the heaps, the first bucket for Stream-Summary).
        """

    @abstractmethod
    def replace_min(
        self, key: int, new_count: int, old_count: int
    ) -> FilterEntry:
        """Evict the tracked minimum item and monitor ``key`` instead.

        Returns the evicted entry (whose ``resident_count`` the caller
        hashes into the sketch).  This is the exchange of Algorithm 1
        lines 10-16.
        """

    @abstractmethod
    def set_counts(self, key: int, new_count: int, old_count: int) -> None:
        """Overwrite both counts of a monitored key (deletion support).

        Counts may *decrease* here; heap implementations restore their
        invariants accordingly.
        """

    @abstractmethod
    def entries(self) -> list[FilterEntry]:
        """All monitored entries (order unspecified)."""

    # -- shared conveniences ------------------------------------------------

    def get_new_count(self, key: int) -> int | None:
        """new_count of a monitored key, else None (Algorithm 2 path)."""
        counts = self.get_counts(key)
        return None if counts is None else counts[0]

    def peek_min_new_count(self) -> int:
        """:meth:`min_new_count` without charging its operation cost.

        The batched exchange pre-check reads the minimum once to skip
        keys that cannot trigger an exchange, then charges the skipped
        per-key min queries in bulk via :meth:`charge_min_queries` —
        keeping the operation record identical to the scalar loop.  The
        default delegates to :meth:`min_new_count`, which is correct
        for implementations whose min read is free in the op record;
        implementations that charge per query override this.
        """
        return self.min_new_count()

    def charge_min_queries(self, queries: int) -> None:
        """Charge the op cost of ``queries`` skipped min-count reads.

        Companion of :meth:`peek_min_new_count`: the bulk exchange
        pre-check calls this once with the number of per-key
        :meth:`min_new_count` calls it elided, so op totals match the
        scalar path exactly.  Default: no cost (heap root reads and
        Stream-Summary bucket reads are free in the op record).
        """

    # -- state capture (synopsis protocol) ----------------------------------
    #
    # Every filter kind persists through the same two methods, built on
    # ``entries()``: the monitored set plus both counts is the complete
    # logical state, and re-inserting in entries() order rebuilds each
    # implementation's internal layout (array slots, heap shape, bucket
    # order) the same way a restart-time replay would.

    def state_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, new_counts, old_counts) arrays in :meth:`entries` order."""
        entries = self.entries()
        keys = np.array([e.key for e in entries], dtype=np.int64)
        new_counts = np.array([e.new_count for e in entries], dtype=np.int64)
        old_counts = np.array([e.old_count for e in entries], dtype=np.int64)
        return keys, new_counts, old_counts

    def restore_entries(
        self,
        keys: np.ndarray,
        new_counts: np.ndarray,
        old_counts: np.ndarray,
    ) -> None:
        """Re-monitor saved entries in order (the filter must be empty)."""
        if len(self):
            raise CapacityError("restore_entries on a non-empty filter")
        for key, new_count, old_count in zip(
            np.asarray(keys).tolist(),
            np.asarray(new_counts).tolist(),
            np.asarray(old_counts).tolist(),
        ):
            self.insert(int(key), int(new_count), int(old_count))

    # -- bulk operations (batched ingest/query path) -----------------------
    #
    # The defaults loop the scalar operations; :class:`ArrayFilter`
    # replaces them with one kernel probe.  Either way the semantics and
    # the operation record match the scalar loop exactly.

    def add_many_if_present(
        self, keys: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """Bulk :meth:`add_if_present`; returns the boolean hit mask.

        ``keys[i]`` receives ``amounts[i]`` if monitored.  Callers pass
        pre-aggregated (distinct key, chunk total) pairs, so one entry
        here stands for a whole chunk's worth of scalar hits.
        """
        keys = np.asarray(keys, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=np.int64)
        hits = np.empty(keys.shape[0], dtype=bool)
        for position, (key, amount) in enumerate(
            zip(keys.tolist(), amounts.tolist())
        ):
            hits[position] = self.add_if_present(key, amount)
        return hits

    def lookup_many(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk :meth:`get_new_count`: ``(hit_mask, new_counts)``.

        ``new_counts[i]`` is only meaningful where ``hit_mask[i]`` is
        True; misses are left as 0.  Keys need not be distinct.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        mask = np.zeros(n, dtype=bool)
        counts = np.zeros(n, dtype=np.int64)
        for position, key in enumerate(keys.tolist()):
            new_count = self.get_new_count(key)
            if new_count is not None:
                mask[position] = True
                counts[position] = new_count
        return mask, counts

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """The k highest (key, new_count) pairs, descending new_count."""
        ordered = sorted(
            self.entries(), key=lambda e: e.new_count, reverse=True
        )
        return [(entry.key, entry.new_count) for entry in ordered[:k]]

    def _require_not_full(self) -> None:
        if self.is_full:
            raise CapacityError(
                "insert on a full filter; use replace_min instead"
            )


class ArrayFilter(Filter):
    """The three slot-aligned arrays of Algorithm 3: keys, new, old.

    Slot ``i`` holds a raw int64 key in ``_keys[i]`` and its counts in
    ``_new[i]`` / ``_old[i]``; ``_index`` maps each key to its slot for
    the Python-speed lookup the op record prices as a SIMD scan.  No
    slot is ever freed (``replace_min`` reuses the evicted slot and
    :meth:`restore_entries` needs an empty filter), so the live slots
    are always the prefix ``[0, size)`` and every int64 key, ``-1`` and
    the int64 extremes included, is a storable key.  The bulk paths
    probe that prefix with the active backend's membership kernel.
    """

    def __init__(self, capacity: int, ops: OpCounters | None = None) -> None:
        super().__init__(capacity, ops)
        self._keys = np.zeros(self.capacity, dtype=np.int64)
        self._new = [0] * self.capacity
        self._old = [0] * self.capacity
        self._index: dict[int, int] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def id_array(self) -> np.ndarray:
        """Keys of the live slots, read-only, in slot order."""
        view = self._keys[: self._size]
        view.setflags(write=False)
        return view

    def slot_new_counts(self) -> np.ndarray:
        """``new_count`` of every live slot, aligned with :attr:`id_array`."""
        return np.array(self._new[: self._size], dtype=np.int64)

    def add_many_if_present(
        self, keys: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """One kernel probe resolves membership; only the hits re-enter
        :meth:`add_if_present` (misses, the overwhelming majority on a
        skewed stream, never touch the interpreter loop), so the op
        record is charged exactly as the scalar loop charges it."""
        keys = np.asarray(keys, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=np.int64)
        slots = active_backend().membership_probe(
            self._keys[: self._size], keys
        )
        mask = slots >= 0
        hit_positions = np.flatnonzero(mask)
        misses = keys.shape[0] - hit_positions.shape[0]
        self.ops.filter_probes += misses
        self.ops.filter_probe_blocks += misses * self._probe_blocks
        for position in hit_positions.tolist():
            # Re-apply through the scalar hit path: heap slots move as
            # hits sift, so precomputed slots cannot be written blindly.
            self.add_if_present(int(keys[position]), int(amounts[position]))
        return mask

    def lookup_many(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One kernel probe, then one gather of :meth:`slot_new_counts`
        at the probed slots; the ``n`` lookups are charged in bulk,
        exactly as ``n`` scalar :meth:`get_new_count` calls charge them."""
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        self.ops.filter_probes += n
        self.ops.filter_probe_blocks += n * self._probe_blocks
        slots = active_backend().membership_probe(
            self._keys[: self._size], keys
        )
        # A miss's slot, -1, reads the 0 appended past the last slot.
        counts = np.append(self.slot_new_counts(), 0)[slots]
        return slots >= 0, counts
