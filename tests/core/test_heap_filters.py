"""Heap-filter-specific tests: invariants of strict vs relaxed variants."""

from __future__ import annotations

import pytest

from repro.core.filters.heap import RelaxedHeapFilter, StrictHeapFilter


class TestStrictHeap:
    def test_heap_property_always_holds(self, rng):
        filter_ = StrictHeapFilter(16)
        for key in range(16):
            filter_.insert(key, int(rng.integers(1, 100)), 0)
        for _ in range(2000):
            key = int(rng.integers(0, 16))
            filter_.add_if_present(key, int(rng.integers(1, 5)))
            assert filter_.heap_property_violations() == 0

    def test_root_is_global_min_always(self, rng):
        filter_ = StrictHeapFilter(16)
        for key in range(16):
            filter_.insert(key, int(rng.integers(1, 100)), 0)
        for _ in range(1000):
            filter_.add_if_present(int(rng.integers(0, 16)), 1)
            true_min = min(e.new_count for e in filter_.entries())
            assert filter_.min_new_count() == true_min


class TestRelaxedHeap:
    def test_can_accumulate_violations(self, rng):
        """Non-root hits are not fixed, so interior violations may appear."""
        filter_ = RelaxedHeapFilter(16)
        for key in range(16):
            filter_.insert(key, 10, 0)
        saw_violation = False
        for _ in range(500):
            filter_.add_if_present(int(rng.integers(1, 16)), 3)
            if filter_.heap_property_violations() > 0:
                saw_violation = True
                break
        assert saw_violation

    def test_root_is_exact_min(self, rng):
        """Regression: the root must be the exact minimum at all times.

        A lazier relaxed heap that only sifts the root down on a root
        hit drifts away from the true minimum (the sift consults stale
        interior values), which starves the exchange policy; this test
        drives the exact ASketch usage pattern and checks exactness."""
        filter_ = RelaxedHeapFilter(8)
        for key in range(8):
            filter_.insert(key, int(rng.integers(1, 20)), 0)
        fresh_key = 100_000
        for _ in range(2000):
            key = int(rng.integers(0, 30))
            if not filter_.add_if_present(key, 1):
                estimate = int(rng.integers(1, 200))
                if estimate > filter_.min_new_count():
                    fresh_key += 1
                    filter_.replace_min(fresh_key, estimate, estimate)
            true_min = min(e.new_count for e in filter_.entries())
            assert filter_.min_new_count() == true_min

    def test_rebuild_skipped_only_on_a_valid_heap(self, monkeypatch):
        """An exchange into a heap with no interior violations sifts the
        new root down once; after a non-root hit the rebuild runs."""
        filter_ = RelaxedHeapFilter(15)
        for key in range(15):
            filter_.insert(key, 10 + key, 0)
        sifts = []
        original = RelaxedHeapFilter._sift_down

        def counting(self, position):
            sifts.append(position)
            original(self, position)

        monkeypatch.setattr(RelaxedHeapFilter, "_sift_down", counting)
        levels = filter_.ops.heap_fixup_levels
        filter_.replace_min(100, 11, 11)
        assert sifts == [0]
        # The skipped rebuild charges the level each of its 7 interior
        # sift-downs would have charged.
        assert filter_.ops.heap_fixup_levels - levels == 1 + 7
        sifts.clear()
        assert filter_.add_if_present(3, 50)
        filter_.replace_min(101, 12, 12)
        assert sifts == [0, 6, 5, 4, 3, 2, 1, 0]

    def test_cheaper_maintenance_than_strict(self, rng):
        """Relaxed performs strictly fewer heap fix-up levels (Fig. 14)."""
        hits = [int(rng.integers(0, 16)) for _ in range(5000)]
        strict = StrictHeapFilter(16)
        relaxed = RelaxedHeapFilter(16)
        for filter_ in (strict, relaxed):
            for key in range(16):
                filter_.insert(key, 1, 0)
            for key in hits:
                filter_.add_if_present(key, 1)
        assert (
            relaxed.ops.heap_fixup_levels < strict.ops.heap_fixup_levels
        )


class TestBothHeaps:
    @pytest.mark.parametrize("cls", [StrictHeapFilter, RelaxedHeapFilter])
    def test_set_counts_reheapifies(self, cls):
        filter_ = cls(8)
        for key in range(8):
            filter_.insert(key, key + 10, 0)
        filter_.set_counts(7, 1, 0)  # was the largest, now the smallest
        assert filter_.heap_property_violations() == 0
        assert filter_.min_new_count() == 1

    @pytest.mark.parametrize("cls", [StrictHeapFilter, RelaxedHeapFilter])
    def test_index_consistent_after_swaps(self, cls, rng):
        filter_ = cls(16)
        for key in range(16):
            filter_.insert(key, int(rng.integers(1, 50)), 0)
        for _ in range(500):
            filter_.add_if_present(int(rng.integers(0, 16)), 2)
        # Every key must still be reachable with its own counts.
        for entry in filter_.entries():
            assert filter_.get_counts(entry.key) == (
                entry.new_count,
                entry.old_count,
            )

    @pytest.mark.parametrize("cls", [StrictHeapFilter, RelaxedHeapFilter])
    def test_id_array_matches_entries(self, cls):
        filter_ = cls(8)
        for key in [5, 9, 13]:
            filter_.insert(key, key, 0)
        assert filter_.id_array.tolist() == [e.key for e in filter_.entries()]
        assert set(filter_.id_array.tolist()) == {5, 9, 13}
