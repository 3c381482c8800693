"""Vector-filter-specific tests, including SIMD-path equivalence."""

from __future__ import annotations

import numpy as np

from repro.core.filters.vector import VectorFilter
from repro.simd.engine import numpy_find_index, simd_find_index


class TestMinCache:
    def test_min_exact_under_increments(self, rng):
        filter_ = VectorFilter(16)
        for key in range(16):
            filter_.insert(key, int(rng.integers(1, 40)), 0)
        for _ in range(2000):
            filter_.add_if_present(int(rng.integers(0, 16)), 1)
            true_min = min(e.new_count for e in filter_.entries())
            assert filter_.min_new_count() == true_min

    def test_min_exact_after_replace(self, rng):
        filter_ = VectorFilter(8)
        for key in range(8):
            filter_.insert(key, key + 1, 0)
        filter_.replace_min(100, 50, 50)
        true_min = min(e.new_count for e in filter_.entries())
        assert filter_.min_new_count() == true_min

    def test_min_scan_cost_charged(self):
        filter_ = VectorFilter(32)
        filter_.insert(1, 1, 0)
        before = filter_.ops.min_scans
        filter_.min_new_count()
        assert filter_.ops.min_scans == before + 32


class TestSimdEquivalence:
    def test_id_array_searchable_by_faithful_kernel(self, rng):
        """The faithful Algorithm 3 kernel locates real filter state:
        it scans the live prefix of raw keys, key 0 included."""
        filter_ = VectorFilter(32)
        keys = np.append(rng.choice(np.arange(1, 10_000), 19, replace=False), 0)
        for key in keys.tolist():
            filter_.insert(int(key), 1, 0)
        assert len(filter_.id_array) == len(filter_) == 20
        ids32 = filter_.id_array.astype(np.int32)
        for key in keys.tolist():
            simd_result = simd_find_index(ids32, int(key))
            numpy_result = numpy_find_index(filter_.id_array, int(key))
            assert simd_result == numpy_result >= 0

    def test_faithful_kernel_misses_absent_keys(self, rng):
        filter_ = VectorFilter(16)
        for key in range(1, 11):
            filter_.insert(key, 1, 0)
        ids32 = filter_.id_array.astype(np.int32)
        # 0 matches only the tail block's padding, past the live prefix.
        assert simd_find_index(ids32, 0) == -1
        assert simd_find_index(ids32, 999) == -1


class TestSlotReuse:
    def test_replace_reuses_slot(self):
        filter_ = VectorFilter(2)
        filter_.insert(1, 5, 0)
        filter_.insert(2, 9, 0)
        filter_.replace_min(3, 11, 11)
        assert filter_.get_counts(3) == (11, 11)
        assert filter_.get_counts(1) is None
        assert len(filter_) == 2
        occupied = int((filter_.id_array != 0).sum())
        assert occupied == 2
