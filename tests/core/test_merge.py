"""Tests for Count-Min and ASketch merging (distributed aggregation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.counters.exact import ExactCounter
from repro.errors import ConfigurationError
from repro.sketches.base import FrequencySketch
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.streams.zipf import zipf_stream


@pytest.fixture()
def two_streams():
    return (
        zipf_stream(30_000, 8_000, 1.4, seed=81),
        zipf_stream(30_000, 8_000, 1.4, seed=82),
    )


class TestCountMinMerge:
    def test_merge_equals_single_sketch_over_both_streams(self, two_streams):
        first, second = two_streams
        left = CountMinSketch(8, total_bytes=32 * 1024, seed=9)
        right = CountMinSketch(8, total_bytes=32 * 1024, seed=9)
        combined = CountMinSketch(8, total_bytes=32 * 1024, seed=9)
        left.update_batch(first.keys)
        right.update_batch(second.keys)
        combined.update_batch(first.keys)
        combined.update_batch(second.keys)
        left.merge(right)
        np.testing.assert_array_equal(left.table, combined.table)

    def test_mergeable_checks_dimensions(self):
        a = CountMinSketch(8, row_width=512, seed=1)
        b = CountMinSketch(8, row_width=256, seed=1)
        assert not a.is_mergeable_with(b)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_mergeable_checks_seeds(self):
        a = CountMinSketch(8, row_width=512, seed=1)
        b = CountMinSketch(8, row_width=512, seed=2)
        assert not a.is_mergeable_with(b)

    def test_not_mergeable_with_other_types(self):
        a = CountMinSketch(8, row_width=512, seed=1)
        assert not a.is_mergeable_with(CountSketch(8, row_width=512, seed=1))


class TestASketchMerge:
    def test_one_sided_after_merge(self, two_streams):
        first, second = two_streams
        left = ASketch(total_bytes=32 * 1024, filter_items=16, seed=3)
        right = ASketch(total_bytes=32 * 1024, filter_items=16, seed=3)
        left.process_stream(first.keys)
        right.process_stream(second.keys)
        left.merge(right)

        truth = ExactCounter()
        truth.update_batch(first.keys)
        truth.update_batch(second.keys)
        for key, count in truth.items():
            assert left.query(key) >= count

    def test_total_mass_accumulates(self, two_streams):
        first, second = two_streams
        left = ASketch(total_bytes=32 * 1024, filter_items=16, seed=3)
        right = ASketch(total_bytes=32 * 1024, filter_items=16, seed=3)
        left.process_stream(first.keys)
        right.process_stream(second.keys)
        left.merge(right)
        assert left.total_mass == len(first) + len(second)

    def test_merged_heavy_hitters_near_exact(self, two_streams):
        first, second = two_streams
        left = ASketch(total_bytes=64 * 1024, filter_items=32, seed=4)
        right = ASketch(total_bytes=64 * 1024, filter_items=32, seed=4)
        left.process_stream(first.keys)
        right.process_stream(second.keys)
        left.merge(right)

        truth = ExactCounter()
        truth.update_batch(first.keys)
        truth.update_batch(second.keys)
        key, count = truth.top_k(1)[0]
        estimate = left.query(key)
        assert count <= estimate <= count * 1.05 + 20

    def test_merge_conserves_mass(self, two_streams):
        """Filter resident mass + sketch mass equals both streams."""
        first, second = two_streams
        left = ASketch(total_bytes=32 * 1024, filter_items=16, seed=5)
        right = ASketch(total_bytes=32 * 1024, filter_items=16, seed=5)
        left.process_stream(first.keys)
        right.process_stream(second.keys)
        left.merge(right)
        resident = sum(e.resident_count for e in left.filter.entries())
        sketch_mass = left.sketch.total_count()
        assert resident + sketch_mass == len(first) + len(second)

    def test_incompatible_sketches_rejected(self):
        left = ASketch(total_bytes=32 * 1024, seed=1)
        right = ASketch(total_bytes=32 * 1024, seed=2)
        with pytest.raises(ConfigurationError):
            left.merge(right)

    def test_count_sketch_backend_merges(self, two_streams):
        """Count Sketch gained merge support; mass flows into one synopsis."""
        first, second = two_streams
        left = ASketch(
            total_bytes=32 * 1024, sketch_backend="count-sketch", seed=1
        )
        right = ASketch(
            total_bytes=32 * 1024, sketch_backend="count-sketch", seed=1
        )
        left.process_stream(first.keys)
        right.process_stream(second.keys)
        left.merge(right)
        assert left.total_mass == len(first) + len(second)

    def test_merge_less_backend_rejected(self):
        class OpaqueSketch(FrequencySketch):
            size_bytes = 0

            def update(self, key, amount=1):
                return 0

            def estimate(self, key):
                return 0

        left = ASketch(sketch=OpaqueSketch(), filter_items=8)
        right = ASketch(sketch=OpaqueSketch(), filter_items=8)
        with pytest.raises(ConfigurationError):
            left.merge(right)

    def test_merge_empty_other(self):
        left = ASketch(total_bytes=32 * 1024, seed=1)
        right = ASketch(total_bytes=32 * 1024, seed=1)
        left.process_stream(np.arange(100, dtype=np.int64))
        left.merge(right)
        assert left.total_mass == 100
