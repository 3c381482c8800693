"""Tests for the SPMD kernel group (§6.3 semantics) and heavy hitters."""

from __future__ import annotations

import pytest

from repro.core.asketch import ASketch
from repro.core.kernel_group import KernelGroup
from repro.errors import ConfigurationError
from repro.streams.zipf import zipf_stream

@pytest.fixture(scope="module")
def streams():
    """Four independent streams, as in the paper's multi-stream setup."""
    return [
        zipf_stream(20_000, 5_000, 1.5, seed=70 + index)
        for index in range(4)
    ]


class TestConstruction:
    def test_zero_kernels_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelGroup(0, total_bytes=64 * 1024)

    def test_kernels_get_distinct_seeds(self):
        group = KernelGroup(3, total_bytes=64 * 1024, seed=1)
        tables = [kernel.sketch.hash_columns(12345) for kernel in group.kernels]
        assert tables[0] != tables[1] or tables[1] != tables[2]

    def test_len(self):
        assert len(KernelGroup(5, total_bytes=64 * 1024)) == 5


class TestMergedQueries:
    def test_sum_semantics_one_sided(self, streams):
        group = KernelGroup(4, total_bytes=64 * 1024, seed=2)
        total_truth: dict[int, int] = {}
        for index, stream in enumerate(streams):
            group.process_stream_on(index, stream.keys)
            for key, count in stream.exact.items():
                total_truth[key] = total_truth.get(key, 0) + count
        # Merged estimates over-estimate the merged truth.
        probe = list(total_truth)[:500]
        for key in probe:
            assert group.query(key) >= total_truth[key]

    def test_heavy_item_near_exact(self, streams):
        group = KernelGroup(4, total_bytes=64 * 1024, seed=2)
        total_truth: dict[int, int] = {}
        for index, stream in enumerate(streams):
            group.process_stream_on(index, stream.keys)
            for key, count in stream.exact.items():
                total_truth[key] = total_truth.get(key, 0) + count
        top_key = max(total_truth, key=total_truth.get)
        merged = group.query(top_key)
        assert merged >= total_truth[top_key]
        assert merged <= total_truth[top_key] * 1.02 + 8

    def test_query_batch(self, streams):
        group = KernelGroup(2, total_bytes=64 * 1024, seed=3)
        group.process_stream_on(0, streams[0].keys)
        group.process_stream_on(1, streams[1].keys)
        probe = streams[0].keys[:20]
        assert group.query_batch(probe).tolist() == [
            group.query(int(k)) for k in probe
        ]


class TestScatterAndTopK:
    def test_scatter_covers_stream(self, streams):
        group = KernelGroup(4, total_bytes=64 * 1024, seed=4)
        group.scatter_stream(streams[0].keys)
        assert group.total_mass == len(streams[0])

    def test_merged_topk_recovers_global_heavies(self, streams):
        group = KernelGroup(4, total_bytes=64 * 1024, seed=5)
        group.scatter_stream(streams[0].keys)
        reported = {key for key, _ in group.top_k(10)}
        truth = {key for key, _ in streams[0].true_top_k(10)}
        assert len(reported & truth) >= 8

    def test_combined_ops_sum(self, streams):
        group = KernelGroup(2, total_bytes=64 * 1024, seed=6)
        group.scatter_stream(streams[0].keys[:10_000])
        assert group.combined_ops().items == 10_000


class TestHeavyHitters:
    def test_threshold_query(self, skewed_stream):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=7)
        asketch.process_stream(skewed_stream.keys)
        threshold = int(0.01 * len(skewed_stream))
        reported = asketch.heavy_hitters(threshold)
        true_heavies = {
            key
            for key, count in skewed_stream.exact.items()
            if count >= threshold
        }
        reported_keys = {key for key, _ in reported}
        # Complete recall of true heavy hitters...
        assert true_heavies <= reported_keys
        # ...and every reported estimate clears the threshold.
        assert all(estimate >= threshold for _, estimate in reported)
        # Sorted descending.
        estimates = [estimate for _, estimate in reported]
        assert estimates == sorted(estimates, reverse=True)

    def test_invalid_threshold(self):
        asketch = ASketch(total_bytes=64 * 1024)
        with pytest.raises(ConfigurationError):
            asketch.heavy_hitters(0)
