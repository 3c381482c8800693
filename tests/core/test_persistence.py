"""Tests for synopsis persistence (checkpoint / restore)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.errors import StreamFormatError
from repro.persistence import load_synopsis, save_synopsis
from repro.sketches.base import FrequencySketch
from repro.sketches.count_min import CountMinSketch
from repro.streams.zipf import zipf_stream


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(30_000, 8_000, 1.4, seed=95)


class TestCountMinRoundtrip:
    def test_state_identical(self, stream, tmp_path):
        sketch = CountMinSketch(8, total_bytes=32 * 1024, seed=4)
        sketch.update_batch(stream.keys)
        path = tmp_path / "cms.npz"
        save_synopsis(sketch, path)
        restored = load_synopsis(path, expect_kind="count-min")
        np.testing.assert_array_equal(restored.table, sketch.table)
        assert restored.num_hashes == sketch.num_hashes
        assert restored.row_width == sketch.row_width

    def test_future_behaviour_identical(self, stream, tmp_path):
        """After restore, further updates land in the same cells."""
        sketch = CountMinSketch(4, row_width=512, seed=5)
        sketch.update_batch(stream.keys[:1000])
        path = tmp_path / "cms.npz"
        save_synopsis(sketch, path)
        restored = load_synopsis(path, expect_kind="count-min")
        for key in stream.keys[1000:2000].tolist():
            sketch.update(key)
            restored.update(key)
        np.testing.assert_array_equal(restored.table, sketch.table)
        probe = stream.keys[:50]
        assert restored.estimate_batch(probe) == sketch.estimate_batch(probe)

    def test_conservative_flag_survives(self, tmp_path):
        sketch = CountMinSketch(4, row_width=64, seed=1, conservative=True)
        path = tmp_path / "cms.npz"
        save_synopsis(sketch, path)
        assert load_synopsis(path, expect_kind="count-min").conservative


class TestASketchRoundtrip:
    def test_queries_identical(self, stream, tmp_path):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=16, seed=6)
        asketch.process_stream(stream.keys)
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        restored = load_synopsis(path, expect_kind="asketch")
        probe = stream.keys[:300]
        assert restored.query_batch(probe) == asketch.query_batch(probe)
        assert restored.top_k(16) == asketch.top_k(16)

    def test_statistics_survive(self, stream, tmp_path):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=16, seed=6)
        asketch.process_stream(stream.keys)
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        restored = load_synopsis(path, expect_kind="asketch")
        assert restored.total_mass == asketch.total_mass
        assert restored.overflow_mass == asketch.overflow_mass
        assert restored.exchange_count == asketch.exchange_count
        assert restored.achieved_selectivity == asketch.achieved_selectivity

    def test_continues_identically(self, stream, tmp_path):
        asketch = ASketch(total_bytes=64 * 1024, filter_items=16, seed=7)
        asketch.process_stream(stream.keys[:15_000])
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        restored = load_synopsis(path, expect_kind="asketch")
        asketch.process_stream(stream.keys[15_000:])
        restored.process_stream(stream.keys[15_000:])
        probe = stream.keys[:300]
        assert restored.query_batch(probe) == asketch.query_batch(probe)
        assert restored.exchange_count == asketch.exchange_count

    @pytest.mark.parametrize(
        "kind", ["vector", "strict-heap", "relaxed-heap", "stream-summary"]
    )
    def test_all_filter_kinds(self, stream, tmp_path, kind):
        asketch = ASketch(
            total_bytes=32 * 1024, filter_items=8, filter_kind=kind, seed=8
        )
        asketch.process_stream(stream.keys[:5000])
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        restored = load_synopsis(path, expect_kind="asketch")
        assert restored.filter_kind == kind
        assert {
            (e.key, e.new_count, e.old_count)
            for e in restored.filter.entries()
        } == {
            (e.key, e.new_count, e.old_count)
            for e in asketch.filter.entries()
        }

    @pytest.mark.parametrize("backend", ["count-sketch", "fcm"])
    def test_non_count_min_backends_roundtrip(
        self, stream, tmp_path, backend
    ):
        """Every state-protocol backend is persistable, not just Count-Min."""
        asketch = ASketch(
            total_bytes=32 * 1024, filter_items=8,
            sketch_backend=backend, seed=3,
        )
        asketch.process_stream(stream.keys[:5000])
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        restored = load_synopsis(path, expect_kind="asketch")
        assert type(restored.sketch) is type(asketch.sketch)
        probe = stream.keys[:200]
        assert restored.query_batch(probe) == asketch.query_batch(probe)

    def test_backend_without_state_protocol_rejected(self, tmp_path):
        class OpaqueSketch(FrequencySketch):
            size_bytes = 0

            def update(self, key, amount=1):
                return 0

            def estimate(self, key):
                return 0

        asketch = ASketch(sketch=OpaqueSketch(), filter_items=8)
        with pytest.raises(StreamFormatError):
            save_synopsis(asketch, tmp_path / "x.npz")


class TestHierarchicalRoundtrip:
    def test_state_and_queries_identical(self, stream, tmp_path):
        from repro.sketches.hierarchical import HierarchicalCountMin

        hierarchy = HierarchicalCountMin(
            13, total_bytes=128 * 1024, num_hashes=4, seed=9
        )
        hierarchy.update_batch(stream.keys % 8192)
        path = tmp_path / "hier.npz"
        save_synopsis(hierarchy, path)
        restored = load_synopsis(path, expect_kind="hierarchical-count-min")
        assert restored.domain_bits == hierarchy.domain_bits
        assert restored.total == hierarchy.total
        for low, high in [(0, 8191), (100, 200), (4000, 8000)]:
            assert restored.range_count(low, high) == (
                hierarchy.range_count(low, high)
            )
        assert restored.top_k(10) == hierarchy.top_k(10)

    def test_continues_identically(self, stream, tmp_path):
        from repro.sketches.hierarchical import HierarchicalCountMin

        hierarchy = HierarchicalCountMin(
            10, total_bytes=64 * 1024, num_hashes=4, seed=10
        )
        keys = stream.keys % 1024
        hierarchy.update_batch(keys[:10_000])
        path = tmp_path / "hier.npz"
        save_synopsis(hierarchy, path)
        restored = load_synopsis(path, expect_kind="hierarchical-count-min")
        hierarchy.update_batch(keys[10_000:20_000])
        restored.update_batch(keys[10_000:20_000])
        for key in range(0, 1024, 31):
            assert restored.estimate(key) == hierarchy.estimate(key)


def _write_archive(path, metadata: dict, **arrays) -> None:
    """Forge a raw archive to exercise the loader's error paths."""
    blob = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, metadata=blob, **arrays)


class TestErrorHandling:
    def test_kind_mismatch(self, tmp_path):
        sketch = CountMinSketch(4, row_width=64)
        path = tmp_path / "cms.npz"
        save_synopsis(sketch, path)
        with pytest.raises(StreamFormatError):
            load_synopsis(path, expect_kind="asketch")

    def test_hierarchical_kind_mismatch(self, tmp_path):
        sketch = CountMinSketch(4, row_width=64)
        path = tmp_path / "cms.npz"
        save_synopsis(sketch, path)
        with pytest.raises(StreamFormatError):
            load_synopsis(path, expect_kind="hierarchical-count-min")

    def test_save_synopsis_rejects_non_synopsis(self, tmp_path):
        with pytest.raises(StreamFormatError):
            save_synopsis(object(), tmp_path / "x.npz")

    def test_missing_metadata_entry(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez_compressed(path, table=np.zeros(4, dtype=np.int64))
        with pytest.raises(StreamFormatError, match="no metadata entry"):
            load_synopsis(path)

    def test_corrupt_metadata_blob(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        garbage = np.frombuffer(b"\xfe\xed{{{not json", dtype=np.uint8)
        np.savez_compressed(path, metadata=garbage)
        with pytest.raises(StreamFormatError, match="corrupt") as excinfo:
            load_synopsis(path)
        assert excinfo.value.__cause__ is not None

    def test_metadata_not_an_object(self, tmp_path):
        path = tmp_path / "list.npz"
        blob = np.frombuffer(b"[1, 2, 3]", dtype=np.uint8)
        np.savez_compressed(path, metadata=blob)
        with pytest.raises(StreamFormatError, match="expected a JSON object"):
            load_synopsis(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.npz"
        _write_archive(
            path, {"version": 99, "kind": "count-min", "params": {}}
        )
        with pytest.raises(StreamFormatError, match="version 99"):
            load_synopsis(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "alien.npz"
        _write_archive(
            path,
            {"version": 2, "kind": "bloom-filter", "params": {}, "extra": {}},
        )
        with pytest.raises(StreamFormatError, match="unknown synopsis kind"):
            load_synopsis(path)

    def test_non_string_kind(self, tmp_path):
        path = tmp_path / "badkind.npz"
        _write_archive(path, {"version": 2, "kind": 7, "params": {}})
        with pytest.raises(StreamFormatError, match="kind is 7"):
            load_synopsis(path)
