"""Tests for synopsis persistence (checkpoint / restore)."""

from __future__ import annotations

import io
import json
import zipfile

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
        np.testing.assert_array_equal(
            restored.estimate_batch(probe), sketch.estimate_batch(probe)
        )

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
        np.testing.assert_array_equal(
            restored.query_batch(probe), asketch.query_batch(probe)
        )
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
        np.testing.assert_array_equal(
            restored.query_batch(probe), asketch.query_batch(probe)
        )
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
        np.testing.assert_array_equal(
            restored.query_batch(probe), asketch.query_batch(probe)
        )

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


class TestArchiveFormat:
    def test_every_member_is_stored(self, stream, tmp_path):
        asketch = ASketch(total_bytes=16 * 1024, filter_items=16, seed=3)
        asketch.process_batch(stream.keys)
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert {info.filename for info in members} >= {
            "metadata.npy", "array.sketch.table.npy"
        }
        for info in members:
            assert info.compress_type == zipfile.ZIP_STORED, info.filename

    def test_returns_the_bytes_written(self, stream, tmp_path):
        sketch = CountMinSketch(4, row_width=256, seed=2)
        sketch.update_batch(stream.keys[:500])
        path = tmp_path / "cms.npz"
        blob = save_synopsis(sketch, path)
        assert blob == path.read_bytes()
        restored = load_synopsis(io.BytesIO(blob), expect_kind="count-min")
        assert restored.state().equals(sketch.state())


def _write_archive(path, metadata: dict, **arrays) -> None:
    """Forge a raw archive to exercise the loader's error paths."""
    blob = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, metadata=blob, **arrays)


class TestErrorHandling:
    def test_corrupt_stored_archive(self, stream, tmp_path):
        """A flipped run of bytes fails the member CRC-32, typed."""
        from repro.runtime.reliability import corrupt_file

        asketch = ASketch(total_bytes=16 * 1024, filter_items=16, seed=3)
        asketch.process_batch(stream.keys)
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        corrupt_file(path, seed=4)
        with pytest.raises(StreamFormatError, match="corrupt") as excinfo:
            load_synopsis(path)
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, zipfile.BadZipFile)

    @pytest.mark.parametrize("cut", [0, 100])
    def test_truncated_archive(self, tmp_path, cut):
        path = tmp_path / "cms.npz"
        save_synopsis(CountMinSketch(4, row_width=64), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(StreamFormatError, match="corrupt"):
            load_synopsis(path)

    def test_bare_npy_is_not_an_archive(self, tmp_path):
        path = tmp_path / "table.npy"
        np.save(path, np.zeros(4, dtype=np.int64))
        with pytest.raises(StreamFormatError, match="not a synopsis archive"):
            load_synopsis(path)

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

    def test_unknown_back_stage_kind(self, tmp_path):
        """An ASketch archive whose back stage names a kind that is not
        registered fails typed, as an unknown top-level kind does."""
        path = tmp_path / "old.npz"
        state = ASketch(total_bytes=4 * 1024, filter_items=4).state()
        _write_archive(
            path,
            {"version": 2, "kind": "asketch", "params": state.params,
             "extra": {**state.extra,
                       "sketch": {**state.extra["sketch"], "kind": "salsa-cm"}}},
            **{f"array.{name}": array for name, array in state.arrays.items()},
        )
        with pytest.raises(StreamFormatError, match="unknown synopsis kind"):
            load_synopsis(path)

    def test_non_string_kind(self, tmp_path):
        path = tmp_path / "badkind.npz"
        _write_archive(path, {"version": 2, "kind": 7, "params": {}})
        with pytest.raises(StreamFormatError, match="kind is 7"):
            load_synopsis(path)
