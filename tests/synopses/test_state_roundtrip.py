"""Every registered synopsis kind roundtrips through save/load bit-for-bit.

The acceptance bar of the synopsis-state protocol: after
``load_synopsis(save_synopsis(x))`` the restored object answers every
probe identically *and* continues identically under further ingest —
the restored internal layout (heap slots, bucket order, free lists,
pending tables) matches the original's, not just its visible counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.persistence import load_synopsis, save_synopsis
from repro.streams.zipf import zipf_stream
from repro.synopses import SynopsisSpec, build_synopsis

STREAM = zipf_stream(20_000, 5_000, 1.4, seed=33)
PROBE = STREAM.keys[:200]

#: One representative spec per registered kind (small sizes for speed).
SPECS = [
    SynopsisSpec(
        "count-min",
        {"num_hashes": 4, "row_width": 256, "seed": 7, "conservative": True},
    ),
    SynopsisSpec("count-sketch", {"num_hashes": 5, "row_width": 256, "seed": 7}),
    SynopsisSpec(
        "fcm",
        {"num_hashes": 8, "row_width": 128, "mg_capacity": 16, "seed": 7},
    ),
    SynopsisSpec(
        "holistic-udaf",
        {"table_items": 16, "total_bytes": 16 * 1024, "seed": 7},
    ),
    SynopsisSpec("space-saving", {"capacity": 24, "estimate_mode": "min"}),
    SynopsisSpec("misra-gries", {"capacity": 24}),
    SynopsisSpec(
        "asketch",
        {"total_bytes": 16 * 1024, "filter_items": 8, "seed": 7},
    ),
    SynopsisSpec(
        "sharded-asketch",
        {"shards": 3, "total_bytes": 8 * 1024, "filter_items": 8, "seed": 7},
    ),
]

SPEC_IDS = [spec.kind for spec in SPECS]


def _ingest(synopsis, keys: np.ndarray) -> None:
    process = getattr(synopsis, "process_stream", None)
    if process is not None:
        process(keys)
        return
    for key in keys.tolist():
        synopsis.update(int(key))


def _estimates(synopsis) -> list[int]:
    return [int(synopsis.estimate(int(key))) for key in PROBE]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
class TestRoundtrip:
    def test_estimates_identical(self, spec, tmp_path):
        synopsis = build_synopsis(spec)
        _ingest(synopsis, STREAM.keys)
        path = tmp_path / "synopsis.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        assert type(restored) is type(synopsis)
        assert _estimates(restored) == _estimates(synopsis)

    def test_continuation_identical(self, spec, tmp_path):
        """Further ingest lands identically: the layout was restored."""
        synopsis = build_synopsis(spec)
        _ingest(synopsis, STREAM.keys[:12_000])
        path = tmp_path / "synopsis.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        _ingest(synopsis, STREAM.keys[12_000:])
        _ingest(restored, STREAM.keys[12_000:])
        assert _estimates(restored) == _estimates(synopsis)

    def test_size_preserved(self, spec, tmp_path):
        synopsis = build_synopsis(spec)
        path = tmp_path / "synopsis.npz"
        save_synopsis(synopsis, path)
        assert load_synopsis(path).size_bytes == synopsis.size_bytes


class TestAllFilterKindsContinue:
    """ASketch restore must preserve each filter's exact internal layout."""

    @pytest.mark.parametrize(
        "kind", ["vector", "strict-heap", "relaxed-heap", "stream-summary"]
    )
    def test_filter_layout_survives(self, kind, tmp_path):
        spec = SynopsisSpec(
            "asketch",
            {"total_bytes": 8 * 1024, "filter_items": 8,
             "filter_kind": kind, "seed": 5},
        )
        asketch = build_synopsis(spec)
        _ingest(asketch, STREAM.keys[:10_000])
        path = tmp_path / "asketch.npz"
        save_synopsis(asketch, path)
        restored = load_synopsis(path)
        # Exchange-heavy continuation: eviction tie-breaks depend on the
        # physical slot/bucket order, so identical answers mean the
        # layout — not just the entry set — was restored.
        _ingest(asketch, STREAM.keys[10_000:])
        _ingest(restored, STREAM.keys[10_000:])
        np.testing.assert_array_equal(
            restored.query_batch(PROBE), asketch.query_batch(PROBE)
        )
        assert restored.exchange_count == asketch.exchange_count
        assert restored.top_k() == asketch.top_k()


class TestShardedReduce:
    def test_reduce_is_non_destructive(self):
        group = build_synopsis(SPECS[-1])
        group.process_stream(STREAM.keys)
        before = [int(v) for v in group.query_batch(PROBE)]
        reduced = group.reduce()
        assert [int(v) for v in group.query_batch(PROBE)] == before
        assert reduced.total_mass == group.total_mass

    def test_reduce_one_sided(self):
        group = build_synopsis(SPECS[-1])
        group.process_stream(STREAM.keys)
        reduced = group.reduce()
        for key, count in STREAM.exact.items():
            assert reduced.query(int(key)) >= count

    def test_reduced_checkpoint_roundtrips(self, tmp_path):
        group = build_synopsis(SPECS[-1])
        group.process_stream(STREAM.keys)
        reduced = group.reduce()
        path = tmp_path / "reduced.npz"
        save_synopsis(reduced, path)
        restored = load_synopsis(path)
        np.testing.assert_array_equal(
            restored.query_batch(PROBE), reduced.query_batch(PROBE)
        )
