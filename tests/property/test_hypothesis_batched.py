"""Property-based tests: batched ingest vs the scalar reference path."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asketch import ASketch
from repro.sketches.count_min import CountMinSketch

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=200), min_size=1, max_size=400
)
filter_kinds = st.sampled_from(
    ["vector", "strict-heap", "relaxed-heap", "stream-summary"]
)
seeds = st.integers(min_value=0, max_value=30)
chunk_sizes = st.integers(min_value=1, max_value=64)


def build(seed: int, kind: str, filter_items: int = 4) -> ASketch:
    sketch = CountMinSketch(num_hashes=3, row_width=19, seed=seed)
    return ASketch(sketch=sketch, filter_items=filter_items, filter_kind=kind)


def full_state(asketch: ASketch):
    return (
        {
            entry.key: (entry.new_count, entry.old_count)
            for entry in asketch.filter.entries()
        },
        asketch.sketch.table.tolist(),
        asketch.total_mass,
        asketch.overflow_mass,
        asketch.miss_events,
        asketch.exchange_count,
    )


class TestBatchedEquivalence:
    @given(keys=keys_strategy, kind=filter_kinds, seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_single_tuple_chunks_replicate_scalar(self, keys, kind, seed):
        """process_batch ≡ process_stream on random unit streams when
        chunks cannot reorder exchanges (one tuple per chunk): identical
        filter, sketch cells, bookkeeping and estimates."""
        stream = np.array(keys, dtype=np.int64)
        scalar = build(seed, kind)
        batched = build(seed, kind)
        scalar.process_stream(stream)
        for index in range(stream.shape[0]):
            batched.process_batch(stream[index : index + 1])
        assert full_state(scalar) == full_state(batched)
        probes = sorted(set(keys))
        np.testing.assert_array_equal(
            scalar.query_batch(probes), batched.query_batch(probes)
        )

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=400
        ),
        kind=filter_kinds,
        seed=seeds,
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=50, deadline=None)
    def test_any_chunking_identical_without_overflow(
        self, keys, kind, seed, chunk_size
    ):
        """With at most |F| distinct keys the sketch is never touched, so
        every chunking must produce the identical end state."""
        stream = np.array(keys, dtype=np.int64)
        scalar = build(seed, kind)
        batched = build(seed, kind)
        scalar.process_stream(stream)
        for start in range(0, stream.shape[0], chunk_size):
            batched.process_batch(stream[start : start + chunk_size])
        assert batched.miss_events == 0
        assert full_state(scalar) == full_state(batched)

    @given(
        keys=keys_strategy, kind=filter_kinds, seed=seeds,
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=50, deadline=None)
    def test_chunked_ingest_stays_one_sided(
        self, keys, kind, seed, chunk_size
    ):
        """The paper's central invariant survives any chunk size, even
        when chunking reorders exchanges relative to the scalar run."""
        stream = np.array(keys, dtype=np.int64)
        asketch = build(seed, kind)
        for start in range(0, stream.shape[0], chunk_size):
            asketch.process_batch(stream[start : start + chunk_size])
        truth = Counter(keys)
        for key, count in truth.items():
            assert asketch.query(key) >= count
        # Mass conservation: resident + hashed mass covers the stream.
        resident = sum(
            entry.resident_count for entry in asketch.filter.entries()
        )
        assert resident + int(asketch.sketch.table[0].sum()) == len(keys)

    @given(keys=keys_strategy, kind=filter_kinds, seed=seeds,
           chunk_size=chunk_sizes)
    @settings(max_examples=40, deadline=None)
    def test_query_batch_matches_scalar_queries(
        self, keys, kind, seed, chunk_size
    ):
        stream = np.array(keys, dtype=np.int64)
        asketch = build(seed, kind)
        for start in range(0, stream.shape[0], chunk_size):
            asketch.process_batch(stream[start : start + chunk_size])
        probes = sorted(set(keys)) + [999]
        assert asketch.query_batch(probes).tolist() == [
            asketch.query(key) for key in probes
        ]
