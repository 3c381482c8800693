"""Equivalence tests for the vectorised batched ingest path.

``ASketch.process_batch`` is specified as a *chunk-granularity
reordering* of the scalar Algorithm 1 loop:

* with single-tuple chunks it must be bit-for-bit identical to
  ``process_stream`` — filter contents, sketch cells, bookkeeping,
  estimates — including full-filter exchange cascades;
* with larger chunks it must stay identical whenever no tuple overflows
  past a full filter (the chunk's misses fit in free slots), because
  then no exchange can be reordered;
* in the general case only exchange *timing* may differ, so the
  one-sided guarantee, mass conservation and the Lemma-1 style bound
  must hold for every chunking.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.core.filters import make_filter
from repro.errors import ConfigurationError, NegativeCountError
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch

FILTER_KINDS = ["vector", "strict-heap", "relaxed-heap", "stream-summary"]


def build_pair(kind: str, backend: str = "count-min", filter_items: int = 4):
    """Two identically-seeded ASketches (scalar vs batched driver)."""

    def one() -> ASketch:
        if backend == "count-min":
            sketch = CountMinSketch(num_hashes=3, row_width=19, seed=7)
        elif backend == "count-min-conservative":
            sketch = CountMinSketch(
                num_hashes=3, row_width=19, seed=7, conservative=True
            )
        elif backend == "count-sketch":
            sketch = CountSketch(num_hashes=3, row_width=19, seed=7)
        else:
            raise AssertionError(backend)
        return ASketch(
            sketch=sketch, filter_items=filter_items, filter_kind=kind
        )

    return one(), one()


def filter_state(asketch: ASketch) -> dict[int, tuple[int, int]]:
    return {
        entry.key: (entry.new_count, entry.old_count)
        for entry in asketch.filter.entries()
    }


def assert_identical(scalar: ASketch, batched: ASketch, domain) -> None:
    """Full-state equality: filter, bookkeeping, and every estimate."""
    assert filter_state(scalar) == filter_state(batched)
    assert scalar.total_mass == batched.total_mass
    assert scalar.overflow_mass == batched.overflow_mass
    assert scalar.miss_events == batched.miss_events
    assert scalar.exchange_count == batched.exchange_count
    keys = sorted(set(int(k) for k in domain))
    assert scalar.query_batch(keys) == batched.query_batch(keys)


class TestSingleTupleChunks:
    """Chunk size 1 exercises every scalar branch, exchanges included."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_exact_equivalence_all_filters(self, kind):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 150, size=4000, dtype=np.int64)
        scalar, batched = build_pair(kind)
        scalar.process_stream(keys)
        for index in range(keys.shape[0]):
            batched.process_batch(keys[index : index + 1])
        assert scalar.exchange_count > 0  # the hard path was exercised
        assert_identical(scalar, batched, keys.tolist())

    @pytest.mark.parametrize(
        "backend", ["count-min", "count-min-conservative", "count-sketch"]
    )
    def test_exact_equivalence_all_backends(self, backend):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 120, size=3000, dtype=np.int64)
        scalar, batched = build_pair("relaxed-heap", backend)
        scalar.process_stream(keys)
        for index in range(keys.shape[0]):
            batched.process_batch(keys[index : index + 1])
        assert_identical(scalar, batched, keys.tolist())

    def test_weighted_tuples_match_scalar_updates(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 60, size=800, dtype=np.int64)
        counts = rng.integers(0, 9, size=800, dtype=np.int64)
        scalar, batched = build_pair("relaxed-heap")
        for key, count in zip(keys.tolist(), counts.tolist()):
            scalar.process(key, count)
        for index in range(keys.shape[0]):
            batched.process_batch(
                keys[index : index + 1], counts[index : index + 1]
            )
        assert_identical(scalar, batched, keys.tolist())

    def test_miss_trace_matches_scalar(self):
        rng = np.random.default_rng(14)
        keys = rng.integers(0, 100, size=1500, dtype=np.int64)
        scalar, batched = build_pair("vector")
        scalar.record_misses()
        batched.record_misses()
        scalar.process_stream(keys)
        for index in range(keys.shape[0]):
            batched.process_batch(keys[index : index + 1])
        assert (scalar.miss_trace() == batched.miss_trace()).all()


class TestWholeChunkEquivalence:
    """Cases where large chunks provably cannot reorder an exchange."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_no_overflow_streams_identical(self, kind):
        """Distinct keys fit the filter: the sketch is never touched."""
        rng = np.random.default_rng(21)
        keys = rng.integers(0, 4, size=3000, dtype=np.int64)
        scalar, batched = build_pair(kind, filter_items=4)
        scalar.process_stream(keys)
        batched.process_batch(keys)
        assert batched.miss_events == 0
        assert_identical(scalar, batched, keys.tolist())

    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 1000])
    def test_chunking_invariant_without_overflow(self, chunk_size):
        """Any chunking of a non-overflowing stream gives the same state."""
        rng = np.random.default_rng(22)
        keys = rng.integers(0, 4, size=2000, dtype=np.int64)
        reference, chunked = build_pair("relaxed-heap", filter_items=4)
        reference.process_batch(keys)
        for start in range(0, keys.shape[0], chunk_size):
            chunked.process_batch(keys[start : start + chunk_size])
        assert_identical(reference, chunked, keys.tolist())

    def test_aggregated_insert_matches_scalar_fill(self):
        """A chunk that *fills* the filter inserts first-appearance keys
        with their full chunk totals — exactly the scalar end state."""
        keys = np.array([9, 9, 7, 9, 5, 7, 3, 1], dtype=np.int64)
        scalar, batched = build_pair("vector", filter_items=4)
        scalar.process_stream(keys)
        batched.process_batch(keys)
        assert_identical(scalar, batched, keys.tolist())


class TestChunkGranularitySemantics:
    """The documented deviation: exchanges settle at chunk boundaries."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("chunk_size", [17, 256, 5000])
    def test_one_sided_and_mass_conserving(self, kind, chunk_size):
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 300, size=5000, dtype=np.int64)
        asketch, _ = build_pair(kind)
        for start in range(0, keys.shape[0], chunk_size):
            asketch.process_batch(keys[start : start + chunk_size])
        truth = Counter(keys.tolist())
        for key, count in truth.items():
            assert asketch.query(key) >= count
        assert asketch.total_mass == keys.shape[0]
        if isinstance(asketch.sketch, CountMinSketch):
            resident = sum(
                entry.resident_count for entry in asketch.filter.entries()
            )
            assert resident + asketch.sketch.total_count() == keys.shape[0]

    def test_estimates_never_below_scalar_truth(self):
        """Batched estimates stay valid over-estimates even when exchange
        timing diverges from the scalar run."""
        rng = np.random.default_rng(32)
        keys = rng.integers(0, 500, size=8000, dtype=np.int64)
        scalar, batched = build_pair("relaxed-heap")
        scalar.process_stream(keys)
        batched.process_batch(keys)
        truth = Counter(keys.tolist())
        for key, count in truth.items():
            assert batched.query(key) >= count
        assert scalar.total_mass == batched.total_mass

    def test_miss_trace_chunk_granularity(self):
        """In one chunk, every occurrence of an overflowing key is a
        miss — including occurrences a scalar run would have absorbed
        after a mid-chunk exchange."""
        asketch, _ = build_pair("vector", filter_items=2)
        asketch.process_batch(np.array([1, 2], dtype=np.int64))  # fills
        asketch.record_misses()
        chunk = np.array([3, 1, 3, 3], dtype=np.int64)
        asketch.process_batch(chunk)
        assert asketch.miss_trace().tolist() == [True, False, True, True]


class TestBatchValidation:
    def test_negative_counts_rejected(self):
        asketch, _ = build_pair("vector")
        with pytest.raises(NegativeCountError):
            asketch.process_batch(
                np.array([1, 2], dtype=np.int64),
                np.array([1, -1], dtype=np.int64),
            )

    def test_shape_mismatch_rejected(self):
        asketch, _ = build_pair("vector")
        with pytest.raises(ConfigurationError):
            asketch.process_batch(
                np.array([1, 2], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )

    def test_empty_chunk_is_a_noop(self):
        asketch, _ = build_pair("vector")
        asketch.process_batch(np.array([], dtype=np.int64))
        assert asketch.total_mass == 0
        assert asketch.ops.items == 0

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_non_vector_keys_rejected_before_any_state_change(self, kind):
        asketch, _ = build_pair(kind)
        asketch.process_batch(np.arange(12, dtype=np.int64))
        before = (
            filter_state(asketch),
            asketch.sketch.table.tolist(),
            asketch.total_mass,
            asketch.overflow_mass,
            asketch.miss_events,
            asketch.combined_ops(),
        )
        for keys in (np.arange(20).reshape(4, 5), np.array(3)):
            with pytest.raises(ConfigurationError):
                asketch.process_batch(keys)
            with pytest.raises(ConfigurationError):
                asketch.query_batch(keys)
        assert before == (
            filter_state(asketch),
            asketch.sketch.table.tolist(),
            asketch.total_mass,
            asketch.overflow_mass,
            asketch.miss_events,
            asketch.combined_ops(),
        )


class TestBatchedQueries:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_query_batch_matches_scalar_queries(self, kind):
        rng = np.random.default_rng(41)
        keys = rng.integers(0, 200, size=4000, dtype=np.int64)
        asketch, _ = build_pair(kind)
        asketch.process_stream(keys)
        probes = list(range(0, 250))  # residents, sketch keys, unseen keys
        assert asketch.query_batch(probes) == [
            asketch.query(key) for key in probes
        ]

    def test_query_batch_accounting(self):
        """One ``ops.items`` tick per queried key, exactly like scalar."""
        asketch, _ = build_pair("vector")
        asketch.process_stream(np.arange(50, dtype=np.int64))
        before = asketch.ops.items
        asketch.query_batch(list(range(30)))
        assert asketch.ops.items == before + 30

    def test_estimate_batch_alias(self):
        asketch, _ = build_pair("relaxed-heap")
        asketch.process_stream(np.arange(20, dtype=np.int64))
        probes = [0, 5, 99]
        assert asketch.estimate_batch(probes) == asketch.query_batch(probes)


class TestFilterBulkApi:
    """The bulk filter operations the batched path is built on."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_lookup_many_int64_residents(self, kind):
        # Every int64 key is an ordinary resident: -1, 0 and the extremes
        # are found, and an absent 0 or -2 misses.
        residents = [3, -1, 0, -(1 << 63), (1 << 63) - 1]
        filter_ = make_filter(kind, 8)
        for count, key in enumerate(residents, start=1):
            filter_.insert(key, count, 0)
        mask, counts = filter_.lookup_many(
            np.array(residents + [-2, 4], dtype=np.int64)
        )
        assert mask.tolist() == [True] * 5 + [False, False]
        assert counts.tolist() == [1, 2, 3, 4, 5, 0, 0]

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_add_many_matches_scalar_loop(self, kind):
        bulk = make_filter(kind, 8)
        loop = make_filter(kind, 8)
        for key in range(8):
            bulk.insert(key, 1, 0)
            loop.insert(key, 1, 0)
        keys = np.array([5, 99, 0, 5, 7], dtype=np.int64)
        amounts = np.array([2, 2, 3, 1, 4], dtype=np.int64)
        mask = bulk.add_many_if_present(keys, amounts)
        expected = [
            loop.add_if_present(int(k), int(a))
            for k, a in zip(keys.tolist(), amounts.tolist())
        ]
        assert mask.tolist() == expected
        assert {
            (e.key, e.new_count, e.old_count) for e in bulk.entries()
        } == {(e.key, e.new_count, e.old_count) for e in loop.entries()}
        assert bulk.min_new_count() == loop.min_new_count()

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_lookup_many_matches_get_new_count(self, kind):
        filter_ = make_filter(kind, 4)
        for key, count in ((2, 5), (9, 1), (4, 3)):
            filter_.insert(key, count, 0)
        keys = np.array([2, 3, 4, 9, 2], dtype=np.int64)
        mask, counts = filter_.lookup_many(keys)
        assert mask.tolist() == [True, False, True, True, True]
        assert counts[mask].tolist() == [5, 3, 1, 5]

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("residents", [0, 3, 6])
    def test_lookup_many_matches_get_new_count_loop(self, kind, residents):
        """Answers and op record equal a per-key ``get_new_count`` loop
        on empty, partly filled and full filters, repeated keys
        included."""
        bulk = make_filter(kind, 6)
        loop = make_filter(kind, 6)
        for key in range(residents):
            for filter_ in (bulk, loop):
                filter_.insert(key * 7, 10 + key, key)
        bulk.add_many_if_present(
            np.array([0, 14], dtype=np.int64), np.array([5, 2], dtype=np.int64)
        )
        for key, amount in ((0, 5), (14, 2)):
            loop.add_if_present(key, amount)
        keys = np.array([14, 3, 0, 14, -9, 35, 0, 0, 7], dtype=np.int64)
        mask, counts = bulk.lookup_many(keys)
        expected = [loop.get_new_count(key) for key in keys.tolist()]
        assert mask.tolist() == [answer is not None for answer in expected]
        assert counts.tolist() == [answer or 0 for answer in expected]
        assert counts.dtype == np.int64
        assert bulk.ops == loop.ops

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_lookup_many_of_no_keys(self, kind):
        filter_ = make_filter(kind, 4)
        filter_.insert(1, 2, 0)
        mask, counts = filter_.lookup_many(np.empty(0, dtype=np.int64))
        assert mask.shape == counts.shape == (0,)
        assert filter_.ops.filter_probes == 0

    def test_lookup_many_answers_hits_without_scalar_lookups(self):
        """10K hits on a full relaxed heap are answered by the one
        gather: the scalar lookup chain is never entered."""
        filter_ = make_filter("relaxed-heap", 32)
        for key in range(32):
            filter_.insert(key, 100 + key, 0)

        def refuse(*args, **kwargs):
            raise AssertionError("scalar lookup on the bulk path")

        filter_._find = refuse
        filter_.get_counts = refuse
        keys = np.arange(10_000, dtype=np.int64) % 32
        mask, counts = filter_.lookup_many(keys)
        assert mask.all()
        assert counts.tolist() == (keys + 100).tolist()
        assert filter_.ops.filter_probes == 10_000

    def test_vector_bulk_on_empty_filter(self):
        filter_ = make_filter("vector", 4)
        keys = np.array([1, 2], dtype=np.int64)
        assert filter_.add_many_if_present(keys, np.ones(2)).tolist() == [
            False,
            False,
        ]
        mask, _ = filter_.lookup_many(keys)
        assert mask.tolist() == [False, False]

    def test_vector_bulk_min_retracking(self):
        """A bulk hit on the minimum slot re-tracks the cached minimum."""
        filter_ = make_filter("vector", 3)
        filter_.insert(1, 10, 0)
        filter_.insert(2, 1, 0)  # the minimum
        filter_.insert(3, 5, 0)
        filter_.add_many_if_present(
            np.array([2], dtype=np.int64), np.array([100], dtype=np.int64)
        )
        assert filter_.min_new_count() == 5
