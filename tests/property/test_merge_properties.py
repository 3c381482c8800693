"""Property-based tests for synopsis merging (hypothesis).

The merge leg of the synopsis protocol makes three promises, checked
here over randomly generated streams and split points:

* **linearity** — for linear sketches, merging sketches of two stream
  halves produces the exact table of one sketch over the whole stream;
* **commutativity** — ``a.merge(b)`` and ``b.merge(a)`` answer queries
  identically;
* **guarantee preservation** — one-sided structures (Count-Min,
  ASketch, Space Saving's min mode) stay one-sided after a merge, and
  Misra-Gries stays a valid undercount within its decrement budget.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asketch import ASketch
from repro.counters.misra_gries import MisraGries
from repro.counters.space_saving import SpaceSaving
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=500), min_size=2, max_size=300
)
seeds = st.integers(min_value=0, max_value=50)
splits = st.floats(min_value=0.1, max_value=0.9)


def _halves(keys: list[int], split: float) -> tuple[np.ndarray, np.ndarray]:
    cut = max(1, min(len(keys) - 1, int(len(keys) * split)))
    array = np.array(keys, dtype=np.int64)
    return array[:cut], array[cut:]


class TestLinearMergeEqualsWholeStream:
    @given(keys=keys_strategy, seed=seeds, split=splits)
    @settings(max_examples=40, deadline=None)
    def test_count_min(self, keys, seed, split):
        first, second = _halves(keys, split)
        left = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        right = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        whole = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        left.update_batch(first)
        right.update_batch(second)
        whole.update_batch(np.array(keys, dtype=np.int64))
        left.merge(right)
        np.testing.assert_array_equal(left.table, whole.table)

    @given(keys=keys_strategy, seed=seeds, split=splits)
    @settings(max_examples=40, deadline=None)
    def test_count_sketch(self, keys, seed, split):
        first, second = _halves(keys, split)
        left = CountSketch(num_hashes=3, row_width=31, seed=seed)
        right = CountSketch(num_hashes=3, row_width=31, seed=seed)
        whole = CountSketch(num_hashes=3, row_width=31, seed=seed)
        left.update_batch(first)
        right.update_batch(second)
        whole.update_batch(np.array(keys, dtype=np.int64))
        left.merge(right)
        np.testing.assert_array_equal(left._table, whole._table)



class TestCommutativity:
    @given(keys=keys_strategy, seed=seeds, split=splits)
    @settings(max_examples=30, deadline=None)
    def test_count_min_merge_commutes(self, keys, seed, split):
        first, second = _halves(keys, split)
        ab = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        ba = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        other_for_ab = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        other_for_ba = CountMinSketch(num_hashes=3, row_width=37, seed=seed)
        ab.update_batch(first)
        other_for_ab.update_batch(second)
        ba.update_batch(second)
        other_for_ba.update_batch(first)
        ab.merge(other_for_ab)
        ba.merge(other_for_ba)
        np.testing.assert_array_equal(ab.table, ba.table)

    @given(keys=keys_strategy, seed=seeds, split=splits)
    @settings(max_examples=15, deadline=None)
    def test_asketch_merge_estimates_commute(self, keys, seed, split):
        """Merged estimates agree regardless of merge direction.

        The filter contents may differ (eviction order is direction
        dependent) but filter + sketch always answer identically for
        monitored keys and one-sidedly for the rest; we check the
        point estimates that both orders must agree on: total mass.
        """
        first, second = _halves(keys, split)
        build = lambda: ASketch(  # noqa: E731
            total_bytes=4 * 1024, filter_items=4, seed=seed
        )
        ab, ba = build(), build()
        other_ab, other_ba = build(), build()
        ab.process_stream(first)
        other_ab.process_stream(second)
        ba.process_stream(second)
        other_ba.process_stream(first)
        ab.merge(other_ab)
        ba.merge(other_ba)
        assert ab.total_mass == ba.total_mass == len(keys)


class TestGuaranteePreservation:
    @given(keys=keys_strategy, seed=seeds, split=splits)
    @settings(max_examples=25, deadline=None)
    def test_asketch_one_sided_after_merge(self, keys, seed, split):
        first, second = _halves(keys, split)
        left = ASketch(total_bytes=4 * 1024, filter_items=4, seed=seed)
        right = ASketch(total_bytes=4 * 1024, filter_items=4, seed=seed)
        left.process_stream(first)
        right.process_stream(second)
        left.merge(right)
        truth = Counter(keys)
        for key, count in truth.items():
            assert left.query(key) >= count

    @given(keys=keys_strategy, split=splits)
    @settings(max_examples=25, deadline=None)
    def test_space_saving_stays_one_sided(self, keys, split):
        first, second = _halves(keys, split)
        left = SpaceSaving(capacity=8)
        right = SpaceSaving(capacity=8)
        for key in first.tolist():
            left.update(key)
        for key in second.tolist():
            right.update(key)
        left.merge(right)
        truth = Counter(keys)
        for key, count in truth.items():
            assert left.estimate(key) >= count
        # Lower bounds stay valid too: count - error <= true count.
        for key in truth:
            guaranteed = left.guaranteed_count(key)
            if guaranteed is not None:
                assert guaranteed <= truth[key]

    @given(keys=keys_strategy, split=splits)
    @settings(max_examples=25, deadline=None)
    def test_misra_gries_undercount_within_budget(self, keys, split):
        first, second = _halves(keys, split)
        left = MisraGries(capacity=8)
        right = MisraGries(capacity=8)
        for key in first.tolist():
            left.update(key)
        for key in second.tolist():
            right.update(key)
        left.merge(right)
        truth = Counter(keys)
        for key, count in left.items():
            assert count <= truth[key]
            assert count >= truth[key] - left.total_decrements

