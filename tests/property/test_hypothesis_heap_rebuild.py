"""The heap filters' "heap is valid" flag never changes what a rebuild does.

``_HeapFilterBase._heapify`` skips its sift-downs while the arrays are
known to form a valid heap.  These properties drive random sequences of
every operation that writes a count or a slot against a reference
subclass whose flag never sets (so every rebuild runs), and require the
two to agree on every slot, every entry and the whole operation record
after every step — and the root to be the true minimum.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filters.heap import RelaxedHeapFilter, StrictHeapFilter

OPERATIONS = (
    "insert",
    "root_hit",
    "hit",
    "miss",
    "bulk",
    "replace_min",
    "raise_count",
    "lower_count",
    "restore",
)


def _always_rebuilding(cls):
    """``cls`` with a flag that reads False whatever is written to it."""

    class Reference(cls):
        _valid = property(lambda self: False, lambda self, value: None)

    return Reference


def _assert_same(real, reference) -> None:
    np.testing.assert_array_equal(real.id_array, reference.id_array)
    np.testing.assert_array_equal(
        real.slot_new_counts(), reference.slot_new_counts()
    )
    assert real.entries() == reference.entries()
    assert dataclasses.asdict(real.ops) == dataclasses.asdict(reference.ops)
    if len(real):
        true_min = min(entry.new_count for entry in real.entries())
        assert real.min_new_count() == true_min


def _step(data, filters, capacity, fresh):
    """Apply one drawn operation to every filter in ``filters``."""
    real = filters[0]
    operation = data.draw(st.sampled_from(OPERATIONS))
    size = len(real)
    entries = real.entries()
    keys = [entry.key for entry in entries]
    if operation == "insert" or size == 0:
        if real.is_full:
            return filters
        new_count = data.draw(st.integers(0, 600))
        for filter_ in filters:
            filter_.insert(fresh, new_count, new_count // 2)
    elif operation == "root_hit":
        amount = data.draw(st.integers(1, 50))
        for filter_ in filters:
            assert filter_.add_if_present(keys[0], amount)
    elif operation == "hit":
        key = keys[data.draw(st.integers(min(1, size - 1), size - 1))]
        amount = data.draw(st.integers(1, 50))
        for filter_ in filters:
            assert filter_.add_if_present(key, amount)
    elif operation == "miss":
        for filter_ in filters:
            assert not filter_.add_if_present(fresh, 1)
    elif operation == "bulk":
        chosen = data.draw(
            st.lists(st.sampled_from(keys), unique=True, max_size=size)
        )
        bulk = np.array(chosen + [fresh, fresh + 1], dtype=np.int64)
        amounts = np.array(
            data.draw(
                st.lists(
                    st.integers(1, 50),
                    min_size=bulk.shape[0],
                    max_size=bulk.shape[0],
                )
            ),
            dtype=np.int64,
        )
        for filter_ in filters:
            hits = filter_.add_many_if_present(bulk, amounts)
            assert hits.tolist() == [True] * len(chosen) + [False, False]
    elif operation == "replace_min":
        new_count = data.draw(st.integers(0, 800))
        for filter_ in filters:
            filter_.replace_min(fresh, new_count, new_count)
    elif operation in ("raise_count", "lower_count"):
        slot = data.draw(st.integers(0, size - 1))
        key, current = keys[slot], entries[slot].new_count
        if operation == "raise_count":
            new_count = current + data.draw(st.integers(1, 100))
        else:
            new_count = max(0, current - data.draw(st.integers(1, 100)))
        for filter_ in filters:
            filter_.set_counts(key, new_count, min(new_count, 5))
    else:  # restore the same slots (relaxed: interior counts raised)
        saved_keys, new_counts, old_counts = real.state_entries()
        if isinstance(real, RelaxedHeapFilter):
            # Raising non-root counts keeps the root the minimum and
            # leaves the interior violations a relaxed heap accumulates.
            raises = data.draw(
                st.lists(
                    st.integers(0, 300), min_size=size - 1, max_size=size - 1
                )
            )
            new_counts[1:] += np.array(raises, dtype=np.int64)
        restored = []
        for filter_ in filters:
            twin = type(filter_)(capacity, ops=filter_.ops)
            twin.restore_entries(saved_keys, new_counts, old_counts)
            restored.append(twin)
        filters = restored
    return filters


@pytest.mark.parametrize("cls", [RelaxedHeapFilter, StrictHeapFilter])
@given(data=st.data(), capacity=st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_skipped_rebuilds_match_full_rebuilds(cls, data, capacity):
    filters = [cls(capacity), _always_rebuilding(cls)(capacity)]
    fresh = 10_000
    for _ in range(data.draw(st.integers(1, 60))):
        filters = _step(data, filters, capacity, fresh)
        fresh += 2
        _assert_same(*filters)
