"""Oracle tests for the filter-stage hot paths (hypothesis).

Two rewrites must leave state and the operation record bit-identical to
the code they replaced, which lives on here as test-local oracles:

* ``StagedSynopsis._process_batch`` pre-aggregates a chunk with one
  sort (a packed value sort when the key span allows, else a stable
  argsort) and ``reduceat``; the oracle is the ``np.unique``
  (``return_index``/``return_inverse``) + ``np.add.at`` body it replaced.
* ``_HeapFilterBase._sift_down``/``_sift_up`` hold the moving entry
  aside instead of swapping per level; the oracle is the ``_swap``-based
  pair they replaced.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.asketch import ASketch
from repro.core.filters.heap import RelaxedHeapFilter, StrictHeapFilter
from repro.sketches.count_min import CountMinSketch

FILTER_KINDS = ["vector", "strict-heap", "relaxed-heap", "stream-summary"]


def unique_process_batch(staged, keys, counts=None) -> None:
    """The ``np.unique`` pre-aggregation ``_process_batch`` body, kept
    as the oracle (valid input only: the validation is not copied)."""
    keys = np.asarray(keys, dtype=np.int64)
    n_items = keys.shape[0]
    if counts is None:
        counts = np.ones(n_items, dtype=np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
    if n_items == 0:
        return
    staged.ops.items += n_items
    staged.total_mass += int(counts.sum())

    uniq, first_pos, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    totals = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(totals, inverse, counts)
    order = np.argsort(first_pos)
    uniq = uniq[order]
    totals = totals[order]

    filter_ = staged.filter
    hit_mask = filter_.add_many_if_present(uniq, totals)
    miss_positions = np.flatnonzero(~hit_mask)

    filled = 0
    while filled < miss_positions.shape[0] and not filter_.is_full:
        position = int(miss_positions[filled])
        key = int(uniq[position])
        total = int(totals[position])
        if staged.overflow_mass:
            prior = max(0, int(staged.sketch.estimate(key)))
            filter_.insert(key, prior + total, prior)
        else:
            filter_.insert(key, total, 0)
        filled += 1
    sketch_positions = miss_positions[filled:]

    overflowed = np.zeros(uniq.shape[0], dtype=bool)
    overflowed[order[sketch_positions]] = True
    per_tuple_miss = overflowed[inverse]
    staged.miss_events += int(np.count_nonzero(per_tuple_miss))
    if staged._miss_log is not None:
        staged._miss_log.extend(per_tuple_miss.tolist())
    if sketch_positions.shape[0] == 0:
        return

    sketch_keys = uniq[sketch_positions]
    sketch_totals = totals[sketch_positions]
    staged.overflow_mass += int(sketch_totals.sum())
    estimates = staged.sketch.update_batch_weighted(sketch_keys, sketch_totals)

    threshold = filter_.peek_min_new_count()
    candidates = staged.exchange_policy.batch_candidates(
        staged, estimates, threshold
    )
    filter_.charge_min_queries(sketch_keys.shape[0] - candidates.shape[0])
    for position in candidates.tolist():
        staged._run_exchanges(
            int(sketch_keys[position]), int(estimates[position])
        )


def build(kind: str, seed: int) -> ASketch:
    sketch = CountMinSketch(num_hashes=3, row_width=23, seed=seed)
    asketch = ASketch(sketch=sketch, filter_items=4, filter_kind=kind)
    asketch.record_misses()
    return asketch


def full_state(asketch: ASketch):
    return (
        [
            (entry.key, entry.new_count, entry.old_count)
            for entry in asketch.filter.entries()
        ],
        asketch.sketch.table.tolist(),
        asketch.total_mass,
        asketch.overflow_mass,
        asketch.miss_events,
        asketch.ops,
        asketch.filter.ops,
        asketch.sketch.ops,
        asketch.miss_trace().tolist(),
    )


# Keys span negatives and duplicates; -1 is left out because its slot
# encoding (key + 1) is the array filters' empty-slot marker, 0.
keys_in_chunk = st.integers(min_value=-30, max_value=30).filter(
    lambda key: key != -1
)
#: A chunk: (key, count) tuples, counts including zeros; ``unit`` chunks
#: drop the counts and take the all-ones default.
chunks = st.tuples(
    st.lists(
        st.tuples(keys_in_chunk, st.integers(min_value=0, max_value=6)),
        min_size=1,
        max_size=60,
    ),
    st.booleans(),
)


INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
#: The array filters store ``key + 1``, so they take keys in
#: ``[0, 2**62]`` here; stream-summary takes the whole int64 range.
KEY_RANGES = {
    kind: (0, 1 << 62) for kind in ("vector", "strict-heap", "relaxed-heap")
}
KEY_RANGES["stream-summary"] = (INT64_MIN, INT64_MAX)


@st.composite
def bound_chunks(draw, lowest: int, highest: int):
    """A chunk whose key span sits just below, at or just above the
    packing bound ``2**(63 - bits)`` of its length, or is zero (one key,
    or all keys equal).  Both span ends are present; the other keys
    repeat the ends, a few values in between and, where they fall in
    the span, ``INT64_MIN``, -1 and ``INT64_MAX``."""
    n_items = draw(st.integers(min_value=1, max_value=40))
    bits = max(1, (n_items - 1).bit_length())
    offset = draw(st.sampled_from([-1, 0, 1, None]))
    span = 0 if n_items == 1 or offset is None else (1 << (63 - bits)) + offset
    assume(span <= highest - lowest)
    low = draw(
        st.sampled_from([lowest, highest - span])
        | st.integers(min_value=lowest, max_value=highest - span)
    )
    high = low + span
    values = [low, high] + [
        key for key in (INT64_MIN, -1, INT64_MAX) if low <= key <= high
    ]
    values += draw(
        st.lists(st.integers(min_value=low, max_value=high), max_size=3)
    )
    rest = draw(
        st.lists(
            st.sampled_from(values),
            min_size=n_items - 2 if span else n_items - 1,
            max_size=n_items - 2 if span else n_items - 1,
        )
    )
    keys = draw(st.permutations(([low, high] if span else [low]) + rest))
    counts = draw(
        st.none()
        | st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=n_items,
            max_size=n_items,
        )
    )
    return keys, counts


@st.composite
def bound_streams(draw):
    kind = draw(st.sampled_from(FILTER_KINDS))
    lowest, highest = KEY_RANGES[kind]
    stream = draw(st.lists(bound_chunks(lowest, highest), min_size=1,
                           max_size=6))
    return kind, stream


class TestPreAggregationOracle:
    @given(
        kind=st.sampled_from(FILTER_KINDS),
        seed=st.integers(min_value=0, max_value=20),
        stream=st.lists(chunks, min_size=1, max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_sort_matches_unique(self, kind, seed, stream):
        """Every filter kind, unit and weighted chunks (zeros included),
        single-item chunks, duplicates and negative keys: state, all
        three op records, ``miss_events`` and the miss trace agree."""
        current = build(kind, seed)
        oracle = build(kind, seed)
        for pairs, unit in stream:
            keys = np.array([key for key, _ in pairs], dtype=np.int64)
            counts = (
                None
                if unit
                else np.array([count for _, count in pairs], dtype=np.int64)
            )
            current.process_batch(keys, counts)
            unique_process_batch(oracle, keys, counts)
            assert full_state(current) == full_state(oracle)

    @given(
        kind=st.sampled_from(FILTER_KINDS),
        keys=st.lists(keys_in_chunk, min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_item_chunks(self, kind, keys):
        current = build(kind, 3)
        oracle = build(kind, 3)
        for key in keys:
            chunk = np.array([key], dtype=np.int64)
            current.process_batch(chunk)
            unique_process_batch(oracle, chunk)
        assert full_state(current) == full_state(oracle)


    @given(
        case=bound_streams(),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_sort_branches_match_unique(self, case, seed):
        """Chunks whose key span straddles the packing bound take the
        packed value sort just below it and the stable argsort at and
        above it; both agree with the oracle, as do one-key and
        all-equal chunks."""
        kind, stream = case
        current = build(kind, seed)
        oracle = build(kind, seed)
        for keys, counts in stream:
            keys = np.array(keys, dtype=np.int64)
            if counts is not None:
                counts = np.array(counts, dtype=np.int64)
            current.process_batch(keys, counts)
            unique_process_batch(oracle, keys, counts)
            assert full_state(current) == full_state(oracle)


class _SwapSifting:
    """The per-level ``_swap`` sift pair the heaps used to run."""

    def _swap(self, a: int, b: int) -> None:
        keys, new, old = self._keys, self._new, self._old
        key_a, key_b = int(keys[a]), int(keys[b])
        keys[a], keys[b] = keys[b].item(), keys[a].item()
        new[a], new[b] = new[b], new[a]
        old[a], old[b] = old[b], old[a]
        self._index[key_a] = b
        self._index[key_b] = a

    def _sift_down(self, position: int) -> None:
        new = self._new
        size = self._size
        levels = 0
        while True:
            left = 2 * position + 1
            right = left + 1
            smallest = position
            if left < size and new[left] < new[smallest]:
                smallest = left
            if right < size and new[right] < new[smallest]:
                smallest = right
            if smallest == position:
                break
            self._swap(position, smallest)
            position = smallest
            levels += 1
        self.ops.heap_fixup_levels += max(levels, 1)

    def _sift_up(self, position: int) -> None:
        new = self._new
        levels = 0
        while position > 0:
            parent = (position - 1) // 2
            if new[parent] <= new[position]:
                break
            self._swap(position, parent)
            position = parent
            levels += 1
        self.ops.heap_fixup_levels += max(levels, 1)


class _SwapStrict(_SwapSifting, StrictHeapFilter):
    pass


class _SwapRelaxed(_SwapSifting, RelaxedHeapFilter):
    pass


HEAPS = [(StrictHeapFilter, _SwapStrict), (RelaxedHeapFilter, _SwapRelaxed)]

HEAP_OPS = ("insert", "add", "replace_min", "set_counts")


def heap_operations(seed: int, count: int):
    """``count`` random (operation, key, a, b) steps; ``a``/``b`` are the
    amount, or the counts.  Few keys make hits common, and small counts
    make equal siblings common, where a sift's tie-breaks decide the
    layout."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-5, 16, size=count)
    ops = rng.integers(0, len(HEAP_OPS), size=count)
    values = rng.integers(0, 9, size=(count, 2))
    for op, key, (a, b) in zip(ops.tolist(), keys.tolist(), values.tolist()):
        yield HEAP_OPS[op], key, a, b


def heap_layout(filter_):
    return (
        filter_.id_array.tolist(),
        list(filter_._new),
        list(filter_._old),
        dict(filter_._index),
        filter_.ops,
    )


class TestHeapSiftOracle:
    @given(
        heaps=st.sampled_from(HEAPS),
        capacity=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_hold_aside_sift_matches_swaps(self, heaps, capacity, seed):
        current_cls, oracle_cls = heaps
        current = current_cls(capacity)
        oracle = oracle_cls(capacity)
        for op, key, a, b in heap_operations(seed, 300):
            for filter_ in (current, oracle):
                resident = filter_.get_counts(key) is not None
                if op == "insert" and not resident and not filter_.is_full:
                    filter_.insert(key, a, min(a, b))
                elif op == "add":
                    filter_.add_if_present(key, a)
                elif op == "replace_min" and not resident and len(filter_):
                    filter_.replace_min(key, a, min(a, b))
                elif op == "set_counts" and resident:
                    filter_.set_counts(key, a, min(a, b))
            assert heap_layout(current) == heap_layout(oracle)
