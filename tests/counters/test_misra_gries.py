"""Unit tests for the Misra-Gries frequent-items counter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters.misra_gries import MisraGries
from repro.errors import CapacityError


class TestBasics:
    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            MisraGries(0)

    def test_counts_exact_within_capacity(self):
        mg = MisraGries(8)
        for key in [1, 2, 1, 1, 3]:
            mg.update(key)
        assert mg.count_of(1) == 3
        assert mg.count_of(2) == 1
        assert mg.count_of(4) is None

    def test_decrement_all_on_overflow(self):
        mg = MisraGries(2)
        mg.update(1)
        mg.update(2)
        mg.update(3)  # full: every counter decremented, 3 not inserted
        assert len(mg) == 0
        assert mg.total_decrements == 1

    def test_surviving_counts_after_decrement(self):
        mg = MisraGries(2)
        for _ in range(5):
            mg.update(1)
        mg.update(2)
        mg.update(3)  # decrement-all: 1 -> 4, 2 evicted
        assert mg.count_of(1) == 4
        assert mg.count_of(2) is None
        assert len(mg) == 1

    def test_freed_slots_reusable(self):
        mg = MisraGries(2)
        mg.update(1)
        mg.update(2)
        mg.update(3)  # clears both
        mg.update(4)
        assert mg.is_frequent(4)
        assert len(mg) == 1


class TestGuarantees:
    def test_undercount_bounded_by_decrements(self, skewed_stream):
        mg = MisraGries(32)
        for key in skewed_stream.keys[:20000].tolist():
            mg.update(key)
        exact = {}
        for key in skewed_stream.keys[:20000].tolist():
            exact[key] = exact.get(key, 0) + 1
        for key, count in mg.items():
            assert count <= exact[key]
            assert exact[key] - count <= mg.total_decrements

    def test_heavy_items_monitored(self, skewed_stream):
        """Items with frequency > N/(k+1) must be monitored."""
        k = 32
        n = 20000
        mg = MisraGries(k)
        keys = skewed_stream.keys[:n].tolist()
        for key in keys:
            mg.update(key)
        counts: dict[int, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        for key, count in counts.items():
            if count > n / (k + 1):
                assert mg.is_frequent(key), (key, count)

    def test_items_sorted_descending(self):
        mg = MisraGries(8)
        data = [1] * 5 + [2] * 3 + [3] * 7
        for key in data:
            mg.update(key)
        items = mg.items()
        counts = [count for _, count in items]
        assert counts == sorted(counts, reverse=True)


class TestWeightedAndOps:
    def test_weighted_update(self):
        mg = MisraGries(4)
        mg.update(1, 10)
        assert mg.count_of(1) == 10

    def test_probe_costs_charged(self):
        mg = MisraGries(32)
        before = mg.ops.filter_probe_blocks
        mg.update(5)
        assert mg.ops.filter_probe_blocks == before + 2  # ceil(32/16)

    def test_mg_ops_charged_for_sweep(self):
        mg = MisraGries(4)
        for key in range(4):
            mg.update(key)
        before = mg.ops.mg_ops
        mg.update(99)  # triggers decrement-all
        assert mg.ops.mg_ops >= before + 1 + 4


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def slot_state(mg: MisraGries):
    return (
        mg._keys.tolist(), list(mg._counts), list(mg._free),
        dict(mg._index), mg.total_decrements,
    )


class TestInt64Keys:
    def test_minus_one_is_decremented_and_freed(self):
        mg = MisraGries(2)
        for key in [-1, -1, 5, 7, 7, 8]:
            mg.update(key)
        # 7 decrements (-1 -> 1, 5 freed), 7 re-enters, 8 decrements both.
        assert mg.items() == []
        assert len(mg) == 0
        assert mg.total_decrements == 2
        restored = MisraGries.from_state(mg.state())
        assert restored.items() == [] and len(restored) == 0

    def test_extreme_keys_survive_a_round_trip(self):
        mg = MisraGries(4)
        for key in [-1, INT64_MAX, -1, INT64_MIN, 0, -1, INT64_MAX]:
            mg.update(key)
        assert mg.items() == [(-1, 3), (INT64_MAX, 2), (INT64_MIN, 1), (0, 1)]
        state = mg.state()
        assert sorted(state.arrays) == ["counts", "free", "keys"]
        restored = MisraGries.from_state(state)
        assert slot_state(restored) == slot_state(mg)

    def test_old_ids_state_loads_exactly(self):
        """A state written before raw keys holds ``ids`` (``key + 1``
        per live slot, 0 on free slots); key -1 was stored as id 0 on a
        live slot and is recovered from the free list."""
        mg = MisraGries(4)
        for key in [9, -1, -1, 9, 4, -3]:
            mg.update(key)
        mg.update(11)  # decrement-all frees 4 and -3: free = [2, 3]
        state = mg.state()
        old_arrays = dict(state.arrays)
        keys = old_arrays.pop("keys")
        live = [slot for slot in range(4) if slot not in set(mg._free)]
        ids = [0] * 4
        for slot in live:
            ids[slot] = int(keys[slot]) + 1
        assert ids == [10, 0, 0, 0]  # key -1 sits on live slot 1 as id 0
        old_arrays["ids"] = np.array(ids, dtype=np.int64)
        old = type(state)(
            kind=state.kind, params=state.params, arrays=old_arrays,
            extra=state.extra,
        )
        restored = MisraGries.from_state(old)
        assert slot_state(restored) == slot_state(mg)
        assert restored.items() == [(9, 1), (-1, 1)]
