"""Deletion (negative-count update) tests — the paper's Appendix A."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.counters.exact import ExactCounter
from repro.errors import NegativeCountError

@pytest.fixture(params=["vector", "strict-heap", "relaxed-heap",
                        "stream-summary"])
def asketch(request):
    return ASketch(
        total_bytes=32 * 1024, filter_items=8, filter_kind=request.param,
        seed=9,
    )


class TestFilterResidentDeletion:
    def test_delete_within_resident_mass(self, asketch):
        """new - old >= amount: only new_count is reduced (case 2)."""
        asketch.update(1, 10)  # filter resident: (10, 0)
        asketch.remove(1, 4)
        assert asketch.filter.get_counts(1) == (6, 0)
        assert asketch.query(1) == 6

    def test_delete_exactly_resident_mass(self, asketch):
        asketch.update(1, 10)
        asketch.remove(1, 10)
        assert asketch.filter.get_counts(1) == (0, 0)
        assert asketch.query(1) == 0

    def test_delete_spilling_into_sketch(self, asketch):
        """new - old < amount: the spill also reduces the sketch (case 3)."""
        # Put key 1 into the sketch first, then exchange it into the
        # filter so old_count > 0.
        asketch.update(2, 5)  # fills one slot
        for _ in range(7):
            asketch.filter.insert(1000 + _, 100, 0)  # fill remaining slots
        assert asketch.filter.is_full
        asketch.update(1, 3)   # goes to sketch
        asketch.update(1, 3)   # sketch count 6 > min new_count? min is 5.
        counts = asketch.filter.get_counts(1)
        assert counts is not None and counts[0] >= 6  # exchanged in
        new, old = counts
        assert old > 0
        asketch.update(1, 2)   # resident mass now 2
        asketch.remove(1, 5)   # spill = 3 beyond the resident 2
        new_after, old_after = asketch.filter.get_counts(1)
        assert new_after == new + 2 - 5
        assert new_after == old_after  # all resident mass consumed
        # The sketch saw a negative update for the spill.
        assert asketch.sketch.estimate(1) <= new  # reduced

    def test_delete_below_zero_rejected(self, asketch):
        asketch.update(1, 3)
        with pytest.raises(NegativeCountError):
            asketch.remove(1, 4)

    def test_negative_remove_amount_rejected(self, asketch):
        asketch.update(1, 3)
        with pytest.raises(NegativeCountError):
            asketch.remove(1, -2)


class TestSketchResidentDeletion:
    def test_delete_unmonitored_goes_to_sketch(self, asketch):
        for key in range(8):
            asketch.update(key, 50)  # fill the filter
        asketch.update(99, 5)        # 99 lives in the sketch
        asketch.remove(99, 3)
        assert asketch.query(99) >= 2
        # One-sided guarantee retained.
        assert asketch.query(99) >= 2


class TestGuaranteeUnderChurn:
    def test_one_sided_after_mixed_workload(self, rng):
        asketch = ASketch(total_bytes=32 * 1024, filter_items=8, seed=11)
        exact = ExactCounter()
        for _ in range(20000):
            key = int(rng.zipf(1.7)) % 500
            if rng.random() < 0.15 and exact.count_of(key) > 0:
                exact.update(key, -1)
                asketch.remove(key, 1)
            else:
                exact.update(key, 1)
                asketch.update(key, 1)
        for key, true in exact.items():
            assert asketch.query(key) >= true

    def test_no_exchange_on_deletion_path(self, rng):
        asketch = ASketch(total_bytes=32 * 1024, filter_items=4, seed=12)
        for key in range(4):
            asketch.update(key, 10)
        asketch.update(50, 100)  # sketch resident with huge count
        exchanges = asketch.exchange_count
        asketch.remove(50, 1)    # would "overtake" but must not exchange
        assert asketch.exchange_count == exchanges

    def test_total_mass_tracks_deletions(self):
        asketch = ASketch(total_bytes=32 * 1024, filter_items=4)
        asketch.update(1, 10)
        asketch.remove(1, 4)
        assert asketch.total_mass == 6


class TestRejectedRemovalLeavesNoTrace:
    """A refused ``remove()`` raises before it changes anything: the
    filter, the back stage and the mass tallies read as before."""

    @pytest.mark.parametrize("case", ["absent-key", "over-removal"])
    @pytest.mark.parametrize("backend", ["count-min", "fcm", "count-sketch"])
    @pytest.mark.parametrize("filter_kind", ["vector", "strict-heap",
                                             "relaxed-heap", "stream-summary"])
    def test_state_unchanged(self, filter_kind, backend, case):
        asketch = ASketch(total_bytes=16 * 1024, filter_items=4,
                          filter_kind=filter_kind, sketch_backend=backend)
        asketch.process_batch(np.arange(1, 200).repeat(3))
        if case == "absent-key":
            key = 10**9
            amount = max(asketch.query(key), 0) + 1
        else:
            key, _ = asketch.top_k(1)[0]
            amount = 10**6
        before, mass = asketch.state(), asketch.total_mass
        with pytest.raises(NegativeCountError):
            asketch.remove(key, amount)
        assert asketch.total_mass == mass == 597
        assert asketch.state().equals(before)
