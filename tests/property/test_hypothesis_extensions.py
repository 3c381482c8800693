"""Property-based tests for turnstile windows over ASketch and for
KernelGroup."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asketch import ASketch
from repro.core.kernel_group import KernelGroup

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=80), min_size=1, max_size=400
)


def _windowed(keys, window, **params) -> ASketch:
    """An ASketch over the last ``window`` of ``keys``: each arrival
    first removes the key that left the window (Appendix A's turnstile
    deletion), then counts the new one."""
    synopsis = ASketch(total_bytes=16 * 1024, num_hashes=8, **params)
    for position, key in enumerate(keys):
        if position >= window:
            synopsis.remove(keys[position - window], 1)
        synopsis.update(key, 1)
    return synopsis


class TestWindowProperties:
    @given(
        keys=keys_strategy,
        window=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_window_one_sided_over_last_w(self, keys, window, seed):
        """Estimates over-estimate exactly the last ``window`` tuples."""
        synopsis = _windowed(keys, window, filter_items=4, seed=seed)
        truth = Counter(keys[-window:])
        for key in set(keys):
            assert synopsis.query(key) >= truth.get(key, 0)
        assert synopsis.total_mass == min(len(keys), window)

    @given(keys=keys_strategy, window=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_mass_conservation_after_full_drain(self, keys, window):
        """Once every original tuple has been removed, the synopsis holds
        exactly the window's worth of mass (turnstile adds and removes
        cancel exactly)."""
        sentinel = 10_000
        sentinels = [sentinel + offset for offset in range(window)]
        synopsis = _windowed(keys + sentinels, window, filter_items=4, seed=3)
        resident = sum(
            entry.resident_count for entry in synopsis.filter.entries()
        )
        assert resident + synopsis.sketch.total_count() == window
        # And every sentinel still answers at least 1.
        for key in sentinels:
            assert synopsis.query(key) >= 1


class TestKernelGroupProperties:
    @given(
        chunks=st.lists(keys_strategy, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_merged_queries_one_sided(self, chunks, seed):
        group = KernelGroup(
            len(chunks), total_bytes=16 * 1024, filter_items=4, seed=seed
        )
        truth: Counter = Counter()
        for index, chunk in enumerate(chunks):
            group.process_stream_on(index, np.array(chunk, dtype=np.int64))
            truth.update(chunk)
        for key, count in truth.items():
            assert group.query(key) >= count

    @given(keys=keys_strategy, kernels=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_scatter_conserves_mass(self, keys, kernels):
        group = KernelGroup(kernels, total_bytes=16 * 1024, filter_items=4)
        group.scatter_stream(np.array(keys, dtype=np.int64))
        assert group.total_mass == len(keys)
