"""Tests for the FrequencySketch base-class plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters
from repro.sketches.base import (
    CELL_BYTES,
    FrequencySketch,
    row_width_for_bytes,
)


class MinimalSketch(FrequencySketch):
    """Smallest possible conforming implementation (exact dict counts)."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.ops = OpCounters()

    @property
    def size_bytes(self) -> int:
        return 64

    def update(self, key: int, amount: int = 1) -> int:
        self.counts[key] = self.counts.get(key, 0) + amount
        return self.counts[key]

    def estimate(self, key: int) -> int:
        return self.counts.get(key, 0)


class TestDefaults:
    def test_default_update_batch_loops(self):
        sketch = MinimalSketch()
        sketch.update_batch(np.array([1, 1, 2]))
        assert sketch.counts == {1: 2, 2: 1}

    def test_default_estimate_batch_loops(self):
        sketch = MinimalSketch()
        sketch.update(5, 3)
        assert sketch.estimate_batch([5, 6]).tolist() == [3, 0]

    def test_process_stream_charges_items(self):
        sketch = MinimalSketch()
        sketch.process_stream(np.array([1, 2, 3]))
        assert sketch.ops.items == 3
        assert sketch.counts == {1: 1, 2: 1, 3: 1}


class TestSizing:
    def test_cell_bytes_is_paper_accounting(self):
        assert CELL_BYTES == 4

    @pytest.mark.parametrize(
        "total,hashes,expected",
        [(128 * 1024, 8, 4096), (16 * 1024, 8, 512), (64, 2, 8)],
    )
    def test_row_width_for_bytes(self, total, hashes, expected):
        assert row_width_for_bytes(total, hashes) == expected

    def test_invalid_hash_count(self):
        with pytest.raises(ConfigurationError):
            row_width_for_bytes(1024, 0)
