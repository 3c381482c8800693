"""Unit tests for the Count-Min sketch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, NegativeCountError
from repro.sketches.base import row_width_for_bytes
from repro.sketches.count_min import CountMinSketch


class TestConstruction:
    def test_exactly_one_sizing_argument(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(8)
        with pytest.raises(ConfigurationError):
            CountMinSketch(8, 100, total_bytes=1024)

    def test_bytes_budget_sets_dimensions(self):
        sketch = CountMinSketch(num_hashes=8, total_bytes=128 * 1024)
        assert sketch.row_width == 128 * 1024 // (8 * 4)
        assert sketch.size_bytes == 128 * 1024

    def test_row_width_for_bytes_too_small(self):
        with pytest.raises(ConfigurationError):
            row_width_for_bytes(16, 8)

    def test_zero_hashes_rejected(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(num_hashes=0, row_width=16)


class TestOneSidedGuarantee:
    def test_never_underestimates(self, skewed_stream):
        sketch = CountMinSketch(num_hashes=4, total_bytes=8 * 1024)
        sketch.update_batch(skewed_stream.keys)
        exact = skewed_stream.exact
        for key, true in exact.top_k(200):
            assert sketch.estimate(key) >= true

    def test_exact_when_no_collisions(self):
        sketch = CountMinSketch(num_hashes=4, row_width=4096, seed=1)
        for key in range(10):
            for _ in range(key + 1):
                sketch.update(key)
        for key in range(10):
            assert sketch.estimate(key) == key + 1

    def test_update_returns_post_update_estimate(self):
        sketch = CountMinSketch(num_hashes=4, row_width=512, seed=2)
        first = sketch.update(42)
        second = sketch.update(42)
        assert second >= first + 1


class TestErrorBound:
    def test_markov_bound_holds_on_average(self, skewed_stream):
        """Mean over-estimation <= (e/h) * N for a healthy margin of keys."""
        sketch = CountMinSketch(num_hashes=8, total_bytes=32 * 1024)
        sketch.update_batch(skewed_stream.keys)
        exact = skewed_stream.exact
        bound = (math.e / sketch.row_width) * exact.total
        keys = [key for key, _ in exact.top_k(500)]
        estimates = sketch.estimate_batch(np.array(keys))
        truths = [exact.count_of(k) for k in keys]
        violations = sum(
            1 for est, true in zip(estimates, truths) if est - true > bound
        )
        # The bound holds per-key w.p. >= 1 - e^-8 ~ 0.99966.
        assert violations <= 2


class TestBatchScalarEquivalence:
    def test_tables_identical(self, uniform_keys):
        batched = CountMinSketch(num_hashes=4, row_width=777, seed=9)
        batched.update_batch(uniform_keys)
        looped = CountMinSketch(num_hashes=4, row_width=777, seed=9)
        for key in uniform_keys.tolist():
            looped.update(key)
        np.testing.assert_array_equal(batched.table, looped.table)

    def test_estimate_batch_matches_scalar(self, uniform_keys):
        sketch = CountMinSketch(num_hashes=4, row_width=777, seed=9)
        sketch.update_batch(uniform_keys)
        probe = uniform_keys[:100]
        assert sketch.estimate_batch(probe).tolist() == [
            sketch.estimate(int(k)) for k in probe
        ]

    def test_estimate_batch_empty(self):
        sketch = CountMinSketch(num_hashes=2, row_width=64)
        assert sketch.estimate_batch([]).tolist() == []


class TestWeightedAndNegative:
    def test_weighted_updates(self):
        sketch = CountMinSketch(num_hashes=4, row_width=1024, seed=3)
        sketch.update(5, 100)
        sketch.update(5, 23)
        assert sketch.estimate(5) >= 123

    def test_negative_update_valid(self):
        sketch = CountMinSketch(num_hashes=4, row_width=1024, seed=3)
        sketch.update(5, 10)
        sketch.update(5, -4)
        assert sketch.estimate(5) >= 6

    def test_negative_update_below_zero_raises(self):
        sketch = CountMinSketch(num_hashes=4, row_width=1024, seed=3)
        sketch.update(5, 2)
        with pytest.raises(NegativeCountError):
            sketch.update(5, -3)

    @pytest.mark.parametrize("conservative", [False, True])
    @pytest.mark.parametrize("call", ["update", "update_batch",
                                      "update_batch_weighted"])
    def test_refused_negative_update_writes_no_cell(self, call, conservative):
        """A deletion that would drive one cell below zero leaves every
        cell as it was, including the cells it shares with other keys."""
        sketch = CountMinSketch(num_hashes=4, row_width=8, seed=3,
                                conservative=conservative)
        sketch.update(64, 1)
        shared = sketch.hash_columns(64)
        other = next(
            key for key in range(65, 10_000)
            if 0 < sum(a == b for a, b in
                       zip(sketch.hash_columns(key), shared)) < 4
        )
        before = sketch.table.copy()
        keys = np.array([64, other], dtype=np.int64)
        with pytest.raises(NegativeCountError):
            if call == "update":
                sketch.update(other, -1)
            elif call == "update_batch":
                sketch.update_batch(keys, -1)
            else:
                sketch.update_batch_weighted(keys, np.array([-1, -1]))
        np.testing.assert_array_equal(sketch.table, before)

    def test_total_count_tracks_mass(self, uniform_keys):
        sketch = CountMinSketch(num_hashes=4, row_width=512)
        sketch.update_batch(uniform_keys)
        assert sketch.total_count() == len(uniform_keys)


class TestConservativeUpdate:
    def test_conservative_never_less_accurate(self, skewed_stream):
        classic = CountMinSketch(num_hashes=4, total_bytes=8 * 1024, seed=5)
        conservative = CountMinSketch(
            num_hashes=4, total_bytes=8 * 1024, seed=5, conservative=True
        )
        keys = skewed_stream.keys[:20000]
        for key in keys.tolist():
            classic.update(key)
            conservative.update(key)
        exact = skewed_stream.prefix(20000).exact
        for key, true in exact.top_k(100):
            assert true <= conservative.estimate(key) <= classic.estimate(key)

    def test_conservative_batch_falls_back_to_loop(self, uniform_keys):
        direct = CountMinSketch(num_hashes=4, row_width=777, seed=5,
                                conservative=True)
        direct.update_batch(uniform_keys[:2000])
        looped = CountMinSketch(num_hashes=4, row_width=777, seed=5,
                                conservative=True)
        for key in uniform_keys[:2000].tolist():
            looped.update(key)
        np.testing.assert_array_equal(direct.table, looped.table)


class TestOps:
    def test_update_charges_hash_and_cells(self):
        sketch = CountMinSketch(num_hashes=6, row_width=64)
        sketch.update(1)
        assert sketch.ops.hash_evals == 6
        assert sketch.ops.sketch_cell_writes == 6

    def test_estimate_charges_reads(self):
        sketch = CountMinSketch(num_hashes=6, row_width=64)
        sketch.estimate(1)
        assert sketch.ops.sketch_cell_reads == 6

    def test_process_stream_charges_items(self, uniform_keys):
        sketch = CountMinSketch(num_hashes=4, row_width=512)
        sketch.process_stream(uniform_keys)
        assert sketch.ops.items == len(uniform_keys)
