"""The batch contract every back stage of a StagedSynopsis keeps.

``update_batch_weighted`` is the batch twin of the scalar ``update``: it
returns every key's estimate after the whole batch, as an int64 array,
and that array must equal ``estimate_batch`` read afterwards — the
batched exchange check reads it instead of re-probing the sketch.  The
query side answers in plain Python ``int`` lists whether the keys come
as an array or any other iterable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.hashing.families import encode_key_array
from repro.runtime.sharding import ShardedASketch
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.fcm import FrequencyAwareCountMin
from repro.sketches.holistic_udaf import HolisticUDAF
from repro.sketches.salsa import SalsaCountMin
from repro.sketches.sf_sketch import SFSketch
from repro.streams.zipf import zipf_stream

SKETCH_KINDS = {
    "count-min": lambda: CountMinSketch(num_hashes=4, row_width=61, seed=3),
    "count-min-conservative": lambda: CountMinSketch(
        num_hashes=4, row_width=61, seed=3, conservative=True
    ),
    "count-sketch": lambda: CountSketch(num_hashes=5, row_width=61, seed=3),
    "fcm": lambda: FrequencyAwareCountMin(
        num_hashes=6, total_bytes=2048, seed=3
    ),
    "fcm-no-mg": lambda: FrequencyAwareCountMin(
        num_hashes=6, total_bytes=2048, use_mg_counter=False, seed=3
    ),
    "salsa-cm": lambda: SalsaCountMin(num_hashes=4, total_bytes=1024, seed=3),
    "sf-sketch": lambda: SFSketch(num_hashes=4, total_bytes=1024, seed=3),
    "holistic-udaf": lambda: HolisticUDAF(
        table_items=8, total_bytes=2048, num_hashes=4, seed=3
    ),
}

def _batches(seed: int, domain: int, offset: int = 0):
    """Three weighted batches; the last repeats keys within itself."""
    rng = np.random.default_rng(seed)
    for size in (40, 120, 60):
        keys = rng.integers(0, domain, size=size).astype(np.int64) + offset
        amounts = rng.integers(1, 30, size=size).astype(np.int64)
        yield keys, amounts


class TestUpdateReturnsEstimates:
    @pytest.mark.parametrize("kind", sorted(SKETCH_KINDS))
    def test_every_kind_returns_post_batch_estimates(self, kind):
        sketch = SKETCH_KINDS[kind]()
        for keys, amounts in _batches(seed=21, domain=300):
            returned = sketch.update_batch_weighted(keys, amounts)
            assert isinstance(returned, np.ndarray)
            assert returned.dtype == np.int64
            assert returned.tolist() == sketch.estimate_batch(keys)

    @pytest.mark.parametrize("kind", sorted(SKETCH_KINDS))
    def test_empty_batch(self, kind):
        sketch = SKETCH_KINDS[kind]()
        empty = np.empty(0, dtype=np.int64)
        returned = sketch.update_batch_weighted(empty, empty)
        assert returned.shape == (0,)
        assert returned.dtype == np.int64

    def test_count_min_kernel_and_huge_key_paths(self):
        # Keys at or above 2**30 encode at or above 2**31 and take the
        # per-row hash_array path instead of the fused kernel.
        for offset in (0, 1 << 40):
            sketch = CountMinSketch(num_hashes=4, row_width=61, seed=3)
            for keys, amounts in _batches(5, 500, offset):
                assert sketch._kernel_ready(
                    encode_key_array(keys)
                ) == (offset == 0)
                returned = sketch.update_batch_weighted(keys, amounts)
                assert returned.tolist() == sketch.estimate_batch(keys)

    def test_count_min_charges_update_plus_estimate(self):
        # One fused pass, but the operation record is the one a separate
        # update and estimate_batch would leave: the §4 cost model and
        # the staged golden file read it.
        sketch = CountMinSketch(num_hashes=4, row_width=61, seed=3)
        keys = np.arange(25, dtype=np.int64)
        sketch.update_batch_weighted(keys, np.ones(25, dtype=np.int64))
        assert sketch.ops.hash_evals == 2 * 4 * 25
        assert sketch.ops.sketch_cell_writes == 4 * 25
        assert sketch.ops.sketch_cell_reads == 4 * 25


def _plain_ints(values) -> bool:
    return isinstance(values, list) and all(type(v) is int for v in values)


class TestQueryAnswersArePlainInts:
    @pytest.mark.parametrize("kind", ["count-min", "count-sketch", "salsa-cm"])
    def test_sketch_estimate_batch(self, kind):
        sketch = SKETCH_KINDS[kind]()
        for keys, amounts in _batches(seed=8, domain=200):
            sketch.update_batch_weighted(keys, amounts)
        probes = np.arange(-5, 260, dtype=np.int64)
        from_array = sketch.estimate_batch(probes)
        from_list = sketch.estimate_batch(probes.tolist())
        from_generator = sketch.estimate_batch(int(k) for k in probes)
        assert _plain_ints(from_array)
        assert from_array == from_list == from_generator
        assert from_array == [sketch.estimate(int(k)) for k in probes]
        assert sketch.estimate_batch(np.empty(0, dtype=np.int64)) == []

    def test_staged_and_sharded_query_batch(self):
        keys = zipf_stream(20_000, 3_000, 1.2, seed=4).keys
        probes = np.concatenate([keys[:300], np.arange(5_000, 5_050)])
        asketch = ASketch(total_bytes=8 * 1024, filter_items=16, seed=5)
        group = ShardedASketch(3, total_bytes=24 * 1024, filter_items=16,
                               seed=5)
        for synopsis in (asketch, group):
            for start in range(0, keys.shape[0], 2_000):
                synopsis.process_batch(keys[start:start + 2_000])
            answers = synopsis.query_batch(probes)
            assert _plain_ints(answers)
            assert answers == synopsis.query_batch(probes.tolist())
            assert answers == [synopsis.query(int(k)) for k in probes]


#: Keys whose ZigZag code needs all 64 bits, and the largest whose code
#: fits 63: a signed code wraps for the first three.
EXTREME_KEYS = [1 << 62, (1 << 63) - 1, -(1 << 63), (1 << 62) - 1]


class TestExtremeKeys:
    """Scalar and batch paths hash every int64 key alike, so each path
    reads what the other wrote (one key alone answers its exact count)."""

    @pytest.mark.parametrize("kind", ["count-min", "count-sketch", "salsa-cm"])
    @pytest.mark.parametrize("key", EXTREME_KEYS)
    def test_scalar_update_batch_read(self, kind, key):
        sketch = SKETCH_KINDS[kind]()
        sketch.update(key, 5)
        assert sketch.estimate_array(np.array([key])).tolist() == [5]
        assert sketch.estimate_batch([key, key]) == [5, 5]

    @pytest.mark.parametrize("kind", ["count-min", "count-sketch", "salsa-cm"])
    @pytest.mark.parametrize("key", EXTREME_KEYS)
    def test_batch_update_scalar_read(self, kind, key):
        sketch = SKETCH_KINDS[kind]()
        returned = sketch.update_batch_weighted(
            np.array([key], dtype=np.int64), np.array([5], dtype=np.int64)
        )
        assert returned.tolist() == [5]
        assert sketch.estimate(key) == 5

    def test_codes_are_exact_uint64(self):
        codes = encode_key_array(np.array(EXTREME_KEYS, dtype=np.int64))
        assert codes.dtype == np.uint64
        assert codes.tolist() == [1 << 63, (1 << 64) - 2, (1 << 64) - 1,
                                  (1 << 63) - 2]

    def test_shard_of_agrees_with_owners_of(self):
        group = ShardedASketch(5, total_bytes=8 * 1024, filter_items=4, seed=9)
        rng = np.random.default_rng(4)
        keys = np.concatenate([
            np.array(EXTREME_KEYS + [-1, 0, 1, -(1 << 62)], dtype=np.int64),
            rng.integers(-(1 << 63), (1 << 63) - 1, size=200, dtype=np.int64),
        ])
        owners = group.owners_of(keys)
        assert owners.tolist() == [group.shard_of(int(k)) for k in keys]
