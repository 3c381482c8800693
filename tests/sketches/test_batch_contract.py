"""The batch contract every back stage of a StagedSynopsis keeps.

``update_batch_weighted`` is the batch twin of the scalar ``update``: it
returns every key's estimate after the whole batch, as an int64 array,
and that array must equal ``estimate_batch`` read afterwards — the
batched exchange check reads it instead of re-probing the sketch.  The
query side answers in one form on every synopsis: an int64 array,
whether the keys come as an array or any other iterable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.core.kernel_group import KernelGroup
from repro.counters.space_saving import SpaceSaving
from repro.errors import ConfigurationError
from repro.experiments.common import total_ops
from repro.hardware.costs import OpCounters
from repro.hashing.families import encode_key_array
from repro.runtime.reliability import ShardSupervisor
from repro.runtime.sharding import ShardedASketch
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.fcm import FrequencyAwareCountMin
from repro.sketches.holistic_udaf import HolisticUDAF
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
            assert returned.tolist() == sketch.estimate_batch(keys).tolist()

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
                assert returned.tolist() == sketch.estimate_batch(keys).tolist()

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


#: Every synopsis with a batch point query, built small.
BATCH_QUERY_KINDS = {
    **SKETCH_KINDS,
    "space-saving": lambda: SpaceSaving(16),
    **{
        f"asketch-{kind}": (
            lambda kind=kind: ASketch(
                total_bytes=8 * 1024, filter_items=16, filter_kind=kind,
                seed=5,
            )
        )
        for kind in ("relaxed-heap", "stream-summary", "strict-heap",
                     "vector")
    },
    "sharded": lambda: ShardedASketch(
        3, total_bytes=24 * 1024, filter_items=16, seed=5
    ),
    "kernel-group": lambda: KernelGroup(2, total_bytes=8 * 1024, seed=5),
    "shard-supervisor": lambda: ShardSupervisor(
        shards=3, total_bytes=24 * 1024, filter_items=16, seed=5
    ),
}


def _ingested(kind: str):
    synopsis = BATCH_QUERY_KINDS[kind]()
    keys = zipf_stream(20_000, 3_000, 1.2, seed=4).keys
    ingest = getattr(synopsis, "scatter_stream", None) or (
        synopsis.process_stream
    )
    ingest(keys)
    probes = np.concatenate([keys[:300], np.arange(-25, 25),
                             np.arange(5_000, 5_050)])
    return synopsis, probes


def _batch_and_scalar(synopsis):
    batch = getattr(synopsis, "query_batch", None) or synopsis.estimate_batch
    scalar = getattr(synopsis, "query", None) or synopsis.estimate
    return batch, scalar


def _ops_of(synopsis) -> OpCounters:
    """Every operation record the synopsis charges, merged."""
    if isinstance(synopsis, ShardSupervisor):
        synopsis = synopsis.group
    if isinstance(synopsis, ShardedASketch):
        merged = OpCounters()
        for shard in synopsis.shards:
            merged.merge(shard.combined_ops())
        return merged
    if isinstance(synopsis, KernelGroup):
        return synopsis.combined_ops()
    return total_ops(synopsis)


class TestOneAnswerType:
    """``query_batch`` / ``estimate_batch`` answer in one form: a 1-D
    int64 array equal to the per-key answers, whatever iterable the keys
    come in, charged exactly as the per-key queries are charged."""

    @pytest.mark.parametrize("kind", sorted(BATCH_QUERY_KINDS))
    def test_per_key_answers(self, kind):
        synopsis, probes = _ingested(kind)
        batch, scalar = _batch_and_scalar(synopsis)
        answers = batch(probes)
        assert isinstance(answers, np.ndarray)
        assert answers.dtype == np.int64
        assert answers.shape == probes.shape
        assert answers.tolist() == [scalar(int(k)) for k in probes]
        assert batch(probes.tolist()).tolist() == answers.tolist()
        assert batch(int(k) for k in probes).tolist() == answers.tolist()
        empty = batch(np.empty(0, dtype=np.int64))
        assert empty.dtype == np.int64
        assert empty.shape == (0,)

    @pytest.mark.parametrize("kind", sorted(BATCH_QUERY_KINDS))
    def test_per_key_ops(self, kind):
        batched, probes = _ingested(kind)
        looped, _ = _ingested(kind)
        before = _ops_of(batched).snapshot()
        _batch_and_scalar(batched)[0](probes)
        charged = _ops_of(batched).diff(before)
        before = _ops_of(looped).snapshot()
        scalar = _batch_and_scalar(looped)[1]
        for key in probes.tolist():
            scalar(key)
        assert charged == _ops_of(looped).diff(before)


#: Keys whose ZigZag code needs all 64 bits, and the largest whose code
#: fits 63: a signed code wraps for the first three.
EXTREME_KEYS = [1 << 62, (1 << 63) - 1, -(1 << 63), (1 << 62) - 1]


class TestExtremeKeys:
    """Scalar and batch paths hash every int64 key alike, so each path
    reads what the other wrote (one key alone answers its exact count)."""

    @pytest.mark.parametrize("kind", ["count-min", "count-sketch"])
    @pytest.mark.parametrize("key", EXTREME_KEYS)
    def test_scalar_update_batch_read(self, kind, key):
        sketch = SKETCH_KINDS[kind]()
        sketch.update(key, 5)
        assert sketch.estimate_batch(np.array([key])).tolist() == [5]
        assert sketch.estimate_batch([key, key]).tolist() == [5, 5]

    @pytest.mark.parametrize("kind", ["count-min", "count-sketch"])
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


#: Arrays no int64 cast can read without mangling a key.
REJECTED_KEYS = {
    "float": lambda: np.array([1.5, 2.0]),
    "object": lambda: np.array([1, "x"], dtype=object),
    "uint64-above-int64-max": lambda: np.array([1, 1 << 63], dtype=np.uint64),
}

BATCH_CALLS = {
    "update_batch": lambda sketch, keys: sketch.update_batch(keys),
    "update_batch_weighted": lambda sketch, keys: sketch.update_batch_weighted(
        keys, np.ones(len(keys), dtype=np.int64)
    ),
    "estimate_batch": lambda sketch, keys: sketch.estimate_batch(keys),
}


class TestRejectedKeys:
    """Every batch call refuses keys outside int64 before any state
    changes, with the key rule the staged synopses and the ingest loop
    apply."""

    @pytest.mark.parametrize("call", sorted(BATCH_CALLS))
    @pytest.mark.parametrize("bad", sorted(REJECTED_KEYS))
    @pytest.mark.parametrize("kind", sorted(SKETCH_KINDS))
    def test_every_kind_refuses_before_any_change(self, kind, bad, call):
        sketch = SKETCH_KINDS[kind]()
        for keys, amounts in _batches(seed=2, domain=100):
            sketch.update_batch_weighted(keys, amounts)
        before = sketch.state()
        with pytest.raises(ConfigurationError, match="invalid keys"):
            BATCH_CALLS[call](sketch, REJECTED_KEYS[bad]())
        assert sketch.state().equals(before)


#: Counts no int64 cast can read without mangling one: a cast truncates
#: fractions, parses strings, turns NaN and 1e30 into garbage and wraps
#: a uint64 count above INT64_MAX negative.
REJECTED_COUNTS = {
    "fraction-above-one": lambda: np.array([1.5]),
    "fraction-below-one": lambda: np.array([0.4]),
    "string": lambda: np.array(["3"]),
    "nan": lambda: np.array([np.nan]),
    "huge-float": lambda: np.array([1e30]),
    "object": lambda: np.array([3], dtype=object),
    "uint64-above-int64-max": lambda: np.array([1 << 63], dtype=np.uint64),
}

STAGED_KINDS = {
    "asketch": lambda: ASketch(total_bytes=8 * 1024, filter_items=4, seed=5),
    "sharded": lambda: ShardedASketch(
        2, total_bytes=8 * 1024, filter_items=4, seed=5
    ),
}


class TestRejectedCounts:
    """``process_batch(keys, counts)`` reads counts by the count rule
    (``count_dtype_problem``): anything else raises
    :class:`ConfigurationError` before any state changes."""

    @pytest.mark.parametrize("bad", sorted(REJECTED_COUNTS))
    @pytest.mark.parametrize("kind", sorted(STAGED_KINDS))
    def test_refused_before_any_change(self, kind, bad):
        synopsis = STAGED_KINDS[kind]()
        synopsis.process_batch(np.arange(40, dtype=np.int64) % 7)
        before, mass = synopsis.state(), synopsis.total_mass
        with pytest.raises(ConfigurationError, match="counts must be integers"):
            synopsis.process_batch(
                np.array([3], dtype=np.int64), REJECTED_COUNTS[bad]()
            )
        assert synopsis.total_mass == mass
        assert synopsis.state().equals(before)

    @pytest.mark.parametrize("kind", sorted(STAGED_KINDS))
    def test_integer_counts_of_any_width_are_read(self, kind):
        synopsis = STAGED_KINDS[kind]()
        synopsis.process_batch(
            np.array([3, 4], dtype=np.int64), np.array([2, 5], dtype=np.uint8)
        )
        synopsis.process_batch([], [])
        assert synopsis.total_mass == 7
        assert synopsis.query(4) >= 5



#: Scalar counts the count rule refuses: a fraction, a value past
#: INT64_MAX and a string.
REJECTED_SCALAR_COUNTS = {"fraction": 1.5, "above-int64-max": 1 << 63,
                          "string": "3"}

SCALAR_CALLS = {
    "update": lambda synopsis, amount: synopsis.update(7, amount),
    "process": lambda synopsis, amount: synopsis.process(7, amount),
    "remove": lambda synopsis, amount: synopsis.remove(7, amount),
}


class TestRejectedScalarCounts:
    """``update`` / ``process`` / ``remove`` read ``amount`` by the same
    count rule as ``process_batch``: anything else raises
    :class:`ConfigurationError` before any state changes."""

    @pytest.mark.parametrize("call", sorted(SCALAR_CALLS))
    @pytest.mark.parametrize("bad", sorted(REJECTED_SCALAR_COUNTS))
    @pytest.mark.parametrize(
        "kind", ["relaxed-heap", "stream-summary", "strict-heap", "vector"]
    )
    def test_refused_before_any_change(self, kind, bad, call):
        synopsis = ASketch(total_bytes=4096, filter_items=4, filter_kind=kind)
        synopsis.process_batch(np.arange(40, dtype=np.int64) % 7)
        synopsis.update(7, 3)
        before, mass = synopsis.state(), synopsis.total_mass
        with pytest.raises(ConfigurationError, match="counts must be integers"):
            SCALAR_CALLS[call](synopsis, REJECTED_SCALAR_COUNTS[bad])
        assert synopsis.total_mass == mass
        assert synopsis.state().equals(before)

    def test_sharded_update_is_refused(self):
        group = STAGED_KINDS["sharded"]()
        with pytest.raises(ConfigurationError, match="counts must be integers"):
            group.update(7, 1.5)
        assert group.total_mass == 0

    def test_integer_scalars_of_any_width_are_read(self):
        synopsis = ASketch(total_bytes=4096, filter_items=4)
        synopsis.update(7, np.uint8(2))
        synopsis.process(7, np.int64(3))
        synopsis.remove(7, True)
        assert synopsis.total_mass == 4
        assert type(synopsis.total_mass) is int