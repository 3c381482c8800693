"""Tests for the hash-partitioned ASketch shards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, NegativeCountError
from repro.obs import install_registry, uninstall_registry
from repro.runtime.sharding import ShardedASketch, group_by_owner
from repro.streams.zipf import zipf_stream

@pytest.fixture(scope="module")
def stream():
    return zipf_stream(40_000, 10_000, 1.5, seed=161)

@pytest.fixture()
def sharded():
    return ShardedASketch(4, total_bytes=32 * 1024, filter_items=16, seed=14)


class TestRouting:
    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedASketch(0, total_bytes=32 * 1024)

    def test_ownership_deterministic(self, sharded):
        for key in range(100):
            assert sharded.shard_of(key) == sharded.shard_of(key)
            assert 0 <= sharded.shard_of(key) < 4

    def test_mass_partitioned_completely(self, sharded, stream):
        sharded.process_stream(stream.keys)
        assert sharded.total_mass == len(stream)
        per_shard = [shard.total_mass for shard in sharded.shards]
        assert all(mass > 0 for mass in per_shard)

    def test_key_mass_on_owner_only(self, sharded, stream):
        sharded.process_stream(stream.keys)
        key = int(stream.true_top_k(1)[0][0])
        owner = sharded.shard_of(key)
        for index, shard in enumerate(sharded.shards):
            estimate = shard.query(key)
            if index == owner:
                assert estimate > 0
            else:
                # Non-owners never saw the key; only collisions remain.
                assert estimate < stream.exact.count_of(key)


class TestQueries:
    def test_one_sided(self, sharded, stream):
        sharded.process_stream(stream.keys)
        for key, count in stream.exact.top_k(300):
            assert sharded.query(key) >= count

    def test_chunked_equals_whole(self, stream):
        whole = ShardedASketch(4, total_bytes=32 * 1024, seed=15)
        whole.process_stream(stream.keys)
        chunked = ShardedASketch(4, total_bytes=32 * 1024, seed=15)
        for chunk in stream.chunks(4_000):
            chunked.process_stream(chunk)
        probe = stream.keys[:200]
        np.testing.assert_array_equal(
            whole.query_batch(probe), chunked.query_batch(probe)
        )

    def test_global_topk(self, sharded, stream):
        sharded.process_stream(stream.keys)
        reported = {key for key, _ in sharded.top_k(10)}
        truth = {key for key, _ in stream.true_top_k(10)}
        assert len(reported & truth) >= 9

    def test_heavy_hitters_global(self, sharded, stream):
        sharded.process_stream(stream.keys)
        threshold = int(0.01 * len(stream))
        reported = {key for key, _ in sharded.heavy_hitters(threshold)}
        for key, count in stream.exact.items():
            if count >= threshold:
                assert key in reported

    def test_update_and_remove_route_consistently(self, sharded):
        sharded.update(42, 10)
        assert sharded.query(42) >= 10
        sharded.remove(42, 4)
        assert sharded.query(42) >= 6

    def test_size_accounting(self, sharded):
        assert sharded.size_bytes == sum(
            shard.size_bytes for shard in sharded.shards
        )


class TestKeyValidation:
    """Keys that are not a 1-D vector fail before any routing or state."""

    BAD_KEYS = [np.arange(20).reshape(4, 5), np.array(7)]

    @pytest.mark.parametrize("keys", BAD_KEYS, ids=["2-D", "0-d"])
    def test_ingest_rejects_and_changes_nothing(self, sharded, stream, keys):
        sharded.process_batch(stream.keys[:5_000])
        before = sharded.state()
        registry = install_registry()
        try:
            with pytest.raises(ConfigurationError, match="one-dimensional"):
                sharded.process_batch(keys)
            with pytest.raises(ConfigurationError, match="one-dimensional"):
                sharded.process_stream(keys)
            assert list(registry.instruments()) == []
        finally:
            uninstall_registry()
        assert sharded.total_mass == 5_000
        assert sharded.state().equals(before)

    @pytest.mark.parametrize("keys", BAD_KEYS, ids=["2-D", "0-d"])
    def test_query_and_routing_reject(self, sharded, stream, keys):
        sharded.process_batch(stream.keys[:5_000])
        before = sharded.state()
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            sharded.query_batch(keys)
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            sharded.owners_of(keys)
        assert sharded.state().equals(before)

    def test_vectors_still_route(self, sharded):
        keys = [3, 1, 4, 1, 5]
        owners = sharded.owners_of(keys)
        assert owners.tolist() == [sharded.shard_of(k) for k in keys]
        sharded.process_batch(keys)
        assert sharded.query_batch(keys).tolist() == [sharded.query(k) for k in keys]
        assert sharded.query_batch([]).tolist() == []


class TestCountValidation:
    """Counts that do not fit the keys fail before routing, metrics or
    any shard's ingest."""

    def _rejects_and_changes_nothing(self, sharded, stream, keys, counts,
                                     error):
        sharded.process_batch(stream.keys[:5_000])
        before = [shard.state() for shard in sharded.shards]
        registry = install_registry()
        try:
            with pytest.raises(error):
                sharded.process_batch(keys, counts)
            with pytest.raises(error):
                sharded.ingest_routed(keys, sharded.owners_of(keys), counts)
            assert list(registry.instruments()) == []
        finally:
            uninstall_registry()
        assert sharded.total_mass == 5_000
        for shard, state in zip(sharded.shards, before):
            assert shard.state().equals(state)

    def test_count_shape_mismatch(self, sharded, stream):
        keys = np.arange(10, dtype=np.int64)
        counts = np.ones(7, dtype=np.int64)
        self._rejects_and_changes_nothing(
            sharded, stream, keys, counts, ConfigurationError
        )

    def test_negative_count_in_a_later_shard(self, sharded, stream):
        keys = np.arange(40, dtype=np.int64)
        owners = sharded.owners_of(keys)
        # Shard 0 owns some of the chunk, and the bad count sits in
        # shard 1's share, which routing reaches after shard 0's.
        assert (owners == 0).any()
        counts = np.ones(40, dtype=np.int64)
        counts[np.flatnonzero(owners == 1)[0]] = -1
        self._rejects_and_changes_nothing(
            sharded, stream, keys, counts, NegativeCountError
        )


class TestOwnerPartition:
    """One stable sort by owner feeds every shard exactly the keys it
    would get by masking the chunk with its own index."""

    @pytest.mark.parametrize("count", [1, 2, 3, 300, 70_000])
    def test_group_by_owner_is_a_stable_grouping(self, count):
        owners = np.random.default_rng(count).integers(0, count, 5_000)
        order, ends = group_by_owner(owners, count)
        assert ends.shape == (count,) and ends[-1] == owners.shape[0]
        starts = np.concatenate([[0], ends[:-1]])
        for owner in np.unique(owners[:50]):
            block = order[starts[owner]:ends[owner]]
            np.testing.assert_array_equal(
                block, np.flatnonzero(owners == owner)
            )
        assert np.all(np.diff(owners[order]) >= 0)

    @staticmethod
    def _assert_same_shards(group, reference):
        for mine, theirs in zip(group.shards, reference.shards):
            assert mine.state().equals(theirs.state())
            assert mine.ops == theirs.ops

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 300])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_process_batch_equals_masked_feeds(self, stream, shards,
                                               weighted):
        params = dict(total_bytes=4 * 1024, filter_items=8, seed=21)
        group = ShardedASketch(shards, **params)
        reference = ShardedASketch(shards, **params)
        rng = np.random.default_rng(shards)
        for chunk in stream.chunks(5_000):
            counts = (
                rng.integers(0, 4, size=chunk.shape[0]) if weighted else None
            )
            group.process_batch(chunk, counts)
            owners = reference.owners_of(chunk)
            for index, shard in enumerate(reference.shards):
                mask = owners == index
                if mask.any():
                    shard.process_batch(
                        chunk[mask], None if counts is None else counts[mask]
                    )
        self._assert_same_shards(group, reference)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 300])
    def test_process_stream_and_query_batch(self, stream, shards):
        params = dict(total_bytes=4 * 1024, filter_items=8, seed=22)
        group = ShardedASketch(shards, **params)
        reference = ShardedASketch(shards, **params)
        keys = stream.keys[:12_000]
        for chunk in np.split(keys, 3):
            group.process_stream(chunk)
            owners = reference.owners_of(chunk)
            for index, shard in enumerate(reference.shards):
                if (owners == index).any():
                    shard.process_stream(chunk[owners == index])
        self._assert_same_shards(group, reference)
        probe = np.concatenate([keys[:3_000], np.arange(-50, 50)])
        assert group.query_batch(probe).tolist() == [
            group.query(int(key)) for key in probe
        ]
