"""Tests for the hash-partitioned ASketch shards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, NegativeCountError
from repro.obs import install_registry, uninstall_registry
from repro.runtime.sharding import ShardedASketch
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
        assert whole.query_batch(probe) == chunked.query_batch(probe)

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
        assert sharded.query_batch(keys) == [sharded.query(k) for k in keys]
        assert sharded.query_batch([]) == []


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
