"""Hash-partitioned ASketch shards (key-ownership scale-out).

Unlike the §6.3 kernel group — where every kernel sees its *own* stream
and point queries sum across kernels — a sharded deployment routes each
key to exactly one shard by hash.  Queries then touch a single shard
(no merging, no summing of independent errors), and each shard's filter
adapts to its own partition's heavy hitters.  This is the layout a
multi-core collector over one ingress stream typically uses.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.asketch import ASketch
from repro.core.staged import _count_vector, _key_vector
from repro.errors import ConfigurationError
from repro.hashing import make_hash_family
from repro.obs.registry import MetricsRegistry, current_registry
from repro.hashing.families import encode_key_array, key_to_int
from repro.synopses.protocol import (
    SynopsisState,
    pack_nested,
    prefix_arrays,
    unpack_nested,
)


def record_routing(registry: MetricsRegistry, shares: np.ndarray) -> None:
    """Record one chunk's per-shard routing into the registry.

    ``shares[s]`` is the number of the chunk's keys owned by shard ``s``
    (non-empty chunk).  Emits per-shard item counters plus a
    ``shard_skew`` gauge — the chunk's largest share over the balanced
    share (1.0 = perfectly even routing), the live signal for partition
    hot spots.
    """
    for index, share in enumerate(shares.tolist()):
        if share:
            registry.counter("shard_items_total", shard=str(index)).inc(share)
    balanced = int(shares.sum()) / len(shares)
    registry.gauge("shard_skew").set(float(shares.max()) / balanced)


def group_by_owner(owners: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """A stable permutation grouping a batch by owner (ids in
    ``[0, count)``), and each owner's end offset in it: owner ``o``'s
    items, in batch order, are ``np.split(order, ends[:-1])[o]``.  The
    ids are sorted as uint8 (up to 256 owners) or uint16 (up to
    65,536), which numpy's stable sort orders by radix."""
    narrow = owners.astype(np.min_scalar_type(count - 1))
    order = np.argsort(narrow, kind="stable")
    return order, np.cumsum(np.bincount(owners, minlength=count))


class ShardedASketch:
    """Route keys to ASketch shards by a dedicated partition hash.

    Parameters
    ----------
    shards:
        Number of partitions.
    total_bytes:
        Budget **per shard** (matching how per-core synopses are sized
        in §6.3's experiments).
    filter_items, filter_kind, num_hashes, seed:
        Forwarded to each shard's ASketch.
    sketch_backend:
        Back-stage sketch for every shard (any backend
        :class:`~repro.core.asketch.ASketch` accepts — ``"count-min"``
        default, ``"fcm"``, ``"count-sketch"``).
    """

    def __init__(
        self,
        shards: int,
        total_bytes: int,
        filter_items: int = 32,
        filter_kind: str = "relaxed-heap",
        num_hashes: int = 8,
        seed: int = 0,
        sketch_backend: str = "count-min",
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.total_bytes = int(total_bytes)
        self.filter_items = int(filter_items)
        self.filter_kind = filter_kind
        self.num_hashes = int(num_hashes)
        self.seed = int(seed)
        self.sketch_backend = sketch_backend
        self._router = make_hash_family("carter-wegman", shards, seed + 999)
        # Every shard shares one sketch seed: key ownership is exclusive,
        # so shards never alias each other's keys into shared cells, and
        # identical hash geometry is what lets :meth:`reduce` collapse
        # the group into a single ASketch by cell-wise sketch addition.
        self._shards = [
            ASketch(
                total_bytes=total_bytes,
                filter_items=filter_items,
                filter_kind=filter_kind,
                num_hashes=num_hashes,
                seed=seed * 6151,
                sketch_backend=sketch_backend,
            )
            for _ in range(shards)
        ]

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[ASketch]:
        """The per-partition ASketches (read access)."""
        return list(self._shards)

    def shard_of(self, key: int) -> int:
        """The shard index owning a key."""
        return self._router(key_to_int(key))

    def owners_of(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of`: the owner index for each key.

        This is the routing decision the ingest/query paths use; it is
        public so callers (e.g. the worker fleet's chunk router in
        :mod:`repro.runtime.parallel`) can partition chunks identically
        without re-deriving the router.  Keys that are not
        one-dimensional raise :class:`ConfigurationError`.
        """
        keys = _key_vector(keys)
        return self._router.hash_array(encode_key_array(keys))

    # -- ingestion --------------------------------------------------------

    def _record_routing(self, owners: np.ndarray) -> None:
        registry = current_registry()
        if registry is not None and owners.size:
            record_routing(
                registry, np.bincount(owners, minlength=len(self._shards))
            )

    def process_stream(self, keys: np.ndarray) -> None:
        """Partition a chunk by owner and feed each shard its share.

        The stable owner sort of :func:`group_by_owner` preserves
        arrival order within a shard, which is all exchanges depend on.
        """
        keys = _key_vector(keys)
        owners = self._router.hash_array(encode_key_array(keys))
        self._record_routing(owners)
        order, ends = group_by_owner(owners, len(self._shards))
        for shard, share in zip(self._shards, np.split(keys[order], ends[:-1])):
            if share.size:
                shard.process_stream(share)

    def process_batch(
        self, keys: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Partition a chunk by owner and batch-ingest each shard's share.

        The stable owner sort of :func:`group_by_owner` preserves
        first-appearance order within a shard, so each shard sees
        exactly the chunk-granularity exchange semantics of
        :meth:`repro.core.asketch.ASketch.process_batch`.  Keys that
        are not one-dimensional, and counts whose shape is not the
        keys' or that hold a negative count, raise a typed error
        (:class:`ConfigurationError`, :class:`NegativeCountError`)
        before any shard or metric changes.
        """
        keys = _key_vector(keys)
        counts = _count_vector(keys, counts)
        owners = self._router.hash_array(encode_key_array(keys))
        self._record_routing(owners)
        self.ingest_routed(keys, owners, counts)

    def ingest_routed(
        self,
        keys: np.ndarray,
        owners: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        """:meth:`process_batch` for a chunk already routed by
        :meth:`owners_of`, recording no routing metrics — for a caller
        that recorded them when it routed the chunk.  Invalid counts
        raise as in :meth:`process_batch`, before any shard changes."""
        keys = np.asarray(keys, dtype=np.int64)
        counts = _count_vector(keys, counts)
        order, ends = group_by_owner(owners, len(self._shards))
        shares = np.split(keys[order], ends[:-1])
        weights = [None] * len(shares)
        if counts is not None:
            weights = np.split(counts[order], ends[:-1])
        for shard, share, weight in zip(self._shards, shares, weights):
            if share.size:
                shard.process_batch(share, weight)

    def update(self, key: int, amount: int = 1) -> int:
        """Route one weighted update to its owner shard."""
        return self._shards[self.shard_of(key)].update(key, amount)

    def remove(self, key: int, amount: int = 1) -> None:
        """Route a deletion to its owner shard."""
        self._shards[self.shard_of(key)].remove(key, amount)

    # -- queries ----------------------------------------------------------

    def query(self, key: int) -> int:
        """Point query against the single owner shard (no merging)."""
        return self._shards[self.shard_of(key)].query(key)

    estimate = query

    def query_batch(self, keys: Iterable[int]) -> np.ndarray:
        """Owner-shard point queries for many keys, as an int64 array.

        Groups the batch by owner (:func:`group_by_owner`), runs each
        shard's vectorised ``query_batch`` once on its contiguous share,
        and scatters the answers back into input order with one
        assignment.
        """
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        keys = _key_vector(keys)
        answers = np.empty(keys.shape[0], dtype=np.int64)
        if keys.size == 0:
            return answers
        owners = self._router.hash_array(encode_key_array(keys))
        order, ends = group_by_owner(owners, len(self._shards))
        shares = np.split(keys[order], ends[:-1])
        answers[order] = np.concatenate([
            shard.query_batch(share)
            for shard, share in zip(self._shards, shares) if share.size
        ])
        return answers

    estimate_batch = query_batch

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """Global top-k: union the shard filters and rank.

        Sound because key ownership is exclusive — each shard's filter
        holds the heavy hitters of exactly its own keys.
        """
        merged: list[tuple[int, int]] = []
        for shard in self._shards:
            merged.extend(shard.top_k(shard.filter.capacity))
        merged.sort(key=lambda pair: pair[1], reverse=True)
        return merged[:k]

    def heavy_hitters(self, threshold: int) -> list[tuple[int, int]]:
        """Global threshold query via the per-shard filters."""
        found: list[tuple[int, int]] = []
        for shard in self._shards:
            found.extend(shard.heavy_hitters(threshold))
        found.sort(key=lambda pair: pair[1], reverse=True)
        return found

    # -- stats ------------------------------------------------------------

    @property
    def total_mass(self) -> int:
        """Aggregate stream mass across all shards."""
        return sum(shard.total_mass for shard in self._shards)

    @property
    def size_bytes(self) -> int:
        """Total logical bytes across all shards."""
        return sum(shard.size_bytes for shard in self._shards)

    # -- merge / reduce ----------------------------------------------------

    def merge(self, other: "ShardedASketch") -> None:
        """Shard-wise merge of two groups with identical layout.

        Requires the same shard count and seed (so both groups route any
        key to the same shard index); each shard pair then merges through
        :meth:`repro.core.asketch.ASketch.merge`, preserving the
        one-sided guarantee per partition.  ``other`` is consumed.
        """
        if not isinstance(other, ShardedASketch):
            raise ConfigurationError(
                f"cannot merge ShardedASketch with {type(other).__name__}"
            )
        if len(self) != len(other) or self.seed != other.seed:
            raise ConfigurationError(
                "shard groups must share shard count and seed to merge"
            )
        for mine, theirs in zip(self._shards, other._shards):
            mine.merge(theirs)

    def _check_shard_index(self, index: int) -> None:
        if not 0 <= index < len(self._shards):
            raise ConfigurationError(
                f"shard index {index} out of range for "
                f"{len(self._shards)} shards"
            )

    def install_shard(self, index: int, state: SynopsisState) -> None:
        """Adopt a transferred shard state (a fleet worker's snapshot).

        The local copy of the shard must still be pristine — installing
        over absorbed traffic would double-count that traffic, exactly
        the corruption the fleet's snapshot protocol exists to rule
        out, so it is rejected loudly.
        """
        self._check_shard_index(index)
        if not self._shards[index]._is_pristine():
            raise ConfigurationError(
                f"cannot install shard {index}: local copy is not pristine "
                f"(holds {self._shards[index].total_mass} mass; double "
                "ownership)"
            )
        self._shards[index] = ASketch.from_state(state)

    def nonpristine_states(self) -> dict[int, SynopsisState]:
        """The state of every shard that is not pristine, by index.

        A fleet worker's snapshot (see :mod:`repro.runtime.parallel`):
        the worker is only ever sent keys of the shards it owns, so the
        rest of its group stays pristine and is left out, and the
        parent adopts each listed shard with :meth:`install_shard`.
        """
        return {
            index: shard.state()
            for index, shard in enumerate(self._shards)
            if not shard._is_pristine()
        }

    def reduce(self) -> ASketch:
        """Collapse the group into one stand-alone ASketch.

        Non-destructive: every shard is cloned through its state before
        merging, so the group keeps serving queries afterwards.  The
        shared sketch seed (see ``__init__``) makes the shards cell-wise
        mergeable; the result carries the union of the shard filters
        (capped at one filter's capacity, keeping the highest estimates)
        and one-sided estimates over the whole routed stream.
        """
        clones = [ASketch.from_state(shard.state()) for shard in self._shards]
        reduced = clones[0]
        for clone in clones[1:]:
            reduced.merge(clone)
        return reduced

    # -- synopsis protocol -------------------------------------------------

    SYNOPSIS_KIND = "sharded-asketch"

    def state(self) -> SynopsisState:
        """Group parameters plus every shard's nested state."""
        arrays: dict[str, np.ndarray] = {}
        shard_metadata = []
        for index, shard in enumerate(self._shards):
            shard_state = shard.state()
            arrays.update(prefix_arrays(f"shard{index}", shard_state.arrays))
            shard_metadata.append(pack_nested(shard_state))
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "shards": len(self._shards),
                "total_bytes": self.total_bytes,
                "filter_items": self.filter_items,
                "filter_kind": self.filter_kind,
                "num_hashes": self.num_hashes,
                "seed": self.seed,
                "sketch_backend": self.sketch_backend,
            },
            arrays=arrays,
            extra={"shards": shard_metadata},
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "ShardedASketch":
        group = cls(**state.params)
        group._shards = [
            ASketch.from_state(
                unpack_nested(metadata, state.arrays, f"shard{index}")
            )
            for index, metadata in enumerate(state.extra["shards"])
        ]
        return group
