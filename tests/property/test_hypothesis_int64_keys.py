"""Property-based tests over the whole int64 key domain.

Every other generator draws keys from ``[0, domain)``; here keys come
from the full int64 range, and -1, 0, ``INT64_MIN`` and ``INT64_MAX``
appear in every stream.  Each filter kind is driven through scalar,
batched and sharded ingest, and the north-star invariants are asserted
on every example: ``query(k) >= true count``, ``query_batch`` equals
the point queries, ``total_mass == len(stream)``, and sharded ingest is
bit-identical to feeding each shard its owned keys in order.  A key
outside the domain (an int beyond int64, a float, a uint64 above
``INT64_MAX``) raises :class:`ConfigurationError` and leaves the
synopsis exactly as it was.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError
from repro.runtime.engine import StreamEngine
from repro.runtime.sharding import ShardedASketch
from repro.sketches.count_min import CountMinSketch

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
FORCED = [-1, 0, INT64_MIN, INT64_MAX]
#: Keys no stream below contains, so their true count is 0.
ABSENT = [-2, 1, INT64_MIN + 1, INT64_MAX - 1]

filter_kinds = st.sampled_from(
    ["vector", "strict-heap", "relaxed-heap", "stream-summary"]
)
seeds = st.integers(min_value=0, max_value=30)
chunk_sizes = st.integers(min_value=1, max_value=64)


@st.composite
def int64_streams(draw) -> np.ndarray:
    """A stream over a small pool of int64 keys (so keys repeat, hit the
    filter and get exchanged) that holds each forced key at least once."""
    others = draw(
        st.lists(
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX).filter(
                lambda key: key not in FORCED and key not in ABSENT
            ),
            max_size=10,
            unique=True,
        )
    )
    pool = FORCED + others
    body = draw(st.lists(st.sampled_from(pool), max_size=300))
    keys = draw(st.permutations(body + FORCED))
    return np.array(keys, dtype=np.int64)


def build(kind: str, seed: int) -> ASketch:
    sketch = CountMinSketch(num_hashes=3, row_width=19, seed=seed)
    return ASketch(sketch=sketch, filter_items=4, filter_kind=kind)


def build_group(kind: str, seed: int, shards: int) -> ShardedASketch:
    return ShardedASketch(
        shards, total_bytes=2048, filter_items=4, filter_kind=kind,
        num_hashes=3, seed=seed,
    )


def chunked(stream: np.ndarray, size: int) -> list[np.ndarray]:
    return [stream[i : i + size] for i in range(0, stream.shape[0], size)]


def assert_invariants(synopsis, stream: np.ndarray) -> None:
    exact = Counter(stream.tolist())
    probes = list(exact) + ABSENT
    answers = [synopsis.query(key) for key in probes]
    for key, answer in zip(probes, answers):
        assert answer >= exact[key], (key, answer, exact[key])
    assert synopsis.query_batch(probes) == answers
    assert synopsis.query_batch(np.array(probes, dtype=np.int64)) == answers
    assert synopsis.total_mass == stream.shape[0]


class TestSingleSynopsis:
    @given(stream=int64_streams(), kind=filter_kinds, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_scalar_ingest(self, stream, kind, seed):
        asketch = build(kind, seed)
        for key in stream.tolist():
            asketch.update(key)
        assert_invariants(asketch, stream)

    @given(
        stream=int64_streams(), kind=filter_kinds, seed=seeds,
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_ingest(self, stream, kind, seed, chunk_size):
        asketch = build(kind, seed)
        for chunk in chunked(stream, chunk_size):
            asketch.process_batch(chunk)
        assert_invariants(asketch, stream)
        restored = ASketch.from_state(asketch.state())
        assert restored.state().equals(asketch.state())
        assert_invariants(restored, stream)

    @given(stream=int64_streams(), kind=filter_kinds, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_one_key_chunks_replicate_scalar(self, stream, kind, seed):
        scalar = build(kind, seed)
        batched = build(kind, seed)
        scalar.process_stream(stream)
        for index in range(stream.shape[0]):
            batched.process_batch(stream[index : index + 1])
        assert batched.state().equals(scalar.state())


class TestSharded:
    @given(
        stream=int64_streams(), kind=filter_kinds, seed=seeds,
        shards=st.integers(min_value=1, max_value=4), chunk_size=chunk_sizes,
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_sharded_ingest(self, stream, kind, seed, shards,
                                    chunk_size):
        group = build_group(kind, seed, shards)
        chunks = chunked(stream, chunk_size)
        StreamEngine(group, batched=True).run(chunks)
        assert_invariants(group, stream)
        reference = build_group(kind, seed, shards)
        for chunk in chunks:
            owners = reference.owners_of(chunk)
            for index, shard in enumerate(reference.shards):
                if (owners == index).any():
                    shard.process_batch(chunk[owners == index])
        assert group.state().equals(reference.state())

    @given(
        stream=int64_streams(), kind=filter_kinds, seed=seeds,
        shards=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_sharded_ingest(self, stream, kind, seed, shards):
        group = build_group(kind, seed, shards)
        group.process_stream(stream)
        assert_invariants(group, stream)
        reference = build_group(kind, seed, shards)
        for key in stream.tolist():
            reference.shards[reference.shard_of(key)].update(key)
        assert group.state().equals(reference.state())


#: Scalar keys outside the int64 domain: ints beyond it and non-ints
#: (integral floats included, as a float array is refused whole).
bad_scalars = st.one_of(
    st.integers(max_value=INT64_MIN - 1),
    st.integers(min_value=INT64_MAX + 1),
    st.floats(),
    st.sampled_from(["7", None, 2.0]),
)


@st.composite
def bad_arrays(draw) -> np.ndarray:
    """A 1-D key array no int64 cast reads faithfully."""
    kind = draw(st.sampled_from(["float", "uint64", "object"]))
    good = draw(st.lists(st.integers(0, INT64_MAX), max_size=8))
    if kind == "float":
        values = draw(st.lists(st.floats(), min_size=1, max_size=8))
        return np.array(values + good, dtype=np.float64)
    if kind == "uint64":
        above = draw(
            st.lists(st.integers(INT64_MAX + 1, (1 << 64) - 1), min_size=1,
                     max_size=8)
        )
        return np.array(above + good, dtype=np.uint64)
    return np.array(good + ["7"], dtype=object)


def snapshot(synopsis) -> tuple:
    """Mass, operation records and state: all a rejected call may not
    touch."""
    members = getattr(synopsis, "shards", [synopsis])
    return (
        synopsis.total_mass,
        [dataclasses.astuple(member.combined_ops()) for member in members],
        synopsis.state(),
    )


def assert_unchanged(synopsis, before: tuple) -> None:
    after = snapshot(synopsis)
    assert after[:2] == before[:2]
    assert after[2].equals(before[2])


class TestRejectedKeys:
    @given(
        stream=int64_streams(), kind=filter_kinds, seed=seeds,
        key=bad_scalars,
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_calls_reject_before_any_change(self, stream, kind, seed,
                                                   key):
        asketch = build(kind, seed)
        asketch.process_batch(stream)
        before = snapshot(asketch)
        for call in (asketch.update, asketch.process, asketch.query,
                     asketch.remove):
            with pytest.raises(ConfigurationError):
                call(key)
            assert_unchanged(asketch, before)

    @given(
        stream=int64_streams(), kind=filter_kinds, seed=seeds,
        keys=bad_arrays(), shards=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_calls_reject_before_any_change(self, stream, kind, seed,
                                                  keys, shards):
        synopsis = (
            build_group(kind, seed, shards) if shards else build(kind, seed)
        )
        synopsis.process_batch(stream)
        before = snapshot(synopsis)
        for call in (synopsis.process_batch, synopsis.process_stream,
                     synopsis.query_batch):
            with pytest.raises(ConfigurationError):
                call(keys)
            assert_unchanged(synopsis, before)
