"""Exchange-policy bound tests: Lemma 1, Lemma 2, Lemma 3 (Appendix C)."""

from __future__ import annotations

import numpy as np

from repro.core.asketch import ASketch
from repro.sketches.count_min import CountMinSketch
from repro.streams.base import Stream
from repro.streams.zipf import zipf_stream


def lemma2_alternating_stream(stream_size: int) -> Stream:
    """The Lemma 2 order over keys ``A = 0`` and ``B = 1``:
    ``A B B A A B B A A B B ...``.

    After the initial ``A``, items arrive in pairs ``B B A A B B ...`` so
    that each item accumulates two hits in the sketch before overtaking
    the filter resident, triggering an exchange every other pair: with no
    sketch collisions and a size-1 filter, ``floor((N-1)/2)`` exchanges,
    the collision-free maximum.
    """
    keys = np.empty(stream_size, dtype=np.int64)
    keys[0] = 0
    for position in range(1, stream_size):
        keys[position] = 1 if (position - 1) // 2 % 2 == 0 else 0
    return Stream(keys=keys, name="lemma2-alternating", skew=None)


def lemma3_colliding_stream(stream_size: int) -> Stream:
    """The Lemma 3 order over keys ``A = 0`` and ``B = 1``:
    ``A B B A B A B A B A ...``.

    Combined with a sketch in which both keys collide in every row (a
    width-1 sketch), each arrival overtakes the filter resident and
    triggers an exchange: up to ``N - 2``, approaching Lemma 1's bound
    of ``N``.
    """
    keys = np.empty(stream_size, dtype=np.int64)
    keys[0] = 0
    if stream_size > 1:
        keys[1] = 1
    for position in range(2, stream_size):
        keys[position] = 1 if position % 2 == 0 else 0
    return Stream(keys=keys, name="lemma3-colliding", skew=None)


class TestLemma1:
    def test_sketch_insertions_bounded_by_occurrences(self, rng):
        """Lemma 1: a key appearing t times is inserted into the sketch at
        most t times (early aggregation can only reduce insertions)."""
        from tests.core.test_asketch import DictSketch

        asketch = ASketch(
            sketch=DictSketch(), filter_items=4, filter_kind="relaxed-heap"
        )
        keys = rng.integers(0, 20, size=5000)
        asketch.process_stream(np.asarray(keys))
        occurrences: dict[int, int] = {}
        for key in keys.tolist():
            occurrences[key] = occurrences.get(key, 0) + 1
        insertions: dict[int, int] = {}
        for key, _ in asketch.sketch.update_log:
            insertions[key] = insertions.get(key, 0) + 1
        for key, count in insertions.items():
            assert count <= occurrences[key], key

    def test_sketch_mass_bounded_by_stream_mass(self, rng):
        """Total count hashed into the sketch never exceeds the stream's."""
        from tests.core.test_asketch import DictSketch

        asketch = ASketch(sketch=DictSketch(), filter_items=4)
        keys = rng.integers(0, 30, size=4000)
        asketch.process_stream(np.asarray(keys))
        hashed_mass = sum(amount for _, amount in asketch.sketch.update_log)
        assert hashed_mass <= len(keys)


class TestLemma2:
    def test_alternating_stream_shape(self):
        stream = lemma2_alternating_stream(9)
        assert stream.keys.tolist() == [0, 1, 1, 0, 0, 1, 1, 0, 0]

    def test_collision_free_exchanges_at_most_half(self):
        """With a collision-free sketch, exchanges <= N/2."""
        n = 2000
        stream = lemma2_alternating_stream(n)
        sketch = CountMinSketch(num_hashes=2, row_width=4096, seed=1)
        asketch = ASketch(sketch=sketch, filter_items=1)
        asketch.process_stream(stream.keys)
        assert asketch.exchange_count <= n // 2
        # And the construction actually forces many exchanges:
        assert asketch.exchange_count >= n // 4

    def test_one_sided_despite_churn(self):
        n = 1000
        stream = lemma2_alternating_stream(n)
        asketch = ASketch(total_bytes=16 * 1024, filter_items=1, seed=2)
        asketch.process_stream(stream.keys)
        exact = stream.exact
        for key in (0, 1):
            assert asketch.query(key) >= exact.count_of(key)


class TestLemma3:
    def test_colliding_stream_shape(self):
        stream = lemma3_colliding_stream(8)
        assert stream.keys.tolist() == [0, 1, 1, 0, 1, 0, 1, 0]

    def test_full_collision_exchanges_bounded_by_n(self):
        """With total collisions (width-1 sketch), exchanges <= N and the
        adversarial order drives them close to N."""
        n = 1000
        stream = lemma3_colliding_stream(n)
        sketch = CountMinSketch(num_hashes=2, row_width=1, seed=3)
        asketch = ASketch(sketch=sketch, filter_items=1)
        asketch.process_stream(stream.keys)
        assert asketch.exchange_count <= n
        assert asketch.exchange_count >= n // 2

    def test_guarantee_survives_total_collisions(self):
        n = 500
        stream = lemma3_colliding_stream(n)
        sketch = CountMinSketch(num_hashes=2, row_width=1, seed=3)
        asketch = ASketch(sketch=sketch, filter_items=1)
        asketch.process_stream(stream.keys)
        exact = stream.exact
        for key in (0, 1):
            assert asketch.query(key) >= exact.count_of(key)


class TestExchangeTrendWithSkew:
    def test_exchanges_decrease_with_skew(self):
        """Figure 9's shape on small streams."""
        counts = []
        for skew in (0.0, 1.0, 2.0):
            stream = zipf_stream(30_000, 8_000, skew, seed=5)
            asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=5)
            asketch.process_stream(stream.keys)
            counts.append(asketch.exchange_count)
        assert counts[0] > counts[1] > counts[2]

    def test_uniform_exchanges_below_average_case_bound(self):
        from repro.core.analysis import expected_exchanges_uniform

        stream = zipf_stream(30_000, 8_000, 0.0, seed=6)
        asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=6)
        asketch.process_stream(stream.keys)
        bound = expected_exchanges_uniform(
            30_000, 32, asketch.sketch.row_width
        )
        assert asketch.exchange_count <= bound
