"""Property-based tests: each kernel equals its plain-Python reference.

The probe runs over keys from the whole int64 range, with -1, 0,
``INT64_MIN`` and ``INT64_MAX`` in every batch; the Count-Min kernels
run over codes below ``2**31`` (the range they serve) with batch sizes
on both sides of the ``_CELLS // n`` row-group boundary.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hashing.families import CarterWegmanHash, encode_key_array
from repro.kernels import _CELLS, active_backend
from tests.kernels import _oracle

KERNELS = active_backend()
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
FORCED = [-1, 0, INT64_MIN, INT64_MAX]

int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)


@st.composite
def cm_batches(draw):
    """``(depth, width, seed, n, pool)``: ``n`` is small, or within a few
    keys of ``_CELLS // depth``, where the kernels' rows stop fitting in
    one group; the keys are ``pool`` consecutive ints centred on 0, so
    small pools repeat keys and the largest reaches code ``2**31 - 1``."""
    depth = draw(st.integers(min_value=1, max_value=8))
    boundary = _CELLS // depth
    n = draw(
        st.integers(min_value=0, max_value=40)
        | st.integers(min_value=boundary - 3, max_value=boundary + 3)
    )
    width = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    pool = draw(st.sampled_from([1, 16, 1 << 31]))
    return depth, width, seed, n, pool


class TestKernelsMatchOracle:
    @given(
        stored=st.lists(int64s, max_size=64, unique=True),
        others=st.lists(int64s, max_size=64),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_membership_probe(self, stored, others, data):
        """Every live-prefix length answers like a ``{key: slot}``
        lookup, for resident, absent and extreme keys alike."""
        live = data.draw(st.integers(min_value=0, max_value=len(stored)))
        stored = np.array(stored[:live], dtype=np.int64)
        keys = np.array(
            FORCED + others + stored.tolist()[::2], dtype=np.int64
        )
        keys = keys[data.draw(st.permutations(range(keys.shape[0])))]
        np.testing.assert_array_equal(
            KERNELS.membership_probe(stored, keys),
            _oracle.membership_probe(stored, keys),
        )

    @given(
        anchors=st.lists(
            st.sampled_from(FORCED) | int64s, min_size=1, max_size=4,
            unique=True,
        ),
        fillers=st.lists(int64s, max_size=40, unique=True),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_membership_probe_with_shared_buckets(
        self, anchors, fillers, data
    ):
        """Stored keys planted in shared buckets (built with the probe's
        own hash) answer like a ``{key: slot}`` lookup, as do unstored
        keys in those buckets and repeated probe keys."""
        sizes = [
            data.draw(st.integers(min_value=1, max_value=6)) for _ in anchors
        ]
        occupied = len(fillers) + sum(size + 1 for size in sizes)
        stored, strangers = [], []
        for anchor, size in zip(anchors, sizes):
            deltas = data.draw(st.lists(
                st.integers(min_value=1, max_value=(1 << 40) - 1),
                min_size=size + 2, max_size=size + 2, unique=True,
            ))
            mates = _oracle.bucket_mates(anchor, occupied, deltas)
            stored += [anchor] + mates[:size]
            strangers += mates[size:]
        stored += fillers
        assume(len(set(stored)) == occupied)
        stored = np.array(
            data.draw(st.permutations(stored)), dtype=np.int64
        )
        keys = FORCED + stored.tolist() + strangers + stored.tolist()[::3]
        keys = np.array(
            keys + data.draw(st.lists(st.sampled_from(keys), max_size=30)),
            dtype=np.int64,
        )
        np.testing.assert_array_equal(
            KERNELS.membership_probe(stored, keys),
            _oracle.membership_probe(stored, keys),
        )

    @given(batch=cm_batches())
    @settings(max_examples=40, deadline=None)
    def test_count_min_update_and_estimate(self, batch):
        """The fused update leaves the oracle's table and returns the
        oracle's estimates, which ``cm_estimate`` reads back."""
        depth, width, seed, n, pool = batch
        rng = np.random.default_rng(seed)
        hashes = [CarterWegmanHash(width, seed + row) for row in range(depth)]
        params = _oracle.kernel_rows(hashes)
        low = -(pool // 2)
        codes = encode_key_array(rng.integers(low, low + pool, size=n))
        assert n == 0 or int(codes.max()) < 1 << 31
        amounts = rng.integers(0, 1_000, size=n).astype(np.int64)
        start = rng.integers(0, 50, size=(depth, width)).astype(np.int64)

        table = start.copy()
        estimates = KERNELS.cm_update_weighted(table, *params, codes, amounts)
        expected = start.copy()
        oracle_estimates = _oracle.cm_update_weighted(
            expected, hashes, codes, amounts
        )
        np.testing.assert_array_equal(table, expected)
        np.testing.assert_array_equal(estimates, oracle_estimates)
        np.testing.assert_array_equal(
            KERNELS.cm_estimate(table, *params, codes), oracle_estimates
        )

    @given(estimates=st.lists(int64s, max_size=100), threshold=int64s)
    @settings(max_examples=100, deadline=None)
    def test_exchange_candidates(self, estimates, threshold):
        estimates = np.array(estimates, dtype=np.int64)
        np.testing.assert_array_equal(
            KERNELS.exchange_candidates(estimates, threshold),
            _oracle.exchange_candidates(estimates, threshold),
        )
