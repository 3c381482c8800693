"""Kernel parity: the numpy kernels and the plain-Python references in
``_oracle`` answer every operation identically.

The fixed-answer cases run both implementations (the ``impl`` fixture),
so they pin the oracle the randomised cases compare against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.families import (
    CarterWegmanHash,
    cw_fold_columns,
    encode_key_array,
)
from repro.errors import ConfigurationError
from repro.kernels import _CELLS, active_backend
from repro.sketches.count_min import CountMinSketch
from tests.kernels import _oracle

KERNELS = active_backend()


class _Kernels:
    """The numpy kernels behind the oracle's signatures: Count-Min rows
    arrive as hash objects and are split into ``kernel_params`` here."""

    membership_probe = staticmethod(KERNELS.membership_probe)
    exchange_candidates = staticmethod(KERNELS.exchange_candidates)

    @staticmethod
    def cm_update_weighted(table, hashes, codes, amounts):
        return KERNELS.cm_update_weighted(
            table, *_oracle.kernel_rows(hashes), codes, amounts
        )

    @staticmethod
    def cm_estimate(table, hashes, codes):
        return KERNELS.cm_estimate(table, *_oracle.kernel_rows(hashes), codes)


@pytest.fixture(params=[_oracle, _Kernels], ids=["python", "numpy"])
def impl(request):
    return request.param


_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class TestMembershipProbe:
    """``membership_probe(stored, keys)`` takes a filter's live prefix of
    raw keys: every int64 value is an ordinary key."""

    def test_hits_misses_and_empty_slots(self, impl):
        # No value marks an empty slot: a stored 0 is found, and an
        # absent 0 misses like any other key.
        stored = np.array([5, 0, 2, 11, 4], dtype=np.int64)
        keys = np.array([5, 2, 11, 0, 7, 5], dtype=np.int64)
        slots = impl.membership_probe(stored, keys)
        assert slots.tolist() == [0, 2, 3, 1, -1, 0]
        slots = impl.membership_probe(stored[2:], keys)
        assert slots.tolist() == [-1, 0, 1, -1, -1, -1]

    def test_minus_one_and_extremes_found(self, impl):
        stored = np.array([_INT64_MAX, -1, 4, _INT64_MIN], dtype=np.int64)
        slots = impl.membership_probe(
            stored,
            np.array([-1, 3, _INT64_MIN, _INT64_MAX, 0, -2], dtype=np.int64),
        )
        assert slots.tolist() == [1, -1, 3, 0, -1, -1]

    def test_negative_resident_key_found(self, impl):
        stored = np.array([-5, 2, -10], dtype=np.int64)
        slots = impl.membership_probe(
            stored, np.array([-5, -10, 2, -2], dtype=np.int64)
        )
        assert slots.tolist() == [0, 2, 1, -1]

    def test_all_empty_filter(self, impl):
        stored = np.empty(0, dtype=np.int64)
        slots = impl.membership_probe(
            stored, np.array([0, 1, -1], dtype=np.int64)
        )
        assert slots.tolist() == [-1, -1, -1]

    def test_empty_key_batch(self, impl):
        stored = np.array([5, 3], dtype=np.int64)
        slots = impl.membership_probe(stored, np.empty(0, dtype=np.int64))
        assert slots.shape == (0,)

    def test_random_batches_match_reference(self, impl):
        rng = np.random.default_rng(11)
        for _ in range(5):
            capacity = int(rng.integers(1, 64))
            monitored = rng.choice(
                np.arange(-500, 1000), size=capacity, replace=False
            )
            occupancy = int(rng.integers(0, capacity + 1))
            stored = monitored[:occupancy].astype(np.int64)
            keys = rng.integers(-600, 1500, size=200).astype(np.int64)
            equal = keys[:, np.newaxis] == stored[np.newaxis, :]
            expected = np.where(equal.any(axis=1), equal.argmax(axis=1), -1)
            assert np.array_equal(
                impl.membership_probe(stored, keys), expected
            )


class TestProbePrefilter:
    """The numpy probe's slot table, and its search over shared
    buckets, answer every case like the oracle's ``{key: slot}`` lookup."""

    @staticmethod
    def _assert_parity(stored, keys):
        stored = np.asarray(stored, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        np.testing.assert_array_equal(
            KERNELS.membership_probe(stored, keys),
            _oracle.membership_probe(stored, keys),
        )

    @pytest.mark.parametrize("capacity", [1, 2, 3, 31, 32, 33, 1000, 4096])
    def test_empty_partial_and_full_filters(self, capacity):
        rng = np.random.default_rng(capacity)
        stored = rng.choice(1 << 40, size=capacity, replace=False)
        probes = max(8, 200_000 // capacity)
        for occupancy in (0, capacity // 2, capacity):
            live = stored[:occupancy].copy()
            rng.shuffle(live)
            keys = np.concatenate([
                rng.choice(stored, size=probes // 2),  # hits and duplicates
                rng.integers(0, 1 << 40, size=probes // 2),
            ])
            self._assert_parity(live, keys)

    def test_stored_keys_sharing_low_bits(self):
        stored = [7 + (i << 40) for i in range(64)]
        keys = [7 + (i << 39) for i in range(256)] + [7, 7 + (1 << 62)]
        self._assert_parity(stored, keys)

    def test_probe_keys_sharing_a_bucket_with_stored_keys(self):
        from repro.kernels import _golden_hash, _prefilter_shift

        stored = np.array([3, 1_000, 77_777, -40], dtype=np.int64)
        shift = _prefilter_shift(stored.shape[0])
        occupied = set(_golden_hash(stored, shift).tolist())
        pool = np.arange(-200_000, 200_000, dtype=np.int64)
        colliding = pool[np.isin(_golden_hash(pool, shift), list(occupied))]
        colliding = colliding[~np.isin(colliding, stored)]
        assert colliding.shape[0] > 1_000
        self._assert_parity(stored, np.concatenate([colliding, stored]))

    def test_negative_and_extreme_keys(self):
        stored = [-2, -3, -1_000_000, _INT64_MIN, 0, _INT64_MAX - 1]
        keys = [-1, -2, -3, -4, -1_000_000, _INT64_MIN, _INT64_MIN + 1,
                _INT64_MAX, _INT64_MAX - 1, 0, 1, -1, -2]
        for live in (3, 6):
            self._assert_parity(stored[:live], keys)
        self._assert_parity(stored[:5] + [-1, _INT64_MAX], keys)

    @staticmethod
    def _shared_buckets(stored) -> int:
        """How many of the stored keys' probe buckets hold two or more."""
        from repro.kernels import _golden_hash, _prefilter_shift

        stored = np.asarray(stored, dtype=np.int64)
        buckets = _golden_hash(stored, _prefilter_shift(stored.shape[0]))
        _, counts = np.unique(buckets, return_counts=True)
        return int((counts > 1).sum())

    def test_one_shared_pair(self):
        rng = np.random.default_rng(5)
        fillers = rng.choice(1 << 40, size=30, replace=False).tolist()
        anchor = fillers.pop()
        mate, *strangers = _oracle.bucket_mates(anchor, 32, [1, 2, 3, 4])
        stored = rng.permutation(fillers + [anchor, mate, (1 << 41) + 7])
        assert stored.shape[0] == 32 and self._shared_buckets(stored) >= 1
        misses = rng.integers(0, 1 << 40, size=500).tolist()
        self._assert_parity(
            stored, stored.tolist() + strangers + [anchor, mate] + misses
        )

    def test_all_stored_keys_in_one_bucket(self):
        anchor = 12_345
        mates = _oracle.bucket_mates(anchor, 32, range(1, 41))
        stored = [anchor] + mates[:31]
        assert self._shared_buckets(stored) == 1
        keys = stored + mates[31:] + list(range(-50, 50))
        self._assert_parity(stored, keys)
        self._assert_parity(stored[::-1], keys[::-1])

    @pytest.mark.parametrize("occupied", [8, 32])
    def test_extremes_in_shared_buckets(self, occupied):
        extremes = [-1, 0, _INT64_MIN, _INT64_MAX]
        stored, strangers = [], []
        for extreme in extremes:
            mate, stranger = _oracle.bucket_mates(extreme, occupied, [5, 6])
            stored += [extreme, mate]
            strangers.append(stranger)
        stored += [(1 << 50) + i for i in range(occupied - len(stored))]
        assert self._shared_buckets(stored) >= len(extremes)
        neighbours = [-2, 1, _INT64_MIN + 1, _INT64_MAX - 1]
        self._assert_parity(stored, stored + strangers + neighbours)
        # The extremes missing while their mates stay stored.
        mates_only = stored[1:8:2] + stored[8:] + strangers
        assert len(mates_only) == occupied
        self._assert_parity(mates_only, extremes + stored)

    def test_duplicate_probe_keys(self):
        rng = np.random.default_rng(9)
        anchor = -77
        mate, stranger = _oracle.bucket_mates(anchor, 16, [9, 10])
        stored = [anchor, mate] + list(range(1_000, 1_014))
        assert self._shared_buckets(stored) >= 1
        keys = rng.permutation(
            [anchor] * 50 + [mate] * 50 + [stranger] * 50 + [1_003] * 50
            + [0] * 50
        )
        self._assert_parity(stored, keys)

    def test_minus_one_on_any_table(self):
        # -1 is found where stored and misses elsewhere, at every size.
        for capacity in (1, 5, 64):
            stored = np.arange(capacity // 2)
            keys = [-1] * 10 + [0, 1]
            self._assert_parity(stored, keys)
            self._assert_parity(np.append(stored, -1), keys)


def _cw_hashes(num_rows: int, width: int, seed: int):
    return [
        CarterWegmanHash(width, seed * 1_000_003 + r) for r in range(num_rows)
    ]


class TestCountMinKernels:
    def test_update_matches_hash_array_scatter(self, impl):
        rng = np.random.default_rng(3)
        width, rows = 37, 4
        hashes = _cw_hashes(rows, width, seed=5)
        encoded = encode_key_array(rng.integers(0, 500, size=300))
        amounts = rng.integers(1, 9, size=300).astype(np.int64)

        table = np.zeros((rows, width), dtype=np.int64)
        estimates = impl.cm_update_weighted(
            table, hashes, encoded, amounts
        )

        expected = np.zeros((rows, width), dtype=np.int64)
        for row, family in enumerate(hashes):
            np.add.at(expected[row], family.hash_array(encoded), amounts)
        assert np.array_equal(table, expected)
        # The return is the post-batch estimate of every key, repeated
        # keys included (their later amounts land after the row's first
        # hit, so a per-key running minimum would read too low).
        assert estimates.dtype == np.int64
        assert np.array_equal(
            estimates, impl.cm_estimate(table, hashes, encoded)
        )

    def test_estimate_matches_hash_array_gather(self, impl):
        rng = np.random.default_rng(4)
        width, rows = 29, 3
        hashes = _cw_hashes(rows, width, seed=9)
        table = rng.integers(0, 1000, size=(rows, width)).astype(np.int64)
        encoded = encode_key_array(rng.integers(0, 500, size=100))

        estimates = impl.cm_estimate(table, hashes, encoded)

        expected = np.full(encoded.shape[0], np.iinfo(np.int64).max)
        for row, family in enumerate(hashes):
            columns = family.hash_array(encoded)
            np.minimum(expected, table[row, columns], out=expected)
        assert np.array_equal(estimates, expected)

    def test_update_of_empty_batch(self, impl):
        hashes = _cw_hashes(3, 17, seed=2)
        table = np.arange(51, dtype=np.int64).reshape(3, 17)
        empty = np.empty(0, dtype=np.int64)
        estimates = impl.cm_update_weighted(
            table, hashes, empty, empty
        )
        assert estimates.shape == (0,)
        assert estimates.dtype == np.int64
        assert np.array_equal(
            table, np.arange(51, dtype=np.int64).reshape(3, 17)
        )
        assert np.array_equal(
            estimates, impl.cm_estimate(table, hashes, empty)
        )

    def test_fold_matches_scalar_hash(self):
        # The shared folding equals the scalar ((a*x + b) % p) % h for
        # every kernel-eligible key — the identity the int64 Mersenne
        # reduction argument rests on.
        family = CarterWegmanHash(101, seed=42)
        a_hi, a_lo, b_mod = family.kernel_params
        keys = np.array(
            [0, 1, 2, (1 << 31) - 1, 12345, 999_999_999], dtype=np.int64
        )
        folded = cw_fold_columns(a_hi, a_lo, b_mod, keys, 101)
        assert folded.tolist() == [family(int(k)) for k in keys.tolist()]


#: Depth of the row-group tests: the paper's eight rows.
DEPTH = 8
#: Batch sizes around the numpy kernels' row grouping: empty, one key,
#: one group holding every row, two groups, and one row per group.
GROUP_SIZES = [0, 1, _CELLS // DEPTH - 1, _CELLS // DEPTH + 1, _CELLS + 1]


class TestCountMinRowGroups:
    """The numpy kernels fold rows in groups of ``_CELLS // n``; they
    must agree with the oracle's scalar loops and the ``hash_array``
    reference on both sides of each group boundary."""

    @pytest.mark.parametrize("n", GROUP_SIZES)
    @pytest.mark.parametrize("distinct", [True, False],
                             ids=["distinct", "duplicates"])
    def test_update_and_estimate_match_references(self, impl, n,
                                                  distinct):
        rng = np.random.default_rng(n)
        width = 211
        hashes = _cw_hashes(DEPTH, width, seed=7)
        pool = 1 << 30 if distinct else max(1, n // 8)
        encoded = encode_key_array(rng.integers(0, pool, size=n))
        amounts = rng.integers(0, 9, size=n).astype(np.int64)
        start = rng.integers(0, 50, size=(DEPTH, width)).astype(np.int64)

        table = start.copy()
        estimates = impl.cm_update_weighted(
            table, hashes, encoded, amounts
        )
        oracle_table = start.copy()
        oracle_estimates = _oracle.cm_update_weighted(
            oracle_table, hashes, encoded, amounts
        )
        expected = start.copy()
        for row, family in enumerate(hashes):
            np.add.at(expected[row], family.hash_array(encoded), amounts)
        assert np.array_equal(table, expected)
        assert np.array_equal(oracle_table, expected)
        assert np.array_equal(estimates, oracle_estimates)
        assert np.array_equal(
            estimates, impl.cm_estimate(table, hashes, encoded)
        )
        gathered = np.full(n, np.iinfo(np.int64).max)
        for row, family in enumerate(hashes):
            np.minimum(
                gathered, table[row, family.hash_array(encoded)],
                out=gathered,
            )
        assert np.array_equal(estimates, gathered)

    @pytest.mark.parametrize("n", [1, _CELLS // DEPTH + 1])
    def test_restored_sketch_matches_original(self, n):
        """A sketch rebuilt through ``from_state`` updates and answers
        exactly as the one it was taken from."""
        rng = np.random.default_rng(5)
        original = CountMinSketch(num_hashes=DEPTH, row_width=307, seed=4)
        original.update_batch_weighted(
            rng.integers(0, 5_000, size=3_000),
            rng.integers(1, 5, size=3_000),
        )
        restored = CountMinSketch.from_state(original.state())
        keys = rng.integers(0, 5_000, size=n)
        amounts = rng.integers(0, 9, size=n)
        answers = [
            sketch.update_batch_weighted(keys, amounts)
            for sketch in (original, restored)
        ]
        assert np.array_equal(restored.table, original.table)
        assert np.array_equal(answers[1], answers[0])
        assert np.array_equal(answers[1], restored.estimate_batch(keys))

    def test_numpy_update_rejects_non_contiguous_table(self):
        hashes = _cw_hashes(3, 17, seed=2)
        table = np.zeros((17, 3), dtype=np.int64).T
        encoded = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            _Kernels.cm_update_weighted(
                table, hashes, encoded, np.ones(3, np.int64)
            )
        assert not table.any()


class TestExchangeCandidates:
    def test_positions_above_threshold(self, impl):
        estimates = np.array([5, 1, 9, 3, 9, 2], dtype=np.int64)
        assert impl.exchange_candidates(estimates, 3).tolist() == [0, 2, 4]
        assert impl.exchange_candidates(estimates, 9).tolist() == []
        assert impl.exchange_candidates(estimates, 0).tolist() == [
            0, 1, 2, 3, 4, 5,
        ]

    def test_empty(self, impl):
        out = impl.exchange_candidates(np.empty(0, dtype=np.int64), 5)
        assert out.shape == (0,)
