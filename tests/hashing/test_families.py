"""Unit tests for the hash families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing import (
    CarterWegmanHash,
    SignHash,
    make_hash_family,
)
from repro.hashing.families import (
    MERSENNE_PRIME_61,
    cw_fold_columns,
    key_to_int,
)

ALL_FAMILIES = ["carter-wegman", "tabulation"]


class TestKeyToInt:
    def test_zigzag_values(self):
        assert key_to_int(0) == 0
        assert key_to_int(1) == 2
        assert key_to_int(-1) == 1
        assert key_to_int(12345) == 24690

    def test_mixed_sign_ints_map_injectively(self):
        values = [key_to_int(v) for v in range(-100, 101)]
        assert len(set(values)) == len(values)

    def test_negative_ints_are_non_negative(self):
        assert key_to_int(-1) >= 0
        assert key_to_int(-(10**12)) >= 0

    def test_numpy_integers_match_python_ints(self):
        assert key_to_int(np.int64(42)) == key_to_int(42)

    def test_strings_fold_to_61_bits(self):
        assert 0 <= key_to_int("hello") < MERSENNE_PRIME_61

    def test_encode_key_array_matches_scalar(self):
        from repro.hashing.families import encode_key_array

        keys = np.array([-5, -1, 0, 1, 7, 2**40], dtype=np.int64)
        np.testing.assert_array_equal(
            encode_key_array(keys),
            np.array([key_to_int(int(k)) for k in keys]),
        )


class TestRangeAndDeterminism:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_output_in_range(self, name):
        family = make_hash_family(name, 97, seed=5)
        for key in range(1000):
            assert 0 <= family(key) < 97

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_same_seed_same_function(self, name):
        first = make_hash_family(name, 128, seed=9)
        second = make_hash_family(name, 128, seed=9)
        keys = list(range(500))
        assert [first(k) for k in keys] == [second(k) for k in keys]

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_different_seed_different_function(self, name):
        first = make_hash_family(name, 1 << 16, seed=1)
        second = make_hash_family(name, 1 << 16, seed=2)
        keys = list(range(200))
        assert [first(k) for k in keys] != [second(k) for k in keys]

    def test_zero_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CarterWegmanHash(0, seed=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            make_hash_family("md5", 10, seed=0)


class TestVectorisedAgreement:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_hash_array_matches_scalar(self, name, rng):
        family = make_hash_family(name, 4084, seed=11)
        keys = rng.integers(0, 2**31 - 1, size=3000)
        vectorised = family.hash_array(keys)
        scalar = np.array([family(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorised, scalar)

    def test_carter_wegman_large_keys_fallback(self):
        family = CarterWegmanHash(1009, seed=2)
        keys = np.array([2**40, 2**50, 2**33 + 7], dtype=np.int64)
        vectorised = family.hash_array(keys)
        scalar = np.array([family(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorised, scalar)


class TestDistributionQuality:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_buckets_roughly_uniform(self, name, rng):
        buckets = 64
        family = make_hash_family(name, buckets, seed=21)
        keys = rng.integers(0, 2**30, size=64_000)
        counts = np.bincount(family.hash_array(keys), minlength=buckets)
        expected = len(keys) / buckets
        # Chi-square-ish sanity bound: no bucket deviates more than 25%.
        assert counts.min() > expected * 0.75
        assert counts.max() < expected * 1.25

    def test_pairwise_collision_rate(self, rng):
        """Collision probability of random key pairs is ~1/range."""
        output_range = 512
        family = CarterWegmanHash(output_range, seed=13)
        pairs = rng.integers(0, 2**30, size=(20_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        left = family.hash_array(pairs[:, 0])
        right = family.hash_array(pairs[:, 1])
        rate = float((left == right).mean())
        assert rate < 2.5 / output_range


class TestSignHash:
    def test_values_are_plus_minus_one(self):
        sign = SignHash(seed=4)
        values = {sign(key) for key in range(500)}
        assert values == {-1, 1}

    def test_roughly_balanced(self, rng):
        sign = SignHash(seed=6)
        keys = rng.integers(0, 2**30, size=20_000)
        mean = float(sign.hash_array(keys).mean())
        assert abs(mean) < 0.05

    def test_array_matches_scalar(self, rng):
        sign = SignHash(seed=10)
        keys = rng.integers(0, 2**30, size=1000)
        np.testing.assert_array_equal(
            sign.hash_array(keys), np.array([sign(int(k)) for k in keys])
        )



_KEY_MAX = (1 << 31) - 1
_EDGE_KEYS = [0, 1, _KEY_MAX]


def _scalar_fold(a: int, b: int, keys, width: int) -> list[int]:
    """``((a*x + b) % p) % width`` in Python ints: the fold's reference."""
    return [((a * int(x) + b) % MERSENNE_PRIME_61) % width for x in keys]


class TestFoldReduction:
    """``cw_fold_columns`` reduces modulo ``p`` exactly, on int64."""

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 1 << 20),
        seed=st.integers(0, 2**32 - 1),
        keys=st.lists(st.integers(0, _KEY_MAX), max_size=40),
    )
    def test_matches_python_int_reference(self, width, seed, keys):
        family = CarterWegmanHash(width, seed)
        a_hi, a_lo, b_mod = family.kernel_params
        keys = np.array(_EDGE_KEYS + keys, dtype=np.int64)
        folded = cw_fold_columns(a_hi, a_lo, b_mod, keys, width)
        assert folded.dtype == np.int64
        assert folded.tolist() == _scalar_fold(
            family._a, family._b, keys.tolist(), width
        )

    @settings(max_examples=200, deadline=None)
    @given(
        a_hi=st.integers(0, (1 << 30) - 1),
        a_lo=st.integers(0, _KEY_MAX),
        key=st.integers(0, _KEY_MAX),
        zero_sum=st.booleans(),
        b_mod=st.integers(0, MERSENNE_PRIME_61 - 1),
        width=st.integers(1, 1 << 20),
    )
    def test_raw_parameters_including_sums_divisible_by_p(
        self, a_hi, a_lo, key, zero_sum, b_mod, width
    ):
        # With zero_sum, b is picked so a*key + b is a multiple of p:
        # the fold then leaves exactly p, and only the final conditional
        # subtract turns it into 0.
        a = a_hi * (1 << 31) + a_lo
        if zero_sum:
            b_mod = -a * key % MERSENNE_PRIME_61
        keys = np.array(_EDGE_KEYS + [key], dtype=np.int64)
        folded = cw_fold_columns(a_hi, a_lo, b_mod, keys, width)
        assert folded.tolist() == _scalar_fold(a, b_mod, keys.tolist(), width)

    @pytest.mark.parametrize("width", [1, 2, 101, 4084])
    def test_worst_case_parameters(self, width):
        # The largest split multiplier (a_hi = 2**30 - 1, a_lo =
        # 2**31 - 1), the largest offset and the largest keys put every
        # intermediate at its bound.
        a_hi, a_lo, b_mod = (1 << 30) - 1, _KEY_MAX, MERSENNE_PRIME_61 - 1
        a = a_hi * (1 << 31) + a_lo
        keys = np.array(
            _EDGE_KEYS + [2, _KEY_MAX - 1, 1 << 30, (1 << 30) - 1],
            dtype=np.int64,
        )
        folded = cw_fold_columns(a_hi, a_lo, b_mod, keys, width)
        assert folded.tolist() == _scalar_fold(a, b_mod, keys.tolist(), width)


class TestFoldFinalReduction:
    """The final ``% width`` (an unsigned quotient) at the edges of
    ``[0, p)``: parameters are picked so ``a*x + b`` equals ``p - 1``,
    ``p`` or ``p + 3`` exactly, which reduce to ``p - 1``, 0 and 3."""

    WIDTHS = [1, 2, 3, 4084, (1 << 31) - 1, 1 << 20]
    KEYS = [1, 2, 3, 12_345, (1 << 30) + 1, _KEY_MAX]

    @staticmethod
    def _parameters(target: int, key: int) -> tuple[int, int]:
        """``(a, b)`` with ``a*key + b == target``, ``1 <= a < p`` and
        ``0 <= b < p``."""
        a = min(MERSENNE_PRIME_61 - 1, target // key)
        return a, target - a * key

    @staticmethod
    def _split(a: int) -> tuple[int, int]:
        return a >> 31, a & _KEY_MAX

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("offset", [-1, 0, 3])
    def test_scalar_parameters(self, width, offset):
        target = MERSENNE_PRIME_61 + offset
        for key in self.KEYS:
            a, b = self._parameters(target, key)
            assert (a * key + b) % MERSENNE_PRIME_61 == target % (
                MERSENNE_PRIME_61
            )
            keys = np.array(_EDGE_KEYS + [key], dtype=np.int64)
            folded = cw_fold_columns(*self._split(a), b, keys, width)
            assert folded.tolist() == _scalar_fold(a, b, keys.tolist(), width)
            assert folded[-1] == (target % MERSENNE_PRIME_61) % width

    @pytest.mark.parametrize("width", WIDTHS)
    def test_broadcast_rows(self, width):
        # One row per (target, key) pair; every row folds every key, so
        # row i lands on its target at key i and elsewhere on others.
        rows = []
        keys = []
        for offset in (-1, 0, 3):
            for key in self.KEYS:
                rows.append(self._parameters(MERSENNE_PRIME_61 + offset, key))
                keys.append(key)
        a_hi, a_lo = zip(*(self._split(a) for a, _ in rows))
        b_mod = [b for _, b in rows]
        folded = cw_fold_columns(
            *(np.array(column, dtype=np.int64)[:, None]
              for column in (a_hi, a_lo, b_mod)),
            np.array(keys, dtype=np.int64)[None, :], width,
        )
        assert folded.shape == (len(rows), len(keys))
        for row, (a, b) in enumerate(rows):
            assert folded[row].tolist() == _scalar_fold(a, b, keys, width)
