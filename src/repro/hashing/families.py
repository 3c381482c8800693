"""Pairwise-independent hash families with scalar and vectorised evaluation.

Every family exposes two call forms:

* ``family(key)`` — hash a single non-negative integer key;
* ``family.hash_array(keys)`` — hash a NumPy array of keys in one shot.

Keys are non-negative integers.  Callers that hash strings or tuples should
map them to integers first (see :func:`key_to_int`).  All families are
deterministic given their ``seed``, so experiments are reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError

#: The Mersenne prime 2**61 - 1, the standard modulus for Carter-Wegman
#: hashing of up-to-61-bit keys.
MERSENNE_PRIME_61 = (1 << 61) - 1

_UINT64 = np.uint64
_MASK_64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1


def key_to_int(key: object) -> int:
    """Map an arbitrary hashable key to a stable non-negative integer.

    Integers use the ZigZag bijection (``2v`` for ``v >= 0``,
    ``-2v - 1`` for ``v < 0``) so mixed-sign key sets never collide;
    everything else goes through Python's ``hash`` folded to 61 bits.
    Python's string hashing is salted per-process unless
    ``PYTHONHASHSEED`` is pinned, so experiments that need cross-process
    determinism should use integer keys (all built-in generators do).
    """
    if isinstance(key, (int, np.integer)):
        value = int(key)
        if value >= 0:
            return value << 1
        return (-value << 1) - 1
    return hash(key) & MERSENNE_PRIME_61


def key_dtype_problem(array: np.ndarray) -> str | None:
    """Why ``array`` cannot be read as int64 keys without mangling one,
    or None when it can.

    The one key rule of every ingest and query path: keys are integers
    in the int64 range, so object and float arrays are refused (a cast
    would truncate fractions and turn NaN into garbage), and so are
    uint64 values above ``INT64_MAX`` (a cast would wrap them negative).
    An array with no elements holds no key to mangle, whatever its dtype.
    """
    if array.size == 0:
        return None
    dtype = array.dtype
    if dtype == object:
        return "object dtype (mixed or non-numeric keys)"
    if not np.issubdtype(dtype, np.integer):
        if np.issubdtype(dtype, np.floating):
            bad = "NaN keys" if np.isnan(array).any() else "fractional keys"
            return f"float keys (coercion would truncate; found {bad})"
        return f"dtype {dtype} is not an integer type"
    if dtype == np.uint64 and int(array.max()) > _INT64_MAX:
        return "uint64 keys above INT64_MAX (coercion would wrap them)"
    return None


def count_dtype_problem(array: np.ndarray) -> str | None:
    """Why ``array`` cannot be read as int64 counts without mangling one,
    or None when it can.

    The one count rule of every ingest path, the key rule applied to
    counts: integer dtypes only, and no uint64 count above
    ``INT64_MAX`` (a cast would wrap it negative); the message names
    the offending value.  Like keys, an array with no elements passes
    whatever its dtype.  Negative counts are the callers' own check,
    since each raises its own error type for them.
    """
    if array.size == 0:
        return None
    dtype = array.dtype
    if dtype == object or not np.issubdtype(dtype, np.integer):
        return f"counts must be integers, got dtype {dtype}"
    if dtype == np.uint64:
        top = int(array.max())
        if top > _INT64_MAX:
            return f"counts must be integers in the int64 range, got {top}"
    return None


def int64_keys(keys) -> np.ndarray:
    """``keys`` (an array or any iterable of keys) as an int64 array,
    else :class:`ConfigurationError` for keys that break
    :func:`key_dtype_problem`'s rule.  An int64 array costs one dtype
    compare."""
    if not isinstance(keys, np.ndarray):
        keys = np.asarray(list(keys))
    if keys.dtype != np.int64:
        problem = key_dtype_problem(keys)
        if problem is not None:
            raise ConfigurationError(f"invalid keys: {problem}")
        keys = keys.astype(np.int64)
    return keys


def encode_key_array(keys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`key_to_int` for int64 key arrays, as uint64.

    ``(v << 1) ^ (v >> 63)`` is the ZigZag code modulo ``2**64``; every
    code of an int64 key is below ``2**64``, so the uint64 view holds it
    exactly (``INT64_MAX`` encodes to ``2**64 - 2``, ``INT64_MIN`` to
    ``2**64 - 1``), where a signed view would wrap keys at or above
    ``2**62`` and ``INT64_MIN`` to negative codes.  Keys are read
    through :func:`int64_keys`, so keys outside int64 raise
    :class:`ConfigurationError` before any caller's state changes.
    """
    keys = int64_keys(keys)
    codes = np.left_shift(keys, 1)
    np.bitwise_xor(codes, np.right_shift(keys, 63), out=codes)
    return codes.view(_UINT64)


def cw_fold_columns(
    a_hi: int | np.ndarray,
    a_lo: int | np.ndarray,
    b_mod: int | np.ndarray,
    encoded: np.ndarray,
    width: int,
) -> np.ndarray:
    """``((a*x + b) mod p) mod width`` for encoded keys below ``2**31``.

    ``a`` arrives pre-split as ``a = a_hi * 2**31 + a_lo``, so every
    product fits in 64 bits, and the reduction modulo ``p = 2**61 - 1``
    uses the Mersenne identity ``y = (y & p) + (y >> 61) (mod p)``
    instead of division:

    * ``hi = a_hi * x`` is below ``2**61`` (``a_hi < 2**30``); writing
      ``hi = h1 * 2**30 + h0``, its ``2**31`` shift reduces to
      ``hi_term = h1 + h0 * 2**31 (mod p)``, at most ``2**61``.
    * ``lo = a_lo * x`` is below ``2**62``, so
      ``lo + hi_term + b_mod < 2**62 + 2 * 2**61 = 2**63``: the
      unreduced sum is exact in signed int64 (its worst case,
      ``a_hi = 2**30 - 1``, ``a_lo = x = 2**31 - 1``, ``b_mod = p - 1``,
      is ``2**63 - 2**32 - 1``).
    * One fold leaves a value in ``[0, p + 3]`` congruent to the sum,
      and one conditional ``- p`` finishes the reduction.

    The final ``% width`` is taken as ``y - (y // width) * width`` on
    the uint64 view of the reduced value: ``y`` lies in ``[0, p)``, so
    the unsigned quotient is the floor quotient and the result is the
    non-negative remainder int64 ``%`` gives, while NumPy divides
    unsigned integers by a scalar with a precomputed multiply and shift
    (signed ``%`` runs a hardware divide per element).  The arithmetic
    runs in place on two int64 arrays of the broadcast shape: scalar
    parameters against a key vector fold one row, and ``(rows, 1)``
    parameter columns against ``(1, n)`` keys fold a ``(rows, n)``
    group of rows in one call.  ``tests/kernels`` holds the columns
    equal to the scalar :meth:`CarterWegmanHash.__call__`.
    """
    hi = np.multiply(encoded, a_hi)
    total = np.bitwise_and(hi, (1 << 30) - 1)
    np.left_shift(total, 31, out=total)
    np.right_shift(hi, 30, out=hi)
    np.add(total, hi, out=total)  # hi_term <= 2**61
    lo = np.multiply(encoded, a_lo, out=hi)  # < 2**62
    np.add(total, lo, out=total)
    np.add(total, b_mod, out=total)  # < 2**63
    np.right_shift(total, 61, out=lo)
    np.bitwise_and(total, MERSENNE_PRIME_61, out=total)
    np.add(total, lo, out=total)  # <= p + 3
    np.subtract(
        total, MERSENNE_PRIME_61, out=total, where=total >= MERSENNE_PRIME_61
    )
    value = total.view(_UINT64)
    divisor = _UINT64(width)
    quotient = np.floor_divide(value, divisor, out=lo.view(_UINT64))
    np.multiply(quotient, divisor, out=quotient)
    np.subtract(value, quotient, out=value)
    return total


class HashFamily(ABC):
    """A seeded hash function mapping integer keys onto ``[0, range)``."""

    def __init__(self, output_range: int, seed: int) -> None:
        if output_range <= 0:
            raise ConfigurationError(
                f"hash output range must be positive, got {output_range}"
            )
        self.output_range = int(output_range)
        self.seed = int(seed)

    @abstractmethod
    def __call__(self, key: int) -> int:
        """Hash one integer key to ``[0, output_range)``."""

    @abstractmethod
    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Hash a uint64/int64 array of keys; returns an int64 array."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(range={self.output_range}, "
            f"seed={self.seed})"
        )


class CarterWegmanHash(HashFamily):
    """``((a*x + b) mod p) mod h`` with ``p = 2**61 - 1``.

    Pairwise independent for keys below ``p``.  This is the construction
    referenced by the Count-Min paper [11] and is the default family for
    every sketch in this library.
    """

    def __init__(self, output_range: int, seed: int) -> None:
        super().__init__(output_range, seed)
        rng = np.random.default_rng(seed)
        # a must be non-zero for pairwise independence.
        self._a = int(rng.integers(1, MERSENNE_PRIME_61))
        self._b = int(rng.integers(0, MERSENNE_PRIME_61))

    def __call__(self, key: int) -> int:
        return ((self._a * key + self._b) % MERSENNE_PRIME_61) % self.output_range

    @property
    def kernel_params(self) -> tuple[int, int, int]:
        """``(a_hi, a_lo, b mod p)`` for :func:`cw_fold_columns` callers.

        The pre-split form the Count-Min kernels consume; valid for
        encoded keys below ``2**31`` (see :func:`cw_fold_columns`).
        """
        return (
            self._a >> 31,
            self._a & ((1 << 31) - 1),
            self._b % MERSENNE_PRIME_61,
        )

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        # NumPy has no native 128-bit ints; use Python object math only
        # for the rare huge-key case and the int64-safe Mersenne folding
        # (cw_fold_columns) otherwise.  Keys are read as unsigned, so
        # codes at or above 2**63 take the exact path too, and small
        # ones reach the fold as an int64 view of the same memory.
        codes = np.asarray(keys, dtype=_UINT64)
        if codes.size and int(codes.max()) < (1 << 31):
            a_hi, a_lo, b_mod = self.kernel_params
            return cw_fold_columns(
                a_hi, a_lo, b_mod, codes.view(np.int64), self.output_range
            )
        out = np.empty(codes.shape, dtype=np.int64)
        flat_in = codes.reshape(-1)
        flat_out = out.reshape(-1)
        for i, key in enumerate(flat_in.tolist()):
            flat_out[i] = self(key)
        return out


class TabulationHash(HashFamily):
    """Simple tabulation hashing over the 8 bytes of a 64-bit key.

    3-independent and behaves like a fully random function for most
    streaming workloads (Patrascu & Thorup).  Included so that sensitivity
    of the sketches to the hash family can be tested.
    """

    def __init__(self, output_range: int, seed: int) -> None:
        super().__init__(output_range, seed)
        rng = np.random.default_rng(seed)
        self._tables = rng.integers(
            0, _MASK_64, size=(8, 256), dtype=np.uint64
        )

    def __call__(self, key: int) -> int:
        acc = 0
        for byte_index in range(8):
            byte = (key >> (8 * byte_index)) & 0xFF
            acc ^= int(self._tables[byte_index, byte])
        return acc % self.output_range

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        k = np.asarray(keys).astype(_UINT64)
        acc = np.zeros(k.shape, dtype=np.uint64)
        for byte_index in range(8):
            byte = (k >> _UINT64(8 * byte_index)) & _UINT64(0xFF)
            acc ^= self._tables[byte_index][byte.astype(np.intp)]
        return (acc % _UINT64(self.output_range)).astype(np.int64)


class SignHash:
    """Pairwise-independent ±1 hash used by Count Sketch's estimator.

    Implemented as the low bit of a Carter-Wegman hash with range 2,
    mapped to {-1, +1}.
    """

    def __init__(self, seed: int) -> None:
        self._bit = CarterWegmanHash(2, seed)

    def __call__(self, key: int) -> int:
        return 1 if self._bit(key) else -1

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        bits = self._bit.hash_array(keys)
        return bits * 2 - 1


_FAMILIES = {
    "carter-wegman": CarterWegmanHash,
    "tabulation": TabulationHash,
}


def make_hash_family(name: str, output_range: int, seed: int) -> HashFamily:
    """Instantiate a hash family by name.

    Parameters
    ----------
    name:
        One of ``"carter-wegman"``, ``"tabulation"``.
    output_range:
        Size of the hash codomain ``[0, output_range)``.
    seed:
        Deterministic seed for the family's random parameters.
    """
    try:
        family = _FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown hash family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return family(output_range, seed)
