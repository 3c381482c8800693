"""The batch-path kernels: the hot loops behind the batch API.

The paper's throughput rests on three inner loops: the SIMD filter
membership probe (Algorithm 3, §6.1), the Count-Min hash+scatter/gather,
and the per-distinct-key exchange check of Algorithm 1.  They run here
as vectorised NumPy, as the methods of one :class:`NumpyKernels`
object; callers (the array filters, Count-Min, the staged synopsis'
exchange policy) reach it through :func:`active_backend` on every call,
so a profiler can wrap the methods on that one instance.

``tests/kernels`` and ``tests/property/test_hypothesis_kernels.py``
hold each operation equal to a plain-Python reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.families import cw_fold_columns

__all__ = ["NumpyKernels", "active_backend"]

_INT64_MAX = (1 << 63) - 1
#: Cells (rows x keys) the Count-Min kernels fold per pass: small
#: batches take several rows at once, and no temporary exceeds
#: ``max(_CELLS, n)`` cells.
_CELLS = 1 << 14
#: Odd multiplier of the probe prefilter's hash: ``2**64`` over the
#: golden ratio (Fibonacci hashing).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _as_int64(array: np.ndarray) -> np.ndarray:
    """Contiguous int64 view/copy of ``array`` for kernel consumption."""
    return np.ascontiguousarray(array, dtype=np.int64)


def _codes_as_int64(encoded: np.ndarray) -> np.ndarray:
    """Encoded keys as contiguous int64: uint64 ZigZag codes (below
    ``2**31`` wherever a Count-Min kernel is called) are viewed, not
    copied."""
    encoded = np.ascontiguousarray(encoded)
    if encoded.dtype == np.uint64:
        return encoded.view(np.int64)
    return _as_int64(encoded)


class NumpyKernels:
    """The four batch operations, vectorised with NumPy.

    The estimates ``cm_update_weighted`` returns equal ``cm_estimate``
    on the table it leaves.
    """

    #: Stamped into benchmark results as the kernel implementation.
    name = "numpy"

    def membership_probe(
        self, stored: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Bit-table prefilter, then sorted-view ``searchsorted``
        membership over the live keys for the probe keys that pass it.

        ``stored`` is the live prefix of an array filter's raw key
        slots; the answer is each key's slot, ``-1`` on a miss.  Each
        stored key sets one bit of a table of ``2**bits >= 32 m`` bits
        (``m`` live slots, one byte per bit), chosen by the
        multiplicative hash ``(key * _GOLDEN) >> (64 - bits)`` on the
        uint64 view.  A key whose bit is clear is not stored, so only
        the hits and about one miss in 32 reach the binary search; the
        answers are the search's own.
        """
        keys = _as_int64(keys)
        stored = _as_int64(stored)
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        if keys.shape[0] == 0 or stored.shape[0] == 0:
            return out
        shift = _prefilter_shift(stored.shape[0])
        table = np.zeros(1 << (64 - int(shift)), dtype=bool)
        table[_golden_hash(stored, shift)] = True
        candidates = np.flatnonzero(table[_golden_hash(keys, shift)])
        if candidates.shape[0] == 0:
            return out
        probed = keys[candidates]
        order = np.argsort(stored)
        sorted_keys = stored[order]
        positions = np.searchsorted(sorted_keys, probed)
        positions = np.minimum(positions, sorted_keys.shape[0] - 1)
        mask = sorted_keys[positions] == probed
        out[candidates[mask]] = order[positions[mask]]
        return out

    def cm_update_weighted(
        self, table, a_hi, a_lo, b_mod, encoded, amounts
    ) -> np.ndarray:
        """Fused hash + scatter-add of (encoded key, amount) pairs,
        returning each key's row-minimum after the whole batch.

        Row-group ``cw_fold_columns`` + one flat ``np.add.at`` scatter
        per group, then a gather of the same cells folded into the
        row-minimum (rows are independent, so the gather already sees
        the post-batch rows).  ``table`` must be C-contiguous."""
        return _fold_row_groups(
            table, a_hi, a_lo, b_mod, encoded, _as_int64(amounts)
        )

    def cm_estimate(self, table, a_hi, a_lo, b_mod, encoded) -> np.ndarray:
        """Row-group ``cw_fold_columns`` gather folded with ``np.minimum``."""
        return _fold_row_groups(table, a_hi, a_lo, b_mod, encoded, None)

    def exchange_candidates(
        self, estimates: np.ndarray, threshold: int
    ) -> np.ndarray:
        """Positions whose estimate exceeds ``threshold``, ascending:
        ``np.flatnonzero`` over the threshold comparison."""
        return np.flatnonzero(_as_int64(estimates) > int(threshold))


_KERNELS = NumpyKernels()


def active_backend() -> NumpyKernels:
    """The kernels object every batch call goes through (always the
    same instance)."""
    return _KERNELS


def _prefilter_shift(occupied: int) -> np.uint64:
    """``64 - bits`` for the smallest ``2**bits >= 32 * occupied``
    (at least 32 bits), the probe prefilter's table size."""
    return np.uint64(64 - max(5, (32 * occupied - 1).bit_length()))


def _golden_hash(keys: np.ndarray, shift: np.uint64) -> np.ndarray:
    """Top ``64 - shift`` bits of ``key * _GOLDEN`` (mod ``2**64``), as
    table indices: the multiply carries every key bit into the top
    bits, so keys that share low bits spread across the table."""
    hashed = np.multiply(keys.view(np.uint64), _GOLDEN)
    return np.right_shift(hashed, shift, out=hashed).view(np.int64)


def _fold_row_groups(
    table: np.ndarray,
    a_hi: np.ndarray,
    a_lo: np.ndarray,
    b_mod: np.ndarray,
    encoded: np.ndarray,
    amounts: np.ndarray | None,
) -> np.ndarray:
    """The Count-Min kernels' shared body: hash, optionally
    scatter-add ``amounts``, and gather each key's row-minimum.

    Rows are folded ``max(1, _CELLS // n)`` at a time: one broadcast
    ``cw_fold_columns`` call hashes the group's rows, ``row * width``
    offsets turn its columns into flat cells, and one 1-D ``np.add.at``
    into ``table.reshape(-1)`` with contiguous tiled values stays on
    ``ufunc.at``'s fast path.  Batches of ``_CELLS`` keys or more fold
    one row at a time.
    """
    encoded = _codes_as_int64(encoded)
    n = encoded.shape[0]
    rows, width = table.shape
    out = np.full(n, _INT64_MAX, dtype=np.int64)
    if amounts is not None and not table.flags.c_contiguous:
        # reshape(-1) would copy, and the scatter would land in the copy.
        raise ConfigurationError(
            "the Count-Min table must be C-contiguous for a batch update"
        )
    if n == 0:
        return out
    flat = table.reshape(-1)
    step = max(1, _CELLS // n)
    keys = encoded[np.newaxis, :]
    offsets = np.arange(0, rows * width, width, dtype=np.int64)[:, np.newaxis]
    for first in range(0, rows, step):
        group = slice(first, min(first + step, rows))
        cells = cw_fold_columns(
            a_hi[group, np.newaxis], a_lo[group, np.newaxis],
            b_mod[group, np.newaxis], keys, width,
        )
        np.add(cells, offsets[group], out=cells)
        cells = cells.reshape(-1)
        if amounts is not None:
            np.add.at(flat, cells, np.tile(amounts, cells.shape[0] // n))
        np.minimum(out, flat[cells].reshape(-1, n).min(axis=0), out=out)
    return out
