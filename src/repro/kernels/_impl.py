"""Portable kernel bodies shared by the ``python`` and ``numba`` backends.

Every function here is written in the nopython subset numba can compile
(plain loops, int64 arithmetic, preallocated output arrays, no Python
objects), so one definition serves two backends: the ``python`` backend
calls these functions as-is, and the ``numba`` backend wraps *the same
functions* in ``numba.njit``.  Semantic identity between the interpreted
and the compiled legs therefore holds by construction; the equivalence
suite only has to pin these loops against the vectorised ``numpy``
reference.

The Carter-Wegman arithmetic computes the same columns as
:func:`repro.hashing.families.cw_fold_columns`, with plain ``%``
reductions where that vectorised fold uses the Mersenne identity: with
encoded keys below ``2**31`` and ``a = a_hi * 2**31 + a_lo`` (``a < p``
so ``a_hi < 2**30``), every product stays below ``2**62`` and every sum
below ``3 * 2**61``, so the whole reduction fits signed 64-bit — no
128-bit math required in compiled code.
"""

from __future__ import annotations

import numpy as np

#: Mersenne prime ``2**61 - 1`` (kept as a plain int so numba folds it).
_P = (1 << 61) - 1
_MASK_30 = (1 << 30) - 1
_INT64_MAX = (1 << 63) - 1


def membership_probe(
    stored: np.ndarray, keys: np.ndarray, out: np.ndarray
) -> None:
    """Slot index of each key among a filter's live keys (``-1`` = miss).

    ``stored`` is the live prefix of an array filter's raw key slots.
    The inner scan is the branch-free membership loop of Algorithm 3 —
    a compiler auto-vectorises it into exactly the SIMD probe the paper
    describes.
    """
    m = stored.shape[0]
    n = keys.shape[0]
    for i in range(n):
        target = keys[i]
        slot = -1
        for j in range(m):
            if stored[j] == target:
                slot = j
        out[i] = slot


def cm_update_weighted(
    table: np.ndarray,
    a_hi: np.ndarray,
    a_lo: np.ndarray,
    b_mod: np.ndarray,
    encoded: np.ndarray,
    amounts: np.ndarray,
    columns: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fused Carter-Wegman hash + scatter-add + post-batch row-minimum.

    One pass per row: each key's column is computed in-register, kept in
    the ``columns`` scratch row and its amount added immediately; once
    the row's scatter is done, a gather over the same columns folds the
    row into ``out``.  Rows are independent, so ``out`` ends equal to
    :func:`cm_estimate` on the updated table while every key is hashed
    once per row, not twice.
    """
    rows = table.shape[0]
    width = table.shape[1]
    n = encoded.shape[0]
    for i in range(n):
        out[i] = _INT64_MAX
    for r in range(rows):
        hi_a = a_hi[r]
        lo_a = a_lo[r]
        b = b_mod[r]
        for i in range(n):
            k = encoded[i]
            lo = (lo_a * k) % _P
            hi = (hi_a * k) % _P
            hi_term = ((hi >> 30) + ((hi & _MASK_30) << 31)) % _P
            col = ((lo + hi_term + b) % _P) % width
            columns[i] = col
            table[r, col] += amounts[i]
        for i in range(n):
            cell = table[r, columns[i]]
            if cell < out[i]:
                out[i] = cell


def cm_estimate(
    table: np.ndarray,
    a_hi: np.ndarray,
    a_lo: np.ndarray,
    b_mod: np.ndarray,
    encoded: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fused hash + gather + row-minimum (the Count-Min point query)."""
    rows = table.shape[0]
    width = table.shape[1]
    n = encoded.shape[0]
    for i in range(n):
        k = encoded[i]
        best = _INT64_MAX
        for r in range(rows):
            lo = (a_lo[r] * k) % _P
            hi = (a_hi[r] * k) % _P
            hi_term = ((hi >> 30) + ((hi & _MASK_30) << 31)) % _P
            col = ((lo + hi_term + b_mod[r]) % _P) % width
            cell = table[r, col]
            if cell < best:
                best = cell
        out[i] = best


def exchange_candidates(
    estimates: np.ndarray, threshold: int, out: np.ndarray
) -> int:
    """Positions whose estimate beats ``threshold``; returns the count.

    The ASketch batched exchange pre-check (Algorithm 1 line 9 hoisted
    to chunk granularity): the filter minimum is non-decreasing across
    exchanges, so keys at or below the pre-loop minimum can be skipped
    without changing any exchange decision.
    """
    n = estimates.shape[0]
    count = 0
    for i in range(n):
        if estimates[i] > threshold:
            out[count] = i
            count += 1
    return count
