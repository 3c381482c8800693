"""Plain-Python references for the :mod:`repro.kernels` operations.

Each function computes with Python ints and the scalar hash, so the
kernel suites can check the vectorised code against the definition of
each operation rather than against another vectorised form.
"""

from __future__ import annotations

import numpy as np


def membership_probe(stored, keys) -> np.ndarray:
    """Slot of each key among the live keys ``stored``, ``-1`` on a miss."""
    slots = {key: slot for slot, key in enumerate(np.asarray(stored).tolist())}
    return np.array(
        [slots.get(key, -1) for key in np.asarray(keys).tolist()],
        dtype=np.int64,
    )


def cm_update_weighted(table, hashes, codes, amounts) -> np.ndarray:
    """Add each amount at its code's cell of every row of ``table``
    (``hashes[row]`` is the row's scalar hash), one key at a time, and
    return each code's estimate on the resulting table."""
    for row, family in enumerate(hashes):
        for code, amount in zip(codes.tolist(), amounts.tolist()):
            table[row, family(code)] += amount
    return cm_estimate(table, hashes, codes)


def cm_estimate(table, hashes, codes) -> np.ndarray:
    """The minimum over the rows of each code's cell."""
    return np.array(
        [
            min(int(table[row, family(code)]) for row, family in enumerate(hashes))
            for code in codes.tolist()
        ],
        dtype=np.int64,
    )


def exchange_candidates(estimates, threshold) -> np.ndarray:
    """Positions whose estimate exceeds ``threshold``, ascending."""
    return np.array(
        [i for i, value in enumerate(np.asarray(estimates).tolist())
         if value > threshold],
        dtype=np.int64,
    )


def kernel_rows(hashes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The same rows in the kernels' form: ``(a_hi, a_lo, b_mod)``
    columns of the hashes' ``kernel_params``."""
    return tuple(
        np.array(column, dtype=np.int64)
        for column in zip(*(family.kernel_params for family in hashes))
    )
