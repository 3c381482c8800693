"""The three kernel backends: ``python``, ``numpy``, and ``numba``.

All backends implement the same four operations (see
:class:`KernelBackend`) with bit-identical results:

* ``python`` — the portable loop bodies of :mod:`repro.kernels._impl`,
  executed by the interpreter.  Slow; exists as the semantics reference
  for the compiled leg and for environments without NumPy vectorisation
  wins (it is also what makes the numba leg's logic testable without
  numba installed).
* ``numpy`` — vectorised reference implementation and the default.
  Shares the Carter-Wegman folding with
  :meth:`repro.hashing.families.CarterWegmanHash.hash_array` so kernel
  and non-kernel code paths hash identically.
* ``numba`` — ``numba.njit``-compiled versions of the *same* ``_impl``
  functions (semantic identity by construction).  Optional: constructing
  it raises ``ImportError`` when numba is absent; the registry in
  :mod:`repro.kernels` turns that into a graceful fallback.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.families import cw_fold_columns
from repro.kernels import _impl

_INT64_MAX = (1 << 63) - 1
#: Cells (rows x keys) the numpy Count-Min kernels fold per pass: small
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


class KernelBackend:
    """One compute backend for the three compiled hot loops.

    Subclasses supply the four raw operations; results are bit-identical
    across backends (enforced by ``tests/kernels`` and the hypothesis
    equivalence suite), and the estimates ``cm_update_weighted`` returns
    equal ``cm_estimate`` on the table it leaves.  ``accelerated``
    distinguishes genuinely compiled backends from interpreted ones for
    metrics/bench stamping.
    """

    #: Registry name (``"python"`` / ``"numpy"`` / ``"numba"``).
    name: str = "abstract"
    #: True when the backend runs machine-compiled loops.
    accelerated: bool = False

    def membership_probe(
        self, stored: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Slot of each key among a filter's live keys, ``-1`` on a miss."""
        raise NotImplementedError

    def cm_update_weighted(
        self,
        table: np.ndarray,
        a_hi: np.ndarray,
        a_lo: np.ndarray,
        b_mod: np.ndarray,
        encoded: np.ndarray,
        amounts: np.ndarray,
    ) -> np.ndarray:
        """Fused hash + scatter-add of (encoded key, amount) pairs.

        Returns each key's row-minimum *after the whole batch* — exactly
        what :meth:`cm_estimate` would answer on the updated table —
        gathered from the columns the scatter already hashed.
        """
        raise NotImplementedError

    def cm_estimate(
        self,
        table: np.ndarray,
        a_hi: np.ndarray,
        a_lo: np.ndarray,
        b_mod: np.ndarray,
        encoded: np.ndarray,
    ) -> np.ndarray:
        """Fused hash + gather + row-minimum per encoded key."""
        raise NotImplementedError

    def exchange_candidates(
        self, estimates: np.ndarray, threshold: int
    ) -> np.ndarray:
        """Positions whose estimate exceeds ``threshold``, ascending."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r} accelerated={self.accelerated}>"


class _LoopBackend(KernelBackend):
    """Backend driving the shared ``_impl`` loop bodies.

    ``python`` uses the functions directly; ``numba`` swaps in their
    njit-compiled twins.  Everything else (allocation, trimming) is
    identical, which is exactly the semantic-identity argument.
    """

    def __init__(self, compile_fn: Callable | None = None) -> None:
        wrap = compile_fn if compile_fn is not None else (lambda fn: fn)
        self._membership_probe = wrap(_impl.membership_probe)
        self._cm_update_weighted = wrap(_impl.cm_update_weighted)
        self._cm_estimate = wrap(_impl.cm_estimate)
        self._exchange_candidates = wrap(_impl.exchange_candidates)

    def membership_probe(
        self, stored: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Loop-kernel membership probe (see ``_impl.membership_probe``)."""
        keys = _as_int64(keys)
        out = np.empty(keys.shape[0], dtype=np.int64)
        self._membership_probe(_as_int64(stored), keys, out)
        return out

    def cm_update_weighted(
        self, table, a_hi, a_lo, b_mod, encoded, amounts
    ) -> np.ndarray:
        """Loop-kernel fused update (see ``_impl.cm_update_weighted``)."""
        encoded = _codes_as_int64(encoded)
        columns = np.empty(encoded.shape[0], dtype=np.int64)
        out = np.empty(encoded.shape[0], dtype=np.int64)
        self._cm_update_weighted(
            table, a_hi, a_lo, b_mod, encoded, _as_int64(amounts),
            columns, out,
        )
        return out

    def cm_estimate(self, table, a_hi, a_lo, b_mod, encoded) -> np.ndarray:
        """Loop-kernel fused estimate (see ``_impl.cm_estimate``)."""
        encoded = _codes_as_int64(encoded)
        out = np.empty(encoded.shape[0], dtype=np.int64)
        self._cm_estimate(table, a_hi, a_lo, b_mod, encoded, out)
        return out

    def exchange_candidates(
        self, estimates: np.ndarray, threshold: int
    ) -> np.ndarray:
        """Loop-kernel candidate filter (see ``_impl.exchange_candidates``)."""
        estimates = _as_int64(estimates)
        out = np.empty(estimates.shape[0], dtype=np.int64)
        count = self._exchange_candidates(estimates, int(threshold), out)
        return out[: int(count)]


class PythonBackend(_LoopBackend):
    """Interpreted reference execution of the shared loop bodies."""

    name = "python"
    accelerated = False

    def __init__(self) -> None:
        super().__init__(compile_fn=None)


class NumpyBackend(KernelBackend):
    """Vectorised NumPy reference backend (the default)."""

    name = "numpy"
    accelerated = False

    def membership_probe(
        self, stored: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Bit-table prefilter, then sorted-view ``searchsorted``
        membership over the live keys for the probe keys that pass it.

        Each stored key sets one bit of a table of ``2**bits >= 32 m``
        bits (``m`` live slots, one byte per bit), chosen by the
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
        """Row-group ``cw_fold_columns`` + one flat ``np.add.at`` scatter
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
        """``np.flatnonzero`` over the threshold comparison."""
        return np.flatnonzero(_as_int64(estimates) > int(threshold))


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
    """The numpy Count-Min kernels' shared body: hash, optionally
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


class NumbaBackend(_LoopBackend):
    """``numba.njit``-compiled execution of the shared loop bodies.

    Constructing the backend imports numba, compiles the four kernels
    (``cache=True`` so later processes reuse the on-disk cache) and
    warms each with a tiny call, so selection cost is paid once up
    front rather than mid-stream.  Raises ``ImportError`` when numba is
    not installed — the registry converts that into a fallback to
    ``numpy`` plus a warning metric.
    """

    name = "numba"
    accelerated = True

    def __init__(self) -> None:
        import numba

        super().__init__(
            compile_fn=numba.njit(cache=True, nogil=True, fastmath=False)
        )
        self._warmup()

    def _warmup(self) -> None:
        """Trigger compilation of every kernel with minimal inputs."""
        stored = np.array([1], dtype=np.int64)
        keys = np.array([1, -1], dtype=np.int64)
        self.membership_probe(stored, keys)
        table = np.zeros((1, 4), dtype=np.int64)
        row_param = np.array([1], dtype=np.int64)
        encoded = np.array([3], dtype=np.int64)
        self.cm_update_weighted(
            table, row_param, row_param, row_param, encoded,
            np.array([1], dtype=np.int64),
        )
        self.cm_estimate(table, row_param, row_param, row_param, encoded)
        self.exchange_candidates(np.array([5], dtype=np.int64), 1)
