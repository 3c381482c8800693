"""Count-Min sketch (Cormode & Muthukrishnan, reference [11] of the paper).

``w`` pairwise-independent hash functions each map a key onto ``[0, h)``;
an update adds the amount to one cell per row, a query returns the minimum
over the key's ``w`` cells.  For a stream of aggregate count ``N`` the
estimate exceeds the true count by at most ``(e/h) * N`` with probability
at least ``1 - e^-w`` — the bound restated in the paper's §3.

Also provides the *conservative update* variant (an optional accuracy
optimisation: only raise cells to ``min + amount``), used by the ablation
benches; the paper's baselines all use the classical update.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NegativeCountError
from repro.hardware.costs import OpCounters
from repro.hashing import make_hash_family
from repro.hashing.families import (
    CarterWegmanHash,
    encode_key_array,
    key_to_int,
)
from repro.kernels import active_backend
from repro.sketches.base import CELL_BYTES, FrequencySketch, row_width_for_bytes
from repro.synopses.protocol import SynopsisState

#: Encoded keys must stay below this for the fused int64 hash kernels
#: (see :func:`repro.hashing.families.cw_fold_columns`).
_KERNEL_KEY_LIMIT = 1 << 31
_INT64_MAX = np.iinfo(np.int64).max


class CountMinSketch(FrequencySketch):
    """The classical Count-Min sketch.

    Parameters
    ----------
    num_hashes:
        ``w``, the number of hash functions / rows.  The paper fixes
        ``w = 8`` in most experiments.
    row_width:
        ``h``, the range of each hash function.  Mutually exclusive with
        ``total_bytes``.
    total_bytes:
        Byte budget; ``h`` is derived as ``bytes / (w * 4)``.
    seed:
        Seed for the hash family parameters.
    conservative:
        If true, use conservative update (cells only raised to
        ``estimate + amount``).  Slightly slower, strictly more accurate;
        exercised by ``benchmarks/bench_ablation_sizing.py``.
    hash_family:
        Name of the hash family (see :mod:`repro.hashing`).
    """

    def __init__(
        self,
        num_hashes: int = 8,
        row_width: int | None = None,
        *,
        total_bytes: int | None = None,
        seed: int = 0,
        conservative: bool = False,
        hash_family: str = "carter-wegman",
    ) -> None:
        if (row_width is None) == (total_bytes is None):
            raise ConfigurationError(
                "specify exactly one of row_width or total_bytes"
            )
        if total_bytes is not None:
            row_width = row_width_for_bytes(total_bytes, num_hashes)
        assert row_width is not None
        if num_hashes <= 0 or row_width <= 0:
            raise ConfigurationError(
                f"invalid Count-Min dimensions w={num_hashes}, h={row_width}"
            )
        self.num_hashes = int(num_hashes)
        self.row_width = int(row_width)
        self.conservative = bool(conservative)
        self.seed = int(seed)
        self.hash_family_name = hash_family
        self._table = np.zeros((self.num_hashes, self.row_width), dtype=np.int64)
        self._hashes = [
            make_hash_family(hash_family, self.row_width, seed * 1_000_003 + row)
            for row in range(self.num_hashes)
        ]
        # Pre-split Carter-Wegman parameters for the fused hash kernels:
        # per-row (a_hi, a_lo, b mod p) arrays, or None when another hash
        # family is in use (kernel dispatch then falls back to the
        # per-row hash_array path).
        self._cw_params: tuple[np.ndarray, np.ndarray, np.ndarray] | None
        if all(isinstance(h, CarterWegmanHash) for h in self._hashes):
            params = [h.kernel_params for h in self._hashes]
            self._cw_params = (
                np.array([p[0] for p in params], dtype=np.int64),
                np.array([p[1] for p in params], dtype=np.int64),
                np.array([p[2] for p in params], dtype=np.int64),
            )
        else:
            self._cw_params = None
        self.ops = OpCounters()

    # -- sizing -----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_hashes * self.row_width * CELL_BYTES

    @property
    def table(self) -> np.ndarray:
        """Read-only view of the counter array (tests and introspection)."""
        view = self._table.view()
        view.setflags(write=False)
        return view

    # -- hashing ----------------------------------------------------------

    def hash_columns(self, key: int) -> list[int]:
        """The ``w`` column indices for a key (one per row)."""
        encoded = key_to_int(key)
        return [h(encoded) for h in self._hashes]

    def hash_columns_batch(self, keys: np.ndarray) -> np.ndarray:
        """Column indices for many keys, shape ``(num_hashes, len(keys))``.

        Used by the stream-processing fast path to hoist hashing out of the
        per-item Python loop.  Hash-evaluation costs are charged when the
        columns are *consumed* (see :meth:`update_at`), not here, so the
        cost model sees the same operation mix as a per-item execution.
        """
        encoded = encode_key_array(keys)
        columns = np.empty((self.num_hashes, len(keys)), dtype=np.int64)
        for row, family in enumerate(self._hashes):
            columns[row] = family.hash_array(encoded)
        return columns

    # -- updates ----------------------------------------------------------

    def update(self, key: int, amount: int = 1) -> int:
        """Classical (or conservative) point update; returns new estimate."""
        return self.update_at(self.hash_columns(key), amount)

    def update_at(self, columns: list[int] | np.ndarray, amount: int = 1) -> int:
        """Update using precomputed column indices; returns new estimate."""
        table = self._table
        ops = self.ops
        ops.hash_evals += self.num_hashes
        ops.sketch_cell_writes += self.num_hashes
        if self.conservative and amount > 0:
            current = min(int(table[row, col]) for row, col in enumerate(columns))
            target = current + amount
            estimate = target
            for row, col in enumerate(columns):
                if table[row, col] < target:
                    table[row, col] = target
            ops.sketch_cell_reads += self.num_hashes
            return estimate
        estimate = None
        for row, col in enumerate(columns):
            cell = int(table[row, col]) + amount
            if cell < 0:
                raise NegativeCountError(
                    "negative update drove a Count-Min cell below zero; "
                    "the strict turnstile assumption was violated"
                )
            table[row, col] = cell
            if estimate is None or cell < estimate:
                estimate = cell
        assert estimate is not None
        return estimate

    def update_batch(self, keys: np.ndarray, amount: int = 1) -> None:
        """Vectorised updates (no estimates returned).

        Conservative mode cannot be vectorised exactly (each update depends
        on the previous state), so it falls back to the per-item loop.
        """
        keys = np.asarray(keys)
        if self.conservative:
            super().update_batch(keys, amount)
            return
        encoded = encode_key_array(keys)
        self.ops.hash_evals += self.num_hashes * len(keys)
        self.ops.sketch_cell_writes += self.num_hashes * len(keys)
        for row, family in enumerate(self._hashes):
            columns = family.hash_array(encoded)
            np.add.at(self._table[row], columns, amount)
        if amount < 0 and (self._table < 0).any():
            raise NegativeCountError(
                "batch negative update drove a Count-Min cell below zero"
            )

    def update_batch_weighted(
        self, keys: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """Vectorised per-key weighted updates; returns post-batch estimates.

        One fused pass per group of rows hashes each key once per row,
        scatter-adds the amounts and gathers the same cells into the
        running row-minimum; the numpy kernel sizes the groups so small
        batches fold every row at once while no temporary outgrows a
        fixed cell budget or the batch itself.  Rows are independent, so
        the result equals :meth:`estimate_batch` read after the whole
        batch.  The operation record is charged as for that update plus
        that read.  Conservative mode falls back to the per-item loop for
        the same reason :meth:`update_batch` does.
        """
        keys = np.asarray(keys)
        amounts = np.asarray(amounts, dtype=np.int64)
        if self.conservative:
            return super().update_batch_weighted(keys, amounts)
        encoded = encode_key_array(keys)
        cells = self.num_hashes * len(keys)
        self.ops.hash_evals += 2 * cells
        self.ops.sketch_cell_writes += cells
        self.ops.sketch_cell_reads += cells
        if self._kernel_ready(encoded):
            assert self._cw_params is not None
            a_hi, a_lo, b_mod = self._cw_params
            estimates = active_backend().cm_update_weighted(
                self._table, a_hi, a_lo, b_mod, encoded, amounts
            )
        else:
            estimates = np.full(len(keys), _INT64_MAX, dtype=np.int64)
            for row, family in enumerate(self._hashes):
                columns = family.hash_array(encoded)
                np.add.at(self._table[row], columns, amounts)
                np.minimum(estimates, self._table[row, columns], out=estimates)
        if amounts.size and int(amounts.min()) < 0 and (self._table < 0).any():
            raise NegativeCountError(
                "batch negative update drove a Count-Min cell below zero"
            )
        return estimates

    # -- queries ----------------------------------------------------------

    def estimate(self, key: int) -> int:
        """Minimum over the key's cells — an overestimate of its count."""
        self.ops.hash_evals += self.num_hashes
        self.ops.sketch_cell_reads += self.num_hashes
        table = self._table
        return min(
            int(table[row, col]) for row, col in enumerate(self.hash_columns(key))
        )

    def estimate_batch(self, keys) -> list[int]:
        """Vectorised point queries."""
        return self.estimate_array(keys).tolist()

    def estimate_array(self, keys) -> np.ndarray:
        """Vectorised point queries as the kernel's int64 array."""
        if not isinstance(keys, np.ndarray):
            keys = np.asarray(list(keys))
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        encoded = encode_key_array(keys)
        self.ops.hash_evals += self.num_hashes * len(keys)
        self.ops.sketch_cell_reads += self.num_hashes * len(keys)
        if self._kernel_ready(encoded):
            assert self._cw_params is not None
            a_hi, a_lo, b_mod = self._cw_params
            return active_backend().cm_estimate(
                self._table, a_hi, a_lo, b_mod, encoded
            )
        estimates = np.full(len(keys), _INT64_MAX, dtype=np.int64)
        for row, family in enumerate(self._hashes):
            columns = family.hash_array(encoded)
            np.minimum(estimates, self._table[row, columns], out=estimates)
        return estimates

    def _kernel_ready(self, encoded: np.ndarray) -> bool:
        """Whether the fused hash kernels can serve this encoded batch.

        Requires Carter-Wegman rows (pre-split parameters exist) and
        every encoded key below ``2**31`` — the overflow bound of the
        int64 Mersenne folding; the uint64 codes of
        :func:`encode_key_array` compare unsigned, so no huge code
        passes as a negative one.  Anything else takes the per-row
        ``hash_array`` path, which handles huge keys exactly.
        """
        return (
            self._cw_params is not None
            and encoded.size > 0
            and int(encoded.max()) < _KERNEL_KEY_LIMIT
        )

    def total_count(self) -> int:
        """Aggregate count ``N`` absorbed by the sketch (row 0 sum)."""
        return int(self._table[0].sum())

    # -- merging ----------------------------------------------------------

    def is_mergeable_with(self, other: "CountMinSketch") -> bool:
        """Whether two sketches share dimensions and hash functions.

        Cell-wise addition is only meaningful when both sketches map
        every key to the same cells — i.e. equal ``(w, h, seeds)``.
        """
        if not isinstance(other, CountMinSketch):
            return False
        if (self.num_hashes, self.row_width) != (
            other.num_hashes,
            other.row_width,
        ):
            return False
        probe_keys = (0, 1, 2, 12345, 987654321)
        return all(
            self.hash_columns(key) == other.hash_columns(key)
            for key in probe_keys
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Cell-wise add another sketch into this one.

        Count-Min is a linear sketch: the merged table summarises the
        concatenation of both input streams, with the same one-sided
        guarantee.  This is the distributed-aggregation story behind
        SPMD deployments that want a *single* combined synopsis instead
        of query-time summation.
        """
        if not self.is_mergeable_with(other):
            raise ConfigurationError(
                "sketches must share dimensions and hash seeds to merge"
            )
        self._table += other._table
        self.ops.sketch_cell_writes += self.num_hashes * self.row_width

    # -- synopsis protocol --------------------------------------------------

    SYNOPSIS_KIND = "count-min"

    def state(self) -> SynopsisState:
        """Full state: construction parameters plus the counter table."""
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "num_hashes": self.num_hashes,
                "row_width": self.row_width,
                "seed": self.seed,
                "conservative": self.conservative,
                "hash_family": self.hash_family_name,
            },
            arrays={"table": self._table.copy()},
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "CountMinSketch":
        """Rebuild a sketch that continues exactly where ``state`` left off."""
        sketch = cls(**state.params)
        sketch._table[:] = state.arrays["table"]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountMinSketch(w={self.num_hashes}, h={self.row_width}, "
            f"bytes={self.size_bytes}, conservative={self.conservative})"
        )
