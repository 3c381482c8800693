"""Count Sketch (Charikar, Chen & Farach-Colton, reference [7]).

Each row pairs a bucket hash with a ±1 sign hash; updates add
``sign(key) * amount`` to one cell per row and a query returns the
*median* of ``sign(key) * cell`` across rows.  Unlike Count-Min the error
is two-sided (unbiased), so Count Sketch cannot misclassify items only
upward — but it can underestimate, which is why the paper builds ASketch's
guarantee discussion on Count-Min.  Included as the third backend listed
in the paper's Figure 1 and for the backend-generality tests.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters
from repro.hashing import make_hash_family
from repro.hashing.families import SignHash, encode_key_array, key_to_int
from repro.sketches.base import CELL_BYTES, FrequencySketch, row_width_for_bytes
from repro.synopses.protocol import SynopsisState


class CountSketch(FrequencySketch):
    """Median-estimator sketch with ±1 signs.

    Parameters mirror :class:`~repro.sketches.count_min.CountMinSketch`.
    """

    def __init__(
        self,
        num_hashes: int = 8,
        row_width: int | None = None,
        *,
        total_bytes: int | None = None,
        seed: int = 0,
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
                f"invalid Count Sketch dimensions w={num_hashes}, h={row_width}"
            )
        self.num_hashes = int(num_hashes)
        self.row_width = int(row_width)
        self.seed = int(seed)
        self.hash_family_name = hash_family
        self._table = np.zeros((self.num_hashes, self.row_width), dtype=np.int64)
        self._hashes = [
            make_hash_family(hash_family, self.row_width, seed * 2_000_003 + row)
            for row in range(self.num_hashes)
        ]
        self._signs = [
            SignHash(seed * 3_000_017 + row) for row in range(self.num_hashes)
        ]
        self.ops = OpCounters()

    @property
    def size_bytes(self) -> int:
        return self.num_hashes * self.row_width * CELL_BYTES

    def _locate(self, key: int) -> list[tuple[int, int]]:
        encoded = key_to_int(key)
        return [
            (h(encoded), s(encoded))
            for h, s in zip(self._hashes, self._signs)
        ]

    def update(self, key: int, amount: int = 1) -> int:
        self.ops.hash_evals += 2 * self.num_hashes
        self.ops.sketch_cell_writes += self.num_hashes
        values = []
        for row, (col, sign) in enumerate(self._locate(key)):
            self._table[row, col] += sign * amount
            values.append(sign * int(self._table[row, col]))
        return int(statistics.median(values))

    def update_batch(self, keys: np.ndarray, amount: int = 1) -> None:
        keys = np.asarray(keys)
        encoded = encode_key_array(keys)
        self.ops.hash_evals += 2 * self.num_hashes * len(keys)
        self.ops.sketch_cell_writes += self.num_hashes * len(keys)
        for row in range(self.num_hashes):
            columns = self._hashes[row].hash_array(encoded)
            signs = self._signs[row].hash_array(encoded)
            np.add.at(self._table[row], columns, signs * amount)

    def update_batch_weighted(
        self, keys: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """Vectorised per-key weighted updates (signed scatter-add);
        returns the post-batch :meth:`estimate_array`."""
        keys = np.asarray(keys)
        amounts = np.asarray(amounts, dtype=np.int64)
        encoded = encode_key_array(keys)
        self.ops.hash_evals += 2 * self.num_hashes * len(keys)
        self.ops.sketch_cell_writes += self.num_hashes * len(keys)
        for row in range(self.num_hashes):
            columns = self._hashes[row].hash_array(encoded)
            signs = self._signs[row].hash_array(encoded)
            np.add.at(self._table[row], columns, signs * amounts)
        return self.estimate_array(keys)

    def estimate(self, key: int) -> int:
        """Median of signed cells; can under- as well as over-estimate."""
        self.ops.hash_evals += 2 * self.num_hashes
        self.ops.sketch_cell_reads += self.num_hashes
        values = [
            sign * int(self._table[row, col])
            for row, (col, sign) in enumerate(self._locate(key))
        ]
        return int(statistics.median(values))

    def estimate_batch(self, keys) -> list[int]:
        """Vectorised point queries (row-wise signed reads, median)."""
        return self.estimate_array(keys).tolist()

    def estimate_array(self, keys) -> np.ndarray:
        """:meth:`estimate_batch` as an int64 array."""
        if not isinstance(keys, np.ndarray):
            keys = np.asarray(list(keys))
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        encoded = encode_key_array(keys)
        self.ops.hash_evals += 2 * self.num_hashes * len(keys)
        self.ops.sketch_cell_reads += self.num_hashes * len(keys)
        signed = np.empty((self.num_hashes, len(keys)), dtype=np.int64)
        for row in range(self.num_hashes):
            columns = self._hashes[row].hash_array(encoded)
            signs = self._signs[row].hash_array(encoded)
            signed[row] = signs * self._table[row, columns]
        return np.median(signed, axis=0).astype(np.int64)

    def total_count(self) -> int:
        """Signed row-0 sum — equals ``N`` only in expectation, kept for
        parity with the Count-Min interface."""
        return int(np.abs(self._table[0]).sum())

    # -- merging ----------------------------------------------------------

    def is_mergeable_with(self, other: "CountSketch") -> bool:
        """Same dimensions and identical bucket *and* sign hashes."""
        if not isinstance(other, CountSketch):
            return False
        if (self.num_hashes, self.row_width) != (
            other.num_hashes,
            other.row_width,
        ):
            return False
        probe_keys = (0, 1, 2, 12345, 987654321)
        return all(
            self._locate(key) == other._locate(key) for key in probe_keys
        )

    def merge(self, other: "CountSketch") -> None:
        """Cell-wise add — Count Sketch is linear, like Count-Min."""
        if not self.is_mergeable_with(other):
            raise ConfigurationError(
                "sketches must share dimensions and hash seeds to merge"
            )
        self._table += other._table
        self.ops.sketch_cell_writes += self.num_hashes * self.row_width

    # -- synopsis protocol --------------------------------------------------

    SYNOPSIS_KIND = "count-sketch"

    def state(self) -> SynopsisState:
        """Full state: construction parameters plus the signed table."""
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "num_hashes": self.num_hashes,
                "row_width": self.row_width,
                "seed": self.seed,
                "hash_family": self.hash_family_name,
            },
            arrays={"table": self._table.copy()},
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "CountSketch":
        sketch = cls(**state.params)
        sketch._table[:] = state.arrays["table"]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountSketch(w={self.num_hashes}, h={self.row_width}, "
            f"bytes={self.size_bytes})"
        )
