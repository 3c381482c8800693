"""Common interface and sizing helpers for sketch synopses.

Terminology follows the paper: a sketch has ``w`` hash functions
(``num_hashes`` here) each mapping onto ``[0, h)`` (``row_width`` here),
for ``w * h`` counter cells.  Space budgets are expressed in bytes with the
paper's 4-byte logical cells (``CELL_BYTES``), independent of the 8-byte
NumPy storage we use internally — all paper experiments size synopses as
``w * h * 4`` bytes, and we reproduce that accounting exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters
from repro.hashing.families import int64_keys

#: Logical bytes per counter cell, as in the paper's space accounting.
CELL_BYTES = 4


def row_width_for_bytes(total_bytes: int, num_hashes: int) -> int:
    """Row width ``h`` for a byte budget: ``h = bytes / (w * CELL_BYTES)``.

    Raises :class:`ConfigurationError` if the budget cannot hold at least
    one cell per row.
    """
    if num_hashes <= 0:
        raise ConfigurationError(f"num_hashes must be positive, got {num_hashes}")
    width = total_bytes // (num_hashes * CELL_BYTES)
    if width < 1:
        raise ConfigurationError(
            f"{total_bytes} bytes cannot hold {num_hashes} rows of "
            f"{CELL_BYTES}-byte cells"
        )
    return width


class FrequencySketch(ABC):
    """Interface every sketch synopsis implements.

    Updates are *point* operations returning the post-update estimate (the
    ASketch exchange test needs it without a second probe, mirroring the
    paper's Algorithm 1 line 9).  :meth:`update_batch_weighted` is their
    batch twin: it returns every key's estimate after the whole batch.
    :meth:`update_batch` serves workloads that need no estimates at all.
    """

    #: Operation record for the hardware cost model.
    ops: OpCounters

    @property
    @abstractmethod
    def size_bytes(self) -> int:
        """Logical size of the synopsis in bytes (paper accounting)."""

    @abstractmethod
    def update(self, key: int, amount: int = 1) -> int:
        """Add ``amount`` to ``key`` and return the new estimate for it.

        ``amount`` may be negative (strict turnstile model, Appendix A);
        implementations raise :class:`NegativeCountError` when a deletion
        is detectably invalid.
        """

    @abstractmethod
    def estimate(self, key: int) -> int:
        """Estimated frequency of ``key``."""

    def update_batch(self, keys: np.ndarray, amount: int = 1) -> None:
        """Apply many single-``amount`` updates without returning estimates.

        The default implementation loops; array-backed sketches override
        with a vectorised version.
        """
        for key in int64_keys(keys).tolist():
            self.update(key, amount)

    def update_batch_weighted(
        self, keys: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """Apply per-key weighted updates; return post-batch estimates.

        ``keys[i]`` receives ``amounts[i]``.  This is the miss path of
        the ASketch batched ingest: a chunk is pre-aggregated to one
        (key, total) pair per distinct key before it reaches the sketch,
        and the returned int64 array (:meth:`estimate_batch` read after
        the whole batch) drives the exchange check.  The default loops
        :meth:`update` and then reads the estimates; Count-Min overrides
        with one fused scatter-and-gather per group of rows.
        """
        keys = int64_keys(keys)
        amounts = np.asarray(amounts)
        for key, amount in zip(keys.tolist(), amounts.tolist()):
            self.update(int(key), int(amount))
        return self.estimate_batch(keys)

    def estimate_batch(self, keys: Iterable[int]) -> np.ndarray:
        """Point-query every key, as an int64 array in key order.

        The default loops over :meth:`estimate`; array-backed sketches
        override with a vectorised read.
        """
        keys = int64_keys(keys)
        return np.fromiter(
            (self.estimate(key) for key in keys.tolist()),
            dtype=np.int64, count=len(keys),
        )

    def process_stream(self, keys: np.ndarray) -> None:
        """Ingest a unit-count key array as a stream (driver entry point).

        Charges one per-item loop iteration to the operation record on
        top of whatever :meth:`update_batch` charges, so modeled
        throughput matches a per-item execution.
        """
        self.update_batch(keys)
        self.ops.items += len(keys)
