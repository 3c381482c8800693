"""SPMD kernel group: one ASketch per core, merged at query time (§6.3).

The paper's SPMD deployment runs ASketch as a sequential counting kernel
on every core, each consuming its *own* stream (the multi-stream
scenario); because frequency estimation is commutative, a point query
asks every kernel and sums the responses, "quite inexpensive" for point
queries.  This module implements that deployment functionally — the
actual core-level speedup is modeled by :class:`repro.hardware.spmd.
SpmdModel`; here the semantics (partitioning, query merging, combined
top-k) are real and tested.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters


class KernelGroup:
    """A fixed set of independent ASketch kernels with merged queries.

    Parameters
    ----------
    kernels:
        Number of kernels (cores).  Each kernel gets its own hash seeds,
        so per-kernel collisions are independent.
    total_bytes, filter_items, filter_kind, num_hashes, seed:
        Forwarded to each :class:`~repro.core.asketch.ASketch`; every
        kernel receives the full ``total_bytes`` budget, as in the
        paper's Figure 13 setup ("each synopsis size is 128KB").
    """

    def __init__(
        self,
        kernels: int,
        total_bytes: int,
        filter_items: int = 32,
        filter_kind: str = "relaxed-heap",
        num_hashes: int = 8,
        seed: int = 0,
    ) -> None:
        if kernels < 1:
            raise ConfigurationError(f"kernels must be >= 1, got {kernels}")
        self._kernels = [
            ASketch(
                total_bytes=total_bytes,
                filter_items=filter_items,
                filter_kind=filter_kind,
                num_hashes=num_hashes,
                seed=seed * 7919 + index,
            )
            for index in range(kernels)
        ]

    def __len__(self) -> int:
        return len(self._kernels)

    @property
    def kernels(self) -> list[ASketch]:
        """The per-core kernels (read access)."""
        return list(self._kernels)

    # -- ingestion --------------------------------------------------------

    def process_stream_on(self, kernel_index: int, keys: np.ndarray) -> None:
        """Feed one core's stream to its kernel (the multi-stream model)."""
        self._kernels[kernel_index].process_stream(keys)

    def scatter_stream(self, keys: np.ndarray) -> None:
        """Round-robin one stream across the kernels.

        A convenience for single-source deployments; the paper's setup
        has genuinely separate streams, which ``process_stream_on``
        models directly.
        """
        for index, kernel in enumerate(self._kernels):
            kernel.process_stream(keys[index :: len(self._kernels)])

    # -- queries ----------------------------------------------------------

    def query(self, key: int) -> int:
        """Merged point query: the sum of every kernel's estimate.

        Sums of one-sided over-estimates are one-sided over-estimates of
        the summed true counts, so the combined answer keeps the
        guarantee.
        """
        return sum(kernel.query(key) for kernel in self._kernels)

    def query_batch(self, keys: Iterable[int]) -> np.ndarray:
        """Merged point queries for many keys, as an int64 array."""
        return np.fromiter(
            (self.query(int(key)) for key in keys), dtype=np.int64
        )

    estimate = query
    estimate_batch = query_batch

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """Merged top-k: union the per-kernel filters, re-query, rank.

        Every globally heavy item is heavy on at least one kernel (its
        counts are split across kernels but the filters adapt per
        kernel), so the union of filter contents is a sound candidate
        set.
        """
        candidates = set()
        for kernel in self._kernels:
            candidates.update(
                key for key, _ in kernel.top_k(kernel.filter.capacity)
            )
        ranked = sorted(
            ((key, self.query(key)) for key in candidates),
            key=lambda pair: pair[1],
            reverse=True,
        )
        return ranked[:k]

    # -- accounting -------------------------------------------------------

    def combined_ops(self) -> OpCounters:
        """Sum of all kernels' operation records (drives the SPMD model)."""
        merged = OpCounters()
        for kernel in self._kernels:
            merged.merge(kernel.combined_ops())
        return merged

    @property
    def total_mass(self) -> int:
        """Aggregate stream mass across all kernels."""
        return sum(kernel.total_mass for kernel in self._kernels)
