"""Hierarchical Count-Min over dyadic ranges (reference [8]'s structure).

The paper's related work notes that plain sketches can support top-k /
heavy-hitter queries only "with an additional heap [7] or a hierarchical
data structure [8]".  This module implements that hierarchical
alternative, which the ASketch filter-based top-k competes against:

one Count-Min sketch per level of a binary partition of the key domain.
Level 0 counts single keys; level ``l`` counts dyadic ranges of size
``2**l``.  An update touches one counter per level (O(log U) work); the
structure then answers:

* ``heavy_hitters(threshold)`` by descending the dyadic tree, pruning
  subtrees whose range estimate is below the threshold — O(k log U)
  sketch queries instead of a domain scan;
* ``range_count(lo, hi)`` as the sum of O(log U) dyadic range
  estimates — the classical range-query application;
* ``top_k`` via a threshold search over the tree.

The comparison bench (``bench_extension_topk.py``) shows the trade-off
the paper exploits: the hierarchy spends log U sketch updates per item
and splits its space budget across levels, while ASketch answers the
same top-k from its filter with *faster* updates and better heavy-hitter
accuracy at equal space.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters
from repro.hashing.families import int64_keys
from repro.sketches.count_min import CountMinSketch
from repro.synopses.protocol import SynopsisState


class HierarchicalCountMin:
    """Dyadic Count-Min hierarchy for heavy-hitter and range queries.

    Parameters
    ----------
    domain_bits:
        Keys live in ``[0, 2**domain_bits)``.
    total_bytes:
        Byte budget split evenly across the ``domain_bits + 1`` levels.
    num_hashes:
        Rows per level sketch (fewer than a standalone sketch is typical
        since the budget is split; default 4).
    seed:
        Base hash seed; levels derive distinct seeds.
    """

    def __init__(
        self,
        domain_bits: int,
        *,
        total_bytes: int,
        num_hashes: int = 4,
        seed: int = 0,
    ) -> None:
        if domain_bits < 1 or domain_bits > 40:
            raise ConfigurationError(
                f"domain_bits must be in [1, 40], got {domain_bits}"
            )
        self.domain_bits = int(domain_bits)
        self.domain_size = 1 << self.domain_bits
        levels = self.domain_bits + 1
        per_level = total_bytes // levels
        if per_level < num_hashes * 4:
            raise ConfigurationError(
                f"{total_bytes} bytes cannot fund {levels} level sketches"
            )
        self.num_hashes = int(num_hashes)
        self.seed = int(seed)
        self.total_bytes = int(total_bytes)
        self.ops = OpCounters()
        self._levels = [
            CountMinSketch(
                num_hashes=num_hashes,
                total_bytes=per_level,
                seed=seed * 104_729 + level,
            )
            for level in range(levels)
        ]
        self._total = 0

    @property
    def size_bytes(self) -> int:
        """Total logical bytes across all level sketches."""
        return sum(level.size_bytes for level in self._levels)

    @property
    def levels(self) -> int:
        """Number of dyadic levels (``domain_bits + 1``)."""
        return len(self._levels)

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.domain_size:
            raise ConfigurationError(
                f"key {key} outside the domain [0, {self.domain_size})"
            )

    # -- updates ----------------------------------------------------------

    def update(self, key: int, amount: int = 1) -> None:
        """Add ``amount`` to the key's counter at every dyadic level."""
        self._check_key(key)
        self.ops.items += 1
        for level, sketch in enumerate(self._levels):
            sketch.update(key >> level, amount)
        self._total += amount

    def update_batch(self, keys: np.ndarray, amount: int = 1) -> None:
        """Vectorised updates across all levels."""
        keys = int64_keys(keys)
        if keys.size == 0:
            return
        if int(keys.min()) < 0 or int(keys.max()) >= self.domain_size:
            raise ConfigurationError("keys outside the dyadic domain")
        self.ops.items += len(keys)
        for level, sketch in enumerate(self._levels):
            sketch.update_batch(keys >> np.int64(level), amount)
        self._total += int(len(keys)) * amount

    def process_stream(self, keys: np.ndarray) -> None:
        """Driver entry point (unit counts)."""
        self.update_batch(keys)

    # -- point & range queries ----------------------------------------------

    def estimate(self, key: int) -> int:
        """Point estimate (level-0 sketch; one-sided)."""
        self._check_key(key)
        return self._levels[0].estimate(key)

    def estimate_batch(self, keys) -> list[int]:
        """Vectorised point estimates (level-0 sketch)."""
        return self._levels[0].estimate_batch(keys)

    def range_count(self, low: int, high: int) -> int:
        """One-sided estimate of the total count of keys in [low, high].

        Decomposes the range into O(log U) maximal dyadic intervals and
        sums their level estimates.
        """
        self._check_key(low)
        self._check_key(high)
        if low > high:
            raise ConfigurationError(f"empty range [{low}, {high}]")
        total = 0
        lo, hi = low, high + 1  # half-open
        while lo < hi:
            # Largest dyadic block aligned at lo that fits in [lo, hi).
            level = (lo & -lo).bit_length() - 1 if lo else self.domain_bits
            while level > 0 and lo + (1 << level) > hi:
                level -= 1
            level = min(level, self.domain_bits)
            total += self._levels[level].estimate(lo >> level)
            lo += 1 << level
        return total

    # -- heavy hitters / top-k ---------------------------------------------

    def heavy_hitters(self, threshold: int) -> list[tuple[int, int]]:
        """All keys whose estimate reaches ``threshold``, via tree descent.

        Sound (no key with a true count >= threshold is missed, by the
        one-sided range estimates) and complete up to sketch error.
        Returns (key, level-0 estimate) pairs sorted descending.
        """
        if threshold < 1:
            raise ConfigurationError(
                f"threshold must be >= 1, got {threshold}"
            )
        found: list[tuple[int, int]] = []
        # Frontier of (level, prefix) nodes whose range may be heavy.
        frontier = [(self.domain_bits, 0)]
        while frontier:
            level, prefix = frontier.pop()
            estimate = self._levels[level].estimate(prefix)
            if estimate < threshold:
                continue
            if level == 0:
                found.append((prefix, estimate))
                continue
            frontier.append((level - 1, prefix << 1))
            frontier.append((level - 1, (prefix << 1) | 1))
        found.sort(key=lambda pair: pair[1], reverse=True)
        return found

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """Approximate top-k via a descending threshold search."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if self._total == 0:
            return []
        threshold = max(self._total // 2, 1)
        best: list[tuple[int, int]] = []
        while threshold >= 1:
            candidates = self.heavy_hitters(threshold)
            if len(candidates) >= k or threshold == 1:
                best = candidates
                break
            threshold //= 2
        return best[:k]

    @property
    def total(self) -> int:
        """Aggregate inserted count."""
        return self._total

    @property
    def level_sketches(self) -> tuple[CountMinSketch, ...]:
        """The per-level sketches, level 0 first (read-only tuple)."""
        return tuple(self._levels)

    # -- merging ----------------------------------------------------------

    def is_mergeable_with(self, other: "HierarchicalCountMin") -> bool:
        """Same domain and every level sketch pairwise mergeable."""
        if not isinstance(other, HierarchicalCountMin):
            return False
        if self.domain_bits != other.domain_bits:
            return False
        return all(
            mine.is_mergeable_with(theirs)
            for mine, theirs in zip(self._levels, other._levels)
        )

    def merge(self, other: "HierarchicalCountMin") -> None:
        """Level-wise cell addition — the hierarchy inherits Count-Min
        linearity, so every dyadic range estimate stays one-sided for
        the concatenated stream."""
        if not self.is_mergeable_with(other):
            raise ConfigurationError(
                "hierarchies must share domain and hash seeds to merge"
            )
        for mine, theirs in zip(self._levels, other._levels):
            mine.merge(theirs)
        self._total += other._total

    # -- synopsis protocol --------------------------------------------------

    SYNOPSIS_KIND = "hierarchical-count-min"

    def state(self) -> SynopsisState:
        """Constructor parameters (including the *base* seed, verbatim)
        plus one table array per dyadic level."""
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "domain_bits": self.domain_bits,
                "total_bytes": self.total_bytes,
                "num_hashes": self.num_hashes,
                "seed": self.seed,
            },
            arrays={
                f"level{index}.table": sketch.table.copy()
                for index, sketch in enumerate(self._levels)
            },
            extra={"total": self._total},
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "HierarchicalCountMin":
        hierarchy = cls(
            state.params["domain_bits"],
            total_bytes=state.params["total_bytes"],
            num_hashes=state.params["num_hashes"],
            seed=state.params["seed"],
        )
        for index, sketch in enumerate(hierarchy._levels):
            sketch._table[:] = state.arrays[f"level{index}.table"]
        hierarchy._total = int(state.extra["total"])
        return hierarchy
