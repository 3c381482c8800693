"""Space Saving (Metwally, Agrawal & El Abbadi, reference [27]).

Monitors ``k`` items on a :class:`~repro.counters.stream_summary.
StreamSummary`.  A miss on a full summary evicts a minimum-count item and
adopts its count: the newcomer enters with ``min_count + amount`` and a
recorded overestimation error of ``min_count``.  Guarantees: every
monitored count overestimates by at most ``min_count <= N/k``, and all
items with frequency above ``N/k`` are monitored.

The paper evaluates Space Saving as a frequency-estimation baseline in
Figure 11 with two query conventions for unmonitored items — return the
minimum count ("never underestimate", per [27]) or return 0 (per [9]);
both are implemented via ``estimate_mode``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.counters.stream_summary import StreamSummary
from repro.hardware.costs import OpCounters
from repro.synopses.protocol import SynopsisState

#: Logical bytes per monitored item: key, count, error and the four list
#: pointers of the Stream-Summary node plus its hash-table entry.  This is
#: the "high space overhead ... up to four pointers per item" the paper
#: cites when rejecting Stream-Summary as the ASketch filter; 96 bytes
#: reproduces Table 6's 4-items-in-0.4KB reading.
BYTES_PER_ITEM = 96


class SpaceSaving:
    """The classical Space Saving top-k summary.

    Parameters
    ----------
    capacity:
        Number of monitored counters, or None to derive from total_bytes.
    total_bytes:
        Byte budget; capacity = total_bytes // BYTES_PER_ITEM.
    estimate_mode:
        ``"min"`` — unmonitored queries return the minimum count
        (never underestimates, the convention of [27]);
        ``"zero"`` — unmonitored queries return 0 (the convention of [9]).
    """

    def __init__(
        self,
        capacity: int | None = None,
        *,
        total_bytes: int | None = None,
        estimate_mode: str = "min",
    ) -> None:
        if (capacity is None) == (total_bytes is None):
            raise ConfigurationError(
                "specify exactly one of capacity or total_bytes"
            )
        if total_bytes is not None:
            capacity = total_bytes // BYTES_PER_ITEM
        assert capacity is not None
        if capacity < 1:
            raise ConfigurationError(
                f"Space Saving needs capacity >= 1, got {capacity}"
            )
        if estimate_mode not in ("min", "zero"):
            raise ConfigurationError(
                f"estimate_mode must be 'min' or 'zero', got {estimate_mode!r}"
            )
        self.capacity = int(capacity)
        self.estimate_mode = estimate_mode
        self.ops = OpCounters()
        self._summary = StreamSummary(self.capacity, ops=self.ops)

    @property
    def size_bytes(self) -> int:
        """Logical synopsis size: ``capacity * BYTES_PER_ITEM``."""
        return self.capacity * BYTES_PER_ITEM

    def update(self, key: int, amount: int = 1) -> int:
        """Process one occurrence; returns the item's monitored count."""
        self.ops.items += 1
        summary = self._summary
        if key in summary:
            return summary.increment(key, amount)
        if not summary.is_full:
            summary.insert(key, amount, payload=0)
            return amount
        evicted_key, min_count, _ = summary.evict_min()
        del evicted_key
        summary.insert(key, min_count + amount, payload=min_count)
        return min_count + amount

    def update_batch(self, keys: np.ndarray, amount: int = 1) -> None:
        """Sequentially process a key array (order matters for evictions)."""
        for key in keys.tolist():
            self.update(int(key), amount)

    def process_stream(self, keys: np.ndarray) -> None:
        """Ingest a unit-count key array (driver entry point)."""
        self.update_batch(keys)

    def estimate(self, key: int) -> int:
        """Frequency estimate under the configured unmonitored convention."""
        count = self._summary.count_of(key)
        if count is not None:
            return count
        if self.estimate_mode == "min":
            return self._summary.min_count
        return 0

    def estimate_batch(self, keys) -> np.ndarray:
        """Point-query every key under the configured convention, as an
        int64 array."""
        return np.fromiter(
            (self.estimate(int(key)) for key in keys), dtype=np.int64
        )

    def guaranteed_count(self, key: int) -> int | None:
        """Lower bound ``count - error`` for a monitored key, else None."""
        count = self._summary.count_of(key)
        if count is None:
            return None
        error = self._summary.payload_of(key)
        assert isinstance(error, int)
        return count - error

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """The k highest (key, monitored count) pairs, descending."""
        return self._summary.top_k(k)

    def __len__(self) -> int:
        return len(self._summary)

    def __contains__(self, key: int) -> bool:
        return key in self._summary

    # -- merging -----------------------------------------------------------

    def merge(self, other: "SpaceSaving") -> None:
        """Fold another summary in, keeping both one-sided guarantees.

        The standard mergeable-summaries construction: each side's
        estimate for a key it does *not* monitor is its unmonitored
        bound ``m`` (the minimum count when full, 0 otherwise — no key
        evicted from a full summary can exceed the minimum).  Every key
        in the union of monitored sets gets the sum of the two sides'
        estimates as its count (and of their error bounds as its
        error); the ``capacity`` largest survive.

        Merely replaying ``other``'s monitored items would lose the
        mass ``other`` itself evicted: a key monitored here but evicted
        there would sit below the merged minimum, breaking the
        never-underestimate convention.  Charging each side's bound to
        the keys it is missing keeps every monitored count an
        overestimate of the key's frequency in the concatenated stream,
        keeps the merged minimum above any fully-unmonitored key's
        total, and keeps ``guaranteed_count`` (count - error) a valid
        lower bound — the properties the merge property suite pins.
        """
        if not isinstance(other, SpaceSaving):
            raise ConfigurationError(
                f"cannot merge SpaceSaving with {type(other).__name__}"
            )
        mine = {key: (count, error)
                for key, count, error in self._summary.items()}
        theirs = {key: (count, error)
                  for key, count, error in other._summary.items()}
        bound_mine = self._summary.min_count if self._summary.is_full else 0
        bound_theirs = (
            other._summary.min_count if other._summary.is_full else 0
        )
        combined = []
        for key in mine.keys() | theirs.keys():
            count_a, error_a = mine.get(key, (bound_mine, bound_mine))
            count_b, error_b = theirs.get(key, (bound_theirs, bound_theirs))
            combined.append((key, count_a + count_b, error_a + error_b))
        combined.sort(key=lambda entry: (-entry[1], entry[0]))
        self._summary = StreamSummary(self.capacity, ops=self.ops)
        for key, count, error in reversed(combined[: self.capacity]):
            self._summary.insert(int(key), int(count), payload=int(error))

    # -- synopsis protocol ---------------------------------------------------

    SYNOPSIS_KIND = "space-saving"

    def state(self) -> SynopsisState:
        """Monitored (key, count, error) triples in summary order."""
        items = list(self._summary.items())
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={
                "capacity": self.capacity,
                "estimate_mode": self.estimate_mode,
            },
            arrays={
                "keys": np.array([k for k, _, _ in items], dtype=np.int64),
                "counts": np.array([c for _, c, _ in items], dtype=np.int64),
                "errors": np.array([e for _, _, e in items], dtype=np.int64),
            },
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "SpaceSaving":
        summary = cls(**state.params)
        # items() walks buckets head-to-tail and inserts attach at a
        # bucket's head, so reversed replay restores the exact node order
        # (and with it future eviction tie-breaks).
        for key, count, error in zip(
            reversed(state.arrays["keys"].tolist()),
            reversed(state.arrays["counts"].tolist()),
            reversed(state.arrays["errors"].tolist()),
        ):
            summary._summary.insert(
                int(key), int(count), payload=int(error)
            )
        return summary
