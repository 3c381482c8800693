"""Misclassification of low-frequency items as heavy hitters.

The paper's Table 3 counts, for small Count-Min synopses, "low-frequency
items misleadingly appearing as very high-frequency items", and Figure 6
reports the average relative error those items carry (order 1e5 for a
16KB sketch).  Operationally:

* the *heavy threshold* is the true count of the k-th most frequent item
  (k defaults to 32, the filter size used throughout §7);
* an item is **misclassified** when its estimated count reaches the heavy
  threshold although its true count is at most ``tail_fraction`` of it —
  i.e. a genuinely light item that a top-k-by-estimate scan would report
  as heavy.

Scanning estimates for every distinct item requires a synopsis-wide
sweep, which the vectorised ``estimate_batch`` paths keep fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters.exact import ExactCounter
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Misclassification:
    """One light item reported at heavy-hitter level."""

    key: int
    true_count: int
    estimated_count: int

    @property
    def relative_error(self) -> float:
        return abs(self.estimated_count - self.true_count) / self.true_count


def find_misclassified(
    estimator,
    exact: ExactCounter,
    heavy_k: int = 32,
    tail_fraction: float = 0.01,
) -> list[Misclassification]:
    """All light items whose estimate reaches the top-``heavy_k`` level.

    Parameters
    ----------
    estimator:
        Any object whose ``estimate_batch`` returns an int64 array
        (sketch or ASketch).
    exact:
        Ground truth for the same stream.
    heavy_k:
        Rank defining "high-frequency": the threshold is the true count
        of the ``heavy_k``-th item.
    tail_fraction:
        An item counts as low-frequency when its true count is at most
        ``tail_fraction * threshold``.
    """
    if heavy_k < 1:
        raise ConfigurationError(f"heavy_k must be >= 1, got {heavy_k}")
    if not 0 < tail_fraction < 1:
        raise ConfigurationError(
            f"tail_fraction must be in (0, 1), got {tail_fraction}"
        )
    top = exact.top_k(heavy_k)
    if len(top) < heavy_k:
        raise ConfigurationError(
            f"stream has only {len(top)} distinct items, need >= {heavy_k}"
        )
    threshold = top[-1][1]
    tail_cutoff = tail_fraction * threshold

    pairs = exact.items()
    keys = np.fromiter((key for key, _ in pairs), dtype=np.int64)
    true_counts = np.fromiter((count for _, count in pairs), dtype=np.int64)
    light = true_counts <= tail_cutoff
    if not light.any():
        return []
    light_keys = keys[light]
    light_true = true_counts[light]
    estimates = estimator.estimate_batch(light_keys)
    hit = estimates >= threshold
    return [
        Misclassification(int(key), int(true), int(estimate))
        for key, true, estimate in zip(
            light_keys[hit], light_true[hit], estimates[hit]
        )
    ]
