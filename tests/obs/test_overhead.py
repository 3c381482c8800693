"""Acceptance: observability must be near-free and semantically inert.

The ISSUE contract: with a registry installed, a scalar ingest of 100K
items is at most 3% slower than with no registry, and the resulting
estimates are bit-identical.  The instrumentation meets this by
recording counter *deltas* once per ingest call (never per item), so
the hot per-item path is untouched.
"""

from __future__ import annotations

import statistics
import time

from repro.core.asketch import ASketch
from repro.obs import install_registry, uninstall_registry
from repro.streams.zipf import zipf_stream

ITEMS = 100_000
CHUNK = 5_000
PASSES = 6


def _build() -> ASketch:
    return ASketch(total_bytes=32 * 1024, filter_items=32, seed=9)


def _timed_ingest(asketch: ASketch, keys, observed: bool) -> float:
    if observed:
        install_registry()
    try:
        start = time.perf_counter()
        asketch.process_stream(keys)
        return time.perf_counter() - start
    finally:
        if observed:
            uninstall_registry()


def _measure_ratio(keys) -> tuple[float, ASketch, ASketch]:
    """Median observed/bare ratio over finely interleaved chunk pairs.

    A shared 2-CPU host runs the same code up to twice as fast in some
    seconds as in others, so two whole-stream ingests timed a quarter
    second apart can differ by more than the budget.  Each pass instead
    feeds the stream to a bare and an observed synopsis in ``CHUNK``-item
    calls, alternating which side goes first; the two calls of a pair
    sit ~20 ms apart and see the same host speed.  The median over every
    pair of every pass is the ratio: a per-item cost on the observed
    path shifts every pair, so it shifts the median.  Each observed call
    also records its deltas, ``ITEMS / CHUNK`` times per pass instead of
    once.
    """
    ratios = []
    for _ in range(PASSES):
        bare, observed = _build(), _build()
        for index, start in enumerate(range(0, keys.shape[0], CHUNK)):
            chunk = keys[start : start + CHUNK]
            if index % 2:
                observed_s = _timed_ingest(observed, chunk, observed=True)
                bare_s = _timed_ingest(bare, chunk, observed=False)
            else:
                bare_s = _timed_ingest(bare, chunk, observed=False)
                observed_s = _timed_ingest(observed, chunk, observed=True)
            ratios.append(observed_s / bare_s)
    return statistics.median(ratios), bare, observed


class TestOverheadBudget:
    def test_scalar_ingest_within_three_percent_and_bit_identical(self):
        keys = zipf_stream(ITEMS, 25_000, 1.5, seed=31).keys
        ratio, bare, observed = _measure_ratio(keys)
        assert observed.state().equals(bare.state())
        assert observed.query_batch(keys[:100]) == bare.query_batch(
            keys[:100]
        )
        assert ratio <= 1.03, f"observed/bare ingest ratio {ratio:.3f} > 1.03"
