"""Micro-benchmarks of the individual hot paths (wall clock, Python).

These are the raw ingredients of every figure: filter probe, sketch
update, exchange, query.  Absolute numbers are Python-scaled; ratios
between them are what the reproduction relies on.

Set ``REPRO_BENCH_TINY=1`` to shrink the large batched-vs-scalar
comparison streams — the CI benchmark-smoke job uses this so every PR
gets a timing JSON artifact in minutes, not hours.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.filters import make_filter
from repro.sketches.count_min import CountMinSketch
from repro.streams.zipf import zipf_stream
from repro.synopses.spec import SynopsisSpec, build_synopsis

STREAM = zipf_stream(40_000, 10_000, 1.5, seed=61)

#: All ASketch instances in this module are built from this one spec
#: (per-bench seeds and sizes override via ``with_params``).
ASKETCH_SPEC = SynopsisSpec(
    "asketch", {"total_bytes": 128 * 1024, "filter_items": 32}
)

#: Tiny mode for the CI benchmark-smoke job (see module docstring).
TINY = os.environ.get("REPRO_BENCH_TINY", "0") not in ("0", "")
#: The batched-vs-scalar comparison stream: 1M-item Zipf(1.5) by default.
SPEEDUP_ITEMS = 60_000 if TINY else 1_000_000
SPEEDUP_DOMAIN = 20_000 if TINY else 100_000


@pytest.mark.parametrize(
    "kind", ["vector", "strict-heap", "relaxed-heap", "stream-summary"]
)
def test_filter_hit_path(benchmark, kind):
    filter_ = make_filter(kind, 32)
    for key in range(32):
        filter_.insert(key, 1, 0)
    keys = [int(k) % 32 for k in STREAM.keys[:2000]]

    def hits():
        for key in keys:
            filter_.add_if_present(key, 1)

    benchmark(hits)


def test_count_min_point_update(benchmark):
    sketch = CountMinSketch(8, total_bytes=128 * 1024, seed=62)
    keys = STREAM.keys[:2000].tolist()

    def updates():
        for key in keys:
            sketch.update(key)

    benchmark(updates)


def test_count_min_batch_update(benchmark):
    sketch = CountMinSketch(8, total_bytes=128 * 1024, seed=63)
    keys = STREAM.keys[:20_000]
    benchmark(sketch.update_batch, keys)


def test_asketch_stream_ingest(benchmark):
    keys = STREAM.keys[:20_000]

    def ingest():
        asketch = build_synopsis(ASKETCH_SPEC.with_params(seed=64))
        asketch.process_stream(keys)
        return asketch

    benchmark.pedantic(ingest, rounds=3, iterations=1)


def test_asketch_batch_ingest(benchmark):
    """The vectorised chunk path over the same stream as the scalar
    ingest bench above — the ratio between the two is the batched-path
    win at this scale."""
    keys = STREAM.keys[:20_000]

    def ingest():
        asketch = build_synopsis(ASKETCH_SPEC.with_params(seed=64))
        asketch.process_batch(keys)
        return asketch

    benchmark.pedantic(ingest, rounds=3, iterations=1)


def test_asketch_batched_speedup():
    """Acceptance check: ``process_batch`` is at least 5x faster than the
    scalar ``process_stream`` on a 1M-item Zipf(1.5) stream (full size
    unless ``REPRO_BENCH_TINY`` shrinks it for the CI smoke job)."""
    stream = zipf_stream(SPEEDUP_ITEMS, SPEEDUP_DOMAIN, 1.5, seed=61)
    keys = stream.keys
    chunk_size = 100_000

    scalar = build_synopsis(ASKETCH_SPEC.with_params(seed=64))
    start = time.perf_counter()
    scalar.process_stream(keys)
    scalar_seconds = time.perf_counter() - start

    batched = build_synopsis(ASKETCH_SPEC.with_params(seed=64))
    start = time.perf_counter()
    for offset in range(0, keys.shape[0], chunk_size):
        batched.process_batch(keys[offset : offset + chunk_size])
    batched_seconds = time.perf_counter() - start

    assert batched.total_mass == scalar.total_mass == keys.shape[0]
    speedup = scalar_seconds / batched_seconds
    print(
        f"\nbatched ingest: scalar {scalar_seconds:.2f}s, "
        f"batched {batched_seconds:.3f}s, speedup {speedup:.1f}x "
        f"({keys.shape[0]} items)"
    )
    assert speedup >= 5.0


def test_asketch_batched_query_speedup():
    """Acceptance check: ``query_batch`` is at least 5x faster than a
    per-key ``query`` loop over the same keys, on a synopsis that
    ingested a Zipf(1.5) stream (full size unless ``REPRO_BENCH_TINY``
    shrinks it for the CI smoke job).  The queries are the stream's own
    keys, so most of them hit the filter.  Each side's time is its best
    of three runs."""
    stream = zipf_stream(SPEEDUP_ITEMS, SPEEDUP_DOMAIN, 1.5, seed=61)
    keys = stream.keys
    asketch = build_synopsis(ASKETCH_SPEC.with_params(seed=64))
    for offset in range(0, keys.shape[0], 100_000):
        asketch.process_batch(keys[offset : offset + 100_000])
    queries = keys[: min(keys.shape[0], 200_000)]

    def best_of_three(query):
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            answers = query()
            seconds.append(time.perf_counter() - start)
        return answers, min(seconds)

    looped, loop_seconds = best_of_three(
        lambda: [asketch.query(key) for key in queries.tolist()]
    )
    batched, batched_seconds = best_of_three(
        lambda: asketch.query_batch(queries)
    )

    assert batched.tolist() == looped
    speedup = loop_seconds / batched_seconds
    print(
        f"\nbatched query: per-key loop {loop_seconds:.3f}s, "
        f"query_batch {batched_seconds:.4f}s, speedup {speedup:.1f}x "
        f"({queries.shape[0]} keys)"
    )
    assert speedup >= 5.0


def test_asketch_query_path(benchmark):
    asketch = build_synopsis(ASKETCH_SPEC.with_params(seed=65))
    asketch.process_stream(STREAM.keys)
    queries = STREAM.keys[:5000].tolist()

    def run_queries():
        for key in queries:
            asketch.query(key)

    benchmark(run_queries)


def test_asketch_batch_query_path(benchmark):
    """Vectorised point queries (one bulk filter probe + one batched
    sketch read), matching the scalar query bench's workload."""
    asketch = build_synopsis(ASKETCH_SPEC.with_params(seed=65))
    asketch.process_batch(STREAM.keys)
    queries = STREAM.keys[:5000]
    benchmark(asketch.query_batch, queries)


def test_exchange_heavy_path(benchmark):
    """Uniform keys on a tiny filter: the exchange-dominated worst case."""
    rng = np.random.default_rng(66)
    keys = rng.integers(0, 50_000, size=10_000, dtype=np.int64)

    def ingest():
        asketch = build_synopsis(
            ASKETCH_SPEC.with_params(
                total_bytes=32 * 1024, filter_items=8, seed=67
            )
        )
        asketch.process_stream(keys)
        return asketch

    asketch = benchmark.pedantic(ingest, rounds=3, iterations=1)
    assert asketch.exchange_count > 0
