"""Extension bench: distributed deployments (merge, kernel group).

Wall-clocks synopsis merging (the combined-synopsis SPMD variant) and
the query-merged kernel group (§6.3 semantics).
"""

from __future__ import annotations

from repro.core.asketch import ASketch
from repro.core.kernel_group import KernelGroup
from repro.streams.zipf import zipf_stream

STREAMS = [
    zipf_stream(20_000, 5_000, 1.5, seed=111 + index) for index in range(4)
]

def test_asketch_merge(benchmark):
    def build_and_merge():
        parts = []
        for index, stream in enumerate(STREAMS):
            asketch = ASketch(total_bytes=64 * 1024, filter_items=32, seed=9)
            asketch.process_stream(stream.keys)
            parts.append(asketch)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        return merged

    merged = benchmark.pedantic(build_and_merge, rounds=1, iterations=1)
    assert merged.total_mass == sum(len(s) for s in STREAMS)

def test_kernel_group_query(benchmark):
    group = KernelGroup(4, total_bytes=64 * 1024, seed=10)
    for index, stream in enumerate(STREAMS):
        group.process_stream_on(index, stream.keys)
    probe = STREAMS[0].keys[:500]

    benchmark(group.query_batch, probe)
