"""Ablation: the at-most-one-exchange rule (paper §5).

The paper argues cascading exchanges "are unnecessary and they introduce
additional errors".  This bench compares the default single-exchange
policy against a cascading variant (up to 8 exchanges per insertion) on
accuracy and exchange volume.
"""

from __future__ import annotations

import pytest

from repro.core.asketch import ASketch
from repro.metrics.error import observed_error_percent
from repro.queries.workload import frequency_weighted_queries
from repro.streams.zipf import zipf_stream

STREAM = zipf_stream(60_000, 15_000, 1.2, seed=31)
QUERIES = frequency_weighted_queries(STREAM, 8_000, seed=32)
TRUTHS = [STREAM.exact.count_of(int(k)) for k in QUERIES]


def run_policy(max_exchanges: int) -> ASketch:
    asketch = ASketch(
        total_bytes=64 * 1024,
        filter_items=32,
        max_exchanges_per_update=max_exchanges,
        seed=33,
    )
    asketch.process_stream(STREAM.keys)
    return asketch


@pytest.mark.parametrize("max_exchanges", [1, 8])
def test_exchange_budget(benchmark, max_exchanges):
    asketch = benchmark.pedantic(
        run_policy, args=(max_exchanges,), rounds=1, iterations=1
    )
    error = observed_error_percent(asketch.query_batch(QUERIES), TRUTHS)
    if max_exchanges == 1:
        test_exchange_budget.single = (asketch.exchange_count, error)
    else:
        single_exchanges, single_error = test_exchange_budget.single
        # Cascading does at least as many exchanges...
        assert asketch.exchange_count >= single_exchanges
        # ...and does not improve accuracy (the paper: it adds error).
        assert error >= single_error * 0.9
