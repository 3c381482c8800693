"""Extension bench: two ways to answer top-k at equal space.

The paper's related work positions ASketch's filter-based top-k against
counter-based summaries (Space Saving).  This bench runs both at the
same byte budget on a Zipf 1.5 stream and compares update cost, top-k
precision, and heavy-hitter point accuracy.
"""

from __future__ import annotations

import pytest

from repro.metrics.precision import precision_at_k
from repro.streams.zipf import zipf_stream
from repro.synopses.spec import SynopsisSpec, build_synopsis

STREAM = zipf_stream(60_000, 16_384, 1.5, seed=101)
BUDGET = 128 * 1024
K = 20

ASKETCH_SPEC = SynopsisSpec(
    "asketch", {"total_bytes": BUDGET, "filter_items": 32, "seed": 1}
)
SPACE_SAVING_SPEC = SynopsisSpec("space-saving", {"total_bytes": BUDGET})


def build_asketch():
    asketch = build_synopsis(ASKETCH_SPEC)
    asketch.process_stream(STREAM.keys)
    return asketch


def build_space_saving():
    summary = build_synopsis(SPACE_SAVING_SPEC)
    summary.process_stream(STREAM.keys)
    return summary


@pytest.mark.parametrize(
    "builder", [build_asketch, build_space_saving],
    ids=["asketch", "space-saving"],
)
def test_topk_approach(benchmark, builder):
    synopsis = benchmark.pedantic(builder, rounds=1, iterations=1)
    truth = STREAM.true_top_k(K)
    precision = precision_at_k(synopsis.top_k(K), truth, k=K)
    # Every approach must find the clear heavy hitters on this skew.
    assert precision >= 0.8
    # Point accuracy on the heavies: one-sided for both here.
    for key, count in truth[:5]:
        assert synopsis.estimate(key) >= count

