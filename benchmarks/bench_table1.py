"""Table 1 bench: the headline four-method comparison at Zipf 1.5.

Times the end-to-end regeneration and the per-method update hot paths;
writes the reproduced rows to ``results/table1.txt`` without the wall
throughput columns, which depend on the host (``repro-asketch run
table1`` prints them).
"""

from __future__ import annotations

import dataclasses

import pytest

from benchmarks.conftest import POINT_CONFIG
from repro.experiments import run_experiment
from repro.experiments.common import build_method, full_stream


def test_table1_rows(benchmark, persist):
    result = benchmark.pedantic(
        run_experiment, args=("table1", POINT_CONFIG), rounds=1, iterations=1
    )
    persist(
        dataclasses.replace(
            result,
            columns=[c for c in result.columns if not c.endswith("(wall)")],
        )
    )
    rows = {row["method"]: row for row in result.rows}
    # The paper's ordering must hold at bench scale.
    assert (
        rows["ASketch"]["updates/ms (modeled)"]
        > rows["Holistic UDAFs"]["updates/ms (modeled)"]
        > rows["Count-Min"]["updates/ms (modeled)"]
    )
    assert rows["ASketch"]["observed error (%)"] == min(
        row["observed error (%)"] for row in result.rows
    )


@pytest.mark.parametrize(
    "method", ["count-min", "fcm", "holistic-udaf", "asketch"]
)
def test_update_hot_path(benchmark, method):
    """Wall-clock Python update throughput per method (shape-only)."""
    stream = full_stream(POINT_CONFIG, 1.5)
    keys = stream.keys[:20_000]

    def ingest():
        synopsis = build_method(method, POINT_CONFIG)
        synopsis.process_stream(keys)
        return synopsis

    benchmark.pedantic(ingest, rounds=3, iterations=1)
