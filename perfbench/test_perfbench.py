"""The benchmark's own tests, at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import workloads  # noqa: E402
from perfbench.hostspeed import REFERENCE_S  # noqa: E402
from perfbench.layers import declared  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, ChunkFeed, run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_emits_every_metric(name, trace, tmp_path):
    result = run(WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace,
                 out_dir=tmp_path)
    assert result.gate.correct, result.gate.violations
    assert result.gate.failed == 0
    assert result.gate.attempted > 0
    expected = declared("per_layer" if trace else "end_to_end")
    emitted = {metric: unit for metric, (_, unit) in result.metrics.items()}
    assert emitted == expected
    assert all(np.isfinite(value) for value, _ in result.metrics.values())
    if not trace:
        timings = set(expected) - {"mean_over_error", "hh_over_error"}
        assert all(result.metrics[name][0] > 0 for name in timings)


class _UnderCounting:
    """An ASketch whose answers are one below the truth."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query_batch(self, keys):
        return [max(0, answer - 1) for answer in self._inner.query_batch(keys)]


def test_gate_catches_an_under_counting_synopsis(monkeypatch, tmp_path):
    build = workloads.build_asketch
    monkeypatch.setattr(workloads, "build_asketch",
                        lambda: _UnderCounting(build()))
    result = run(WORKLOADS["skewed-ingest"].tiny(), seed=3, seconds=0,
                 trace=False, out_dir=tmp_path)
    assert not result.gate.correct
    assert result.gate.failed > 0
    assert any("below the exact count" in v for v in result.gate.violations)


def test_a_raising_traced_pass_fails_the_run_and_still_reports(
    monkeypatch, tmp_path
):
    run_pass = workloads.run_pass

    def raise_when_traced(workload, inputs, scratch, recorder=None,
                          probe=None):
        if recorder is not None:
            raise RuntimeError("injected")
        return run_pass(workload, inputs, scratch, recorder, probe)

    monkeypatch.setattr(workloads, "run_pass", raise_when_traced)
    workload = WORKLOADS["skewed-ingest"].tiny()
    result = run(workload, seed=3, seconds=0, trace=True, out_dir=tmp_path)
    assert not result.gate.correct
    assert result.gate.attempted == 2 * workload.pass_chunks
    assert result.gate.failed == workload.pass_chunks
    assert set(result.metrics) == set(declared("per_layer"))
    assert all(value == 0 for value, _ in result.metrics.values())


def test_self_time_subtracts_direct_children():
    recorder = SpanRecorder()
    outer = recorder.open("outer", start=0.0)
    inner = recorder.open("inner", start=1.0)
    recorder.close(inner)
    recorder.close(outer)
    recorder.ends[inner], recorder.ends[outer] = 3.0, 10.0
    assert recorder.self_times().tolist() == [8.0, 2.0]
    assert recorder.parents == [-1, outer]


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skewed-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


class _HalfSpeedProbe:
    """A probe that always reads half the reference speed."""

    def __call__(self) -> float:
        return 2 * REFERENCE_S


def test_feed_scales_wall_and_latencies_by_the_probes():
    feed = ChunkFeed([np.zeros(1, dtype=np.int64)] * 5,
                     probe=_HalfSpeedProbe())
    start = time.perf_counter()
    for _ in feed:
        time.sleep(0.001)
    end = time.perf_counter()
    wall, latencies = feed.scaled(start, end)
    assert len(feed.probes) >= 2
    assert wall == pytest.approx((end - start - feed.probe_s()) / 2)
    assert latencies == pytest.approx([lat / 2 for lat in feed.latencies])
