"""Per-layer metrics derived from the traced run's spans and counters.

Every time below is *self* time (a span's duration minus its children's)
summed over one pass and reported as the median over traced passes,
unless its name says ``_p50`` (median per call) or it is a
``reliability.checkpoint_save_ms_*`` figure: those are whole-call
durations, so a save includes the ``state()`` it makes.  Layers a
workload does not exercise report 0.  Names and units are the ones
BENCHMARK.json declares.

The parallel fleet's workers are separate processes that the wrappers
do not reach.  On ``parallel-2w`` the staged, filter, sketch and kernel
figures therefore come from the in-process ``ShardedASketch`` reference
run over the same chunks, which makes exactly the calls the workers make
(the fleet's result is bit-identical to it); the routing, ring, merge and
dispatch figures come from the fleet's own passes in this process.
"""

from __future__ import annotations

import json
import math
import pickle
import statistics
from pathlib import Path
from typing import Any

import numpy as np

from repro.hardware.costs import CostModel

from perfbench.tracing import DRIVER_SPANS, KERNEL_OPS, SpanRecorder

#: The benchmark's contract: every metric name and unit is declared there.
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of every ``kind`` metric (``"end_to_end"`` or
    ``"per_layer"``) that BENCHMARK.json declares, in its order."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def with_units(
    values: dict[str, float], kind: str, absent: float | None = None
) -> dict[str, tuple[float, str]]:
    """Attach the declared unit to every declared ``kind`` metric.

    A computed name that is not declared is an error.  A declared name
    that was not computed is an error too, unless ``absent`` gives the
    value it reports (0 for the layers a workload does not reach).
    """
    units = declared(kind)
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"undeclared {kind} metrics: {sorted(unknown)}")
    missing = set(units) - set(values)
    if missing and absent is None:
        raise KeyError(f"{kind} metrics not computed: {sorted(missing)}")
    return {name: (float(values.get(name, absent)), unit)
            for name, unit in units.items()}


#: Spans whose self time is the filter core's work in the §4 model
#: (the per-item loop and every filter operation) ...
FILTER_STAGE = ("staged.process_batch", "filters.add_many_if_present",
                "filters.insert", "filters.replace_min",
                "kernels.membership_probe")
#: ... and the sketch core's (hashing, cell traffic, exchange checks).
SKETCH_STAGE = ("sketches.update_batch_weighted", "sketches.estimate_batch",
                "sketches.update", "sketches.estimate",
                "kernels.cm_update_weighted", "kernels.cm_estimate",
                "kernels.exchange_candidates")


class PassSpans:
    """Per-pass aggregates of one recorder."""

    def __init__(self, recorder: SpanRecorder, wall_s: float) -> None:
        self.recorder = recorder
        self.wall_s = wall_s
        self.durations = recorder.durations()
        self.self_s = recorder.self_times()
        self.names = np.asarray(recorder.names, dtype=object)
        self.totals: dict[str, float] = {}
        for name, own in zip(recorder.names, self.self_s.tolist()):
            self.totals[name] = self.totals.get(name, 0.0) + own

    def self_ms(self, name: str) -> float:
        return 1e3 * self.totals.get(name, 0.0)

    def calls(self, name: str) -> int:
        return len(self.recorder.indices(name))

    def note_sum(self, name: str, key: str) -> int:
        notes = self.recorder.notes
        return sum(notes[i].get(key, 0) for i in self.recorder.indices(name))

    def dispatch_self_s(self) -> list[float]:
        """Per chunk: driver self time inside that chunk's interval."""
        parents = self.recorder.parents
        names = self.recorder.names
        chunk_of = [-1] * len(names)
        per_chunk: dict[int, float] = {}
        for i, name in enumerate(names):
            if name == "chunk":
                chunk_of[i] = i
            elif parents[i] >= 0:
                chunk_of[i] = chunk_of[parents[i]]
            if name in DRIVER_SPANS and chunk_of[i] >= 0:
                per_chunk[chunk_of[i]] = (
                    per_chunk.get(chunk_of[i], 0.0) + self.self_s[i]
                )
        return list(per_chunk.values())

    def residual_s(self) -> float:
        parents = np.asarray(self.recorder.parents)
        return self.wall_s - float(self.self_s[parents >= 0].sum())

    def stage_share(self) -> float:
        filter_s = sum(self.totals.get(name, 0.0) for name in FILTER_STAGE)
        sketch_s = sum(self.totals.get(name, 0.0) for name in SKETCH_STAGE)
        total = filter_s + sketch_s
        return filter_s / total if total > 0 else 0.0

    def outermost_durations(self, name: str) -> list[float]:
        parents = self.recorder.parents
        names = self.recorder.names
        return [
            float(self.durations[i])
            for i in self.recorder.indices(name)
            if parents[i] < 0 or names[parents[i]] != name
        ]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _tenths(durations: list[float]) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    k = max(1, math.ceil(len(durations) / 10))
    return _median(durations[:k]), _median(durations[-k:])


def _staged_parts(synopsis: Any) -> list:
    """The StagedSynopsis objects behind an ASketch or a shard group."""
    return list(getattr(synopsis, "shards", None) or [synopsis])


def predicted_filter_share(synopsis: Any) -> float:
    """Filter-core share of modeled cycles (paper §4 / Table 2)."""
    model = CostModel()
    filter_cycles = sketch_cycles = 0.0
    for part in _staged_parts(synopsis):
        stage0, stage1 = part.stage_ops()
        filter_cycles += model.cycles(stage0, part.filter.size_bytes)
        sketch_cycles += model.cycles(stage1, part.sketch.size_bytes)
    total = filter_cycles + sketch_cycles
    return filter_cycles / total if total > 0 else 0.0


def _core_counts(synopsis: Any) -> tuple[int, int, int]:
    items = misses = exchanges = 0
    for part in _staged_parts(synopsis):
        items += part.ops.items
        misses += part.miss_events
        exchanges += part.ops.exchanges
    return items, misses, exchanges


def core_metrics(spans: list[PassSpans], synopsis: Any) -> dict[str, float]:
    """Staged, filter, sketch and kernel metrics plus the stage shares.

    ``synopsis`` is the (unqueried) result of the last traced ingest, so
    its operation record covers exactly one pass.
    """
    items, misses, exchanges = _core_counts(synopsis)
    candidates = _median(
        s.note_sum("kernels.exchange_candidates", "candidates") for s in spans
    )
    out = {
        "staged.process_batch_self_ms_p50": 1e3 * _median(
            own for s in spans
            for own in s.self_s[s.names == "staged.process_batch"].tolist()
        ),
        "staged.filter_hit_ratio": 1.0 - misses / items if items else 0.0,
        "staged.exchanges": float(exchanges),
        "staged.exchange_yield": exchanges / candidates if candidates else 0.0,
        "filters.add_many_if_present_ms": _median(
            s.self_ms("filters.add_many_if_present") for s in spans),
        "filters.insert_calls": _median(
            s.calls("filters.insert") + s.calls("filters.replace_min")
            for s in spans),
        "sketches.update_batch_weighted_ms": _median(
            s.self_ms("sketches.update_batch_weighted") for s in spans),
        "sketches.keys_updated": _median(
            s.note_sum("sketches.update_batch_weighted", "elements")
            + s.calls("sketches.update") for s in spans),
        "sketches.estimate_batch_ms": _median(
            s.self_ms("sketches.estimate_batch") for s in spans),
        "stage.filter_share_predicted": predicted_filter_share(synopsis),
        "stage.filter_share_measured": _median(s.stage_share() for s in spans),
    }
    for op in KERNEL_OPS:
        name = f"kernels.{op}"
        out[f"{name}_ms"] = _median(s.self_ms(name) for s in spans)
        out[f"{name}_elements"] = _median(
            s.note_sum(name, "elements") for s in spans)
        out[f"{name}_bytes"] = _median(s.note_sum(name, "bytes") for s in spans)
    return out


def driver_metrics(spans: list[PassSpans]) -> dict[str, float]:
    """Dispatch, checkpoint, routing and ring metrics of the passes."""
    saves = [
        [float(s.durations[i]) for i in s.recorder.indices(
            "reliability.checkpoint_save")]
        for s in spans
    ]
    tenths = [_tenths(durations) for durations in saves if durations]
    wall = [s.wall_s for s in spans]
    put_ms = [s.self_ms("parallel.ring_put") for s in spans]
    return {
        "engine.dispatch_self_ms_p50": 1e3 * _median(
            own for s in spans for own in s.dispatch_self_s()),
        "reliability.checkpoint_save_ms_p50": 1e3 * _median(
            d for durations in saves for d in durations),
        "reliability.checkpoint_save_ms_first_tenth": 1e3 * _median(
            first for first, _ in tenths),
        "reliability.checkpoint_save_ms_last_tenth": 1e3 * _median(
            last for _, last in tenths),
        "reliability.checkpoints": _median(len(d) for d in saves),
        "reliability.snapshot_bytes": _median(
            s.recorder.notes[i]["bytes"] for s in spans
            for i in s.recorder.indices("reliability.checkpoint_save")),
        "sharding.owners_of_ms": _median(
            s.self_ms("sharding.owners_of") for s in spans),
        "sharding.merge_ms": _median(s.self_ms("sharding.merge") for s in spans),
        "sharding.from_state_ms": _median(
            s.self_ms("sharding.from_state") for s in spans),
        "parallel.ring_put_ms": _median(put_ms),
        "parallel.ring_put_wait_share": _median(
            p / (1e3 * w) for p, w in zip(put_ms, wall)),
        "parallel.bytes_to_workers": _median(
            s.note_sum("parallel.ring_put", "bytes") for s in spans),
        "trace.residual_ms": 1e3 * _median(s.residual_s() for s in spans),
        "trace.residual_share": _median(s.residual_s() / s.wall_s for s in spans),
        "trace.spans_per_pass": _median(len(s.recorder) for s in spans),
    }


def state_metrics(recorder: SpanRecorder, synopsis: Any,
                  checkpoint_spans: list[PassSpans]) -> dict[str, float]:
    """Whole-synopsis ``state()`` calls: the explicit ones timed after
    the passes plus those made by checkpoints during them."""
    calls = PassSpans(recorder, 0.0).outermost_durations("synopses.state")
    for s in checkpoint_spans:
        calls.extend(s.outermost_durations("synopses.state"))
    return {
        "synopses.state_ms_p50": 1e3 * _median(calls),
        "synopses.state_bytes": float(len(pickle.dumps(synopsis.state()))),
    }


def query_metrics(recorder: SpanRecorder, batches: int) -> dict[str, float]:
    spans = PassSpans(recorder, 0.0)
    return {"filters.lookup_many_ms": spans.self_ms("filters.lookup_many")
            / max(1, batches)}


def assemble(parts: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Every declared per-layer metric with its unit; absent layers are 0."""
    merged: dict[str, float] = {}
    for part in parts:
        merged.update(part)
    return with_units(merged, "per_layer", absent=0.0)


def overhead_share(untraced_walls: list[float], traced_walls: list[float]) -> float:
    """Mean traced pass wall time over mean untraced, minus one."""
    mean = statistics.fmean
    return mean(traced_walls) / mean(untraced_walls) - 1.0

