"""Shared machinery for the experiment modules.

Provides the method factory (one name per comparison point in the paper),
phase measurement (wall-clock and operation-record deltas for the update
and query phases), modeled-throughput evaluation, and a small stream
cache so sweep experiments do not regenerate identical streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.hardware.costs import CostModel, OpCounters
from repro.metrics.error import observed_error_percent
from repro.queries.workload import frequency_weighted_queries
from repro.streams.base import Stream
from repro.synopses.spec import build_synopsis
from repro.streams.ip_trace import ip_trace_stream
from repro.streams.kosarak import kosarak_stream
from repro.streams.zipf import zipf_stream

#: Display names used in result rows, keyed by method id.
METHOD_LABELS = {
    "count-min": "Count-Min",
    "fcm": "FCM",
    "holistic-udaf": "Holistic UDAFs",
    "asketch": "ASketch",
    "asketch-fcm": "ASketch-FCM",
    "space-saving-min": "Space Saving(min)",
    "space-saving-zero": "Space Saving",
}


def build_method(name: str, config: ExperimentConfig, seed: int = 0):
    """Instantiate a comparison method at the configured synopsis budget.

    A thin veneer over the spec path: the config names the parameters
    (:meth:`ExperimentConfig.spec_for`), the registry builds the object.
    """
    return build_synopsis(config.spec_for(name, seed=seed))


def total_ops(method) -> OpCounters:
    """Merged operation record of a method and its internal structures."""
    if isinstance(method, ASketch):
        return method.combined_ops()
    ops = method.ops.snapshot()
    internal_sketch = getattr(method, "sketch", None)
    if internal_sketch is not None:
        ops.merge(internal_sketch.ops)
    return ops


def sketch_bytes_of(method) -> int:
    """Byte size of the method's dominant random-access array.

    Drives the cache-residency term: for ASketch and Holistic UDAFs that
    is the inner sketch; for the others the structure itself.
    """
    internal_sketch = getattr(method, "sketch", None)
    if internal_sketch is not None:
        return internal_sketch.size_bytes
    return method.size_bytes


@dataclass(frozen=True)
class PhaseMeasurement:
    """Wall-clock and operation deltas for one processing phase."""

    ops: OpCounters
    wall_seconds: float
    n_items: int

    @property
    def wall_throughput_items_per_ms(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_items / self.wall_seconds / 1000.0


def measure_update_phase(method, keys: np.ndarray) -> PhaseMeasurement:
    """Ingest ``keys`` and capture the phase's operation delta."""
    before = total_ops(method)
    start = time.perf_counter()
    method.process_stream(keys)
    elapsed = time.perf_counter() - start
    phase = total_ops(method).diff(before)
    phase.items = len(keys)  # one driver loop iteration per tuple
    return PhaseMeasurement(ops=phase, wall_seconds=elapsed, n_items=len(keys))


def measure_query_phase(
    method, queries: np.ndarray
) -> tuple[PhaseMeasurement, np.ndarray]:
    """Answer ``queries`` and capture the phase's operation delta."""
    before = total_ops(method)
    start = time.perf_counter()
    estimates = method.estimate_batch(queries)
    elapsed = time.perf_counter() - start
    phase = total_ops(method).diff(before)
    phase.items = len(queries)
    return (
        PhaseMeasurement(
            ops=phase, wall_seconds=elapsed, n_items=len(queries)
        ),
        estimates,
    )


def modeled_throughput(
    measurement: PhaseMeasurement, method, model: CostModel | None = None
) -> float:
    """Modeled items/ms for a measured phase (see DESIGN.md sub. 1)."""
    model = model or CostModel()
    return model.throughput_items_per_ms(
        measurement.ops, sketch_bytes_of(method)
    )


def accuracy_on_queries(method, stream: Stream, queries: np.ndarray) -> float:
    """Observed error (%) of a processed method on a query set."""
    estimates = method.estimate_batch(queries)
    truths = [stream.exact.count_of(int(key)) for key in queries]
    return observed_error_percent(estimates, truths)


# -- stream cache ----------------------------------------------------------

@lru_cache(maxsize=48)
def _cached_zipf(
    stream_size: int, n_distinct: int, skew: float, seed: int
) -> Stream:
    return zipf_stream(stream_size, n_distinct, skew, seed=seed)


def sweep_stream(config: ExperimentConfig, skew: float, seed: int = 0) -> Stream:
    """Cached Zipf stream at the sweep size for a given skew."""
    return _cached_zipf(
        config.sweep_stream_size, config.sweep_distinct, float(skew),
        config.seed + seed,
    )


def full_stream(config: ExperimentConfig, skew: float, seed: int = 0) -> Stream:
    """Cached Zipf stream at the full configured size."""
    return _cached_zipf(
        config.stream_size, config.distinct, float(skew), config.seed + seed
    )


@lru_cache(maxsize=4)
def _cached_real(name: str, stream_size: int, seed: int) -> Stream:
    if name == "ip-trace":
        return ip_trace_stream(stream_size=stream_size, seed=seed)
    if name == "kosarak":
        return kosarak_stream(stream_size=stream_size, seed=seed)
    raise ConfigurationError(f"unknown real dataset {name!r}")


def real_stream(config: ExperimentConfig, name: str) -> Stream:
    """Cached real-data surrogate scaled by the config."""
    return _cached_real(name, config.stream_size, config.seed + 17)


def query_set(
    stream: Stream, config: ExperimentConfig, seed: int = 0
) -> np.ndarray:
    """The paper's frequency-weighted query workload for a stream."""
    return frequency_weighted_queries(
        stream, config.queries, seed=config.seed + 101 + seed
    )
