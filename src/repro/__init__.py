"""repro — a reproduction of "Augmented Sketch: Faster and More Accurate
Stream Processing" (Roy, Khan & Alonso, SIGMOD 2016).

The package implements the paper's contribution — :class:`ASketch`, a
filter-augmented sketch for frequency estimation over data streams — and
every substrate its evaluation depends on: Count-Min, Count Sketch,
Frequency-Aware Counting, Holistic UDAFs, Space Saving, Misra-Gries, four
filter implementations, a lane-accurate SSE2 emulation, a calibrated
hardware cost model with pipeline/SPMD parallelism models, stream and
query workload generators, and the paper's accuracy metrics.

Quickstart::

    from repro import ASketch, zipf_stream

    stream = zipf_stream(stream_size=100_000, n_distinct=25_000, skew=1.5)
    sketch = ASketch(total_bytes=128 * 1024, filter_items=32)
    sketch.process_stream(stream.keys)

    key, true_count = stream.true_top_k(1)[0]
    print(sketch.query(key), "vs true", true_count)
    print(sketch.top_k(10))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core.asketch import ASketch
from repro.core.kernel_group import KernelGroup
from repro.core.staged import StagedSynopsis
from repro.core.filters import (
    RelaxedHeapFilter,
    StreamSummaryFilter,
    StrictHeapFilter,
    VectorFilter,
    make_filter,
)
from repro.counters import (
    ExactCounter,
    MisraGries,
    SpaceSaving,
    StreamSummary,
)
from repro.hardware import (
    CostModel,
    OpCounters,
    PipelineSimulator,
    SpmdModel,
)
from repro.kernels import active_backend
from repro.runtime import (
    CheckpointStore,
    ChunkRing,
    FaultPlan,
    ParallelIngestRuntime,
    ResilientEngine,
    ShardedASketch,
    ShardSupervisor,
    StreamEngine,
)
from repro.obs import (
    MetricsRegistry,
    current_registry,
    install_registry,
    install_tracer,
    snapshot_metrics,
    trace_span,
    uninstall_registry,
    uninstall_tracer,
    validate_metrics_json,
    write_metrics_json,
)
from repro.persistence import load_synopsis, save_synopsis
from repro.synopses import (
    Synopsis,
    SynopsisSpec,
    SynopsisState,
    build_synopsis,
    registered_kinds,
)
from repro.sketches import (
    CountMinSketch,
    CountSketch,
    FrequencyAwareCountMin,
    HolisticUDAF,
)
from repro.streams import (
    Stream,
    ip_trace_stream,
    kosarak_stream,
    uniform_stream,
    zipf_stream,
)

__version__ = "1.0.0"

__all__ = [
    "ASketch",
    "CheckpointStore",
    "ChunkRing",
    "CostModel",
    "CountMinSketch",
    "CountSketch",
    "ExactCounter",
    "FaultPlan",
    "FrequencyAwareCountMin",
    "HolisticUDAF",
    "KernelGroup",
    "MetricsRegistry",
    "MisraGries",
    "OpCounters",
    "ParallelIngestRuntime",
    "PipelineSimulator",
    "RelaxedHeapFilter",
    "ResilientEngine",
    "ShardSupervisor",
    "ShardedASketch",
    "SpaceSaving",
    "SpmdModel",
    "StagedSynopsis",
    "Stream",
    "StreamEngine",
    "StreamSummary",
    "StreamSummaryFilter",
    "StrictHeapFilter",
    "Synopsis",
    "SynopsisSpec",
    "SynopsisState",
    "VectorFilter",
    "__version__",
    "active_backend",
    "build_synopsis",
    "current_registry",
    "install_registry",
    "install_tracer",
    "ip_trace_stream",
    "kosarak_stream",
    "load_synopsis",
    "make_filter",
    "registered_kinds",
    "save_synopsis",
    "snapshot_metrics",
    "trace_span",
    "uniform_stream",
    "uninstall_registry",
    "uninstall_tracer",
    "validate_metrics_json",
    "write_metrics_json",
    "zipf_stream",
]
