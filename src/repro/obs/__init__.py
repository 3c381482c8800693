"""repro.obs — the end-to-end observability layer.

The paper's central claims are runtime behaviors: the filter absorbs
most of a skewed stream (Fig. 6-9), exchanges decay as the filter
converges (Alg. 1), and throughput is dominated by the filter fast
path.  This package makes those quantities — and the health of the
ingestion runtime around them — observable *live* instead of post-hoc:

* :mod:`repro.obs.registry` — a dependency-free metrics registry
  (counters, gauges, fixed-bucket histograms; thread-safe).  Install
  one with :func:`install_registry` and the instrumented paths
  (ASketch ingest, the stream engine, sharding, checkpointing,
  quarantine, the worker fleet) start recording; with none
  installed they cost one ``None`` check per chunk/stream call, and
  estimates are bit-identical either way.
* :mod:`repro.obs.exposition` — JSON snapshots
  (:func:`snapshot_metrics` / :func:`write_metrics_json`, schema
  checked by :func:`validate_metrics_json`).
* :mod:`repro.obs.trace` — span-style structured events
  (enter/exit for ingest, checkpoint, recovery; points for exchanges)
  through a pluggable sink (:func:`install_tracer`), with a JSONL
  writer included (:class:`JsonlTraceWriter`).

Quickstart::

    from repro import ASketch, zipf_stream
    from repro.obs import install_registry, snapshot_metrics

    registry = install_registry()
    sketch = ASketch(total_bytes=128 * 1024)
    sketch.process_batch(zipf_stream(100_000, 25_000, 1.5).keys)
    print(snapshot_metrics(registry)["counters"])

See DESIGN.md §10 for the metric-to-paper-quantity mapping.
"""

from repro.obs.exposition import (
    METRICS_SCHEMA,
    snapshot_metrics,
    validate_metrics_json,
    write_metrics_json,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    install_registry,
    uninstall_registry,
)
from repro.obs.trace import (
    JsonlTraceWriter,
    RecordingTraceSink,
    TraceEvent,
    TraceSink,
    current_tracer,
    install_tracer,
    trace_point,
    trace_span,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlTraceWriter",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "RecordingTraceSink",
    "TraceEvent",
    "TraceSink",
    "current_registry",
    "current_tracer",
    "install_registry",
    "install_tracer",
    "snapshot_metrics",
    "trace_point",
    "trace_span",
    "uninstall_registry",
    "uninstall_tracer",
    "validate_metrics_json",
    "write_metrics_json",
]
