"""Metric exposition: JSON snapshots of a metrics registry.

:func:`snapshot_metrics` / :func:`write_metrics_json` read a
:class:`~repro.obs.registry.MetricsRegistry` into a JSON-safe snapshot
(schema ``repro-metrics/v1``, checked by :func:`validate_metrics_json`):
what ``repro-asketch run --metrics-json`` writes and what checkpoint
run manifests embed.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
)

__all__ = [
    "snapshot_metrics",
    "write_metrics_json",
    "validate_metrics_json",
]

#: Schema identifier stamped into every JSON snapshot.
METRICS_SCHEMA = "repro-metrics/v1"


def _require_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    registry = registry if registry is not None else current_registry()
    if registry is None:
        raise ValueError(
            "no registry given and none installed; call "
            "repro.obs.install_registry() first"
        )
    return registry


def snapshot_metrics(
    registry: MetricsRegistry | None = None,
    derived: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A JSON-safe snapshot of a registry (schema ``repro-metrics/v1``).

    ``derived`` attaches caller-computed summary statistics (hit
    rates, checkpoint positions) without them masquerading as raw
    instruments.  Histograms carry their cumulative buckets plus p50
    and p99 estimates, the same quantities the bench trajectory
    records.
    """
    registry = _require_registry(registry)
    counters: list[dict[str, Any]] = []
    gauges: list[dict[str, Any]] = []
    histograms: list[dict[str, Any]] = []
    for instrument in registry.instruments():
        entry: dict[str, Any] = {
            "name": instrument.name,
            "labels": dict(instrument.labels),
        }
        if isinstance(instrument, Counter):
            entry["value"] = instrument.value
            counters.append(entry)
        elif isinstance(instrument, Gauge):
            entry["value"] = instrument.value
            gauges.append(entry)
        elif isinstance(instrument, Histogram):
            entry["buckets"] = [
                ["+Inf" if bound == math.inf else bound, cumulative]
                for bound, cumulative in instrument.bucket_counts()
            ]
            entry["sum"] = instrument.sum
            entry["count"] = instrument.count
            entry["p50"] = instrument.quantile(0.5)
            entry["p99"] = instrument.quantile(0.99)
            histograms.append(entry)
    return {
        "schema": METRICS_SCHEMA,
        "generated_unix": time.time(),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "derived": dict(derived or {}),
    }


def write_metrics_json(
    path: str | Path,
    registry: MetricsRegistry | None = None,
    derived: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Write :func:`snapshot_metrics` to ``path``; returns the snapshot."""
    snapshot = snapshot_metrics(registry, derived)
    Path(path).write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return snapshot


def validate_metrics_json(document: Any) -> list[str]:
    """Check a snapshot against the ``repro-metrics/v1`` schema.

    Returns a list of human-readable problems (empty = valid) instead
    of raising, so CI jobs can print every violation at once.  The
    check is structural — required keys, types, label shapes, bucket
    monotonicity — and dependency-free by design (no jsonschema).
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"snapshot must be an object, got {type(document).__name__}"]
    if document.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema must be {METRICS_SCHEMA!r}, got "
            f"{document.get('schema')!r}"
        )
    if not isinstance(document.get("generated_unix"), (int, float)):
        problems.append("generated_unix must be a number")
    if not isinstance(document.get("derived"), dict):
        problems.append("derived must be an object")

    def check_series(section: str, *, histogram: bool) -> None:
        series = document.get(section)
        if not isinstance(series, list):
            problems.append(f"{section} must be a list")
            return
        for position, entry in enumerate(series):
            where = f"{section}[{position}]"
            if not isinstance(entry, dict):
                problems.append(f"{where} must be an object")
                continue
            if not isinstance(entry.get("name"), str) or not entry.get("name"):
                problems.append(f"{where}.name must be a non-empty string")
            labels = entry.get("labels")
            if not isinstance(labels, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in labels.items()
            ):
                problems.append(f"{where}.labels must map strings to strings")
            if histogram:
                buckets = entry.get("buckets")
                if not isinstance(buckets, list) or not buckets:
                    problems.append(f"{where}.buckets must be a "
                                    "non-empty list")
                else:
                    last = -1
                    for pair in buckets:
                        if (
                            not isinstance(pair, list)
                            or len(pair) != 2
                            or not isinstance(pair[1], int)
                            or pair[1] < last
                        ):
                            problems.append(
                                f"{where}.buckets must hold [bound, "
                                "cumulative-count] pairs with "
                                "non-decreasing counts"
                            )
                            break
                        last = pair[1]
                    if buckets and buckets[-1][0] != "+Inf":
                        problems.append(
                            f"{where}.buckets must end with the +Inf bucket"
                        )
                for key in ("sum", "count", "p50", "p99"):
                    if not isinstance(entry.get(key), (int, float)):
                        problems.append(f"{where}.{key} must be a number")
            else:
                if not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{where}.value must be a number")

    check_series("counters", histogram=False)
    check_series("gauges", histogram=False)
    check_series("histograms", histogram=True)
    return problems

