"""Unit tests for JSON metric exposition."""

from __future__ import annotations

import json

from repro.obs import (
    METRICS_SCHEMA,
    MetricsRegistry,
    snapshot_metrics,
    validate_metrics_json,
    write_metrics_json,
)


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("asketch_items_total").inc(100)
    registry.counter("shard_items_total", shard="0").inc(60)
    registry.counter("shard_items_total", shard="1").inc(40)
    registry.gauge("dlq_depth").set(2)
    histogram = registry.histogram("chunk_seconds", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(5.0)
    return registry


class TestSnapshot:
    def test_snapshot_is_schema_valid(self):
        snapshot = snapshot_metrics(
            _populated_registry(), derived={"filter_hit_rate": 0.9}
        )
        assert snapshot["schema"] == METRICS_SCHEMA
        assert validate_metrics_json(snapshot) == []
        assert snapshot["derived"]["filter_hit_rate"] == 0.9

    def test_snapshot_is_json_serialisable(self):
        snapshot = snapshot_metrics(_populated_registry())
        decoded = json.loads(json.dumps(snapshot))
        assert validate_metrics_json(decoded) == []

    def test_write_and_revalidate(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(path, _populated_registry())
        document = json.loads(path.read_text())
        assert validate_metrics_json(document) == []

    def test_histogram_quantiles_present(self):
        snapshot = snapshot_metrics(_populated_registry())
        (histogram,) = snapshot["histograms"]
        assert histogram["count"] == 2
        assert histogram["p50"] >= 0.0
        assert histogram["p99"] >= histogram["p50"]
        assert histogram["buckets"][-1][0] == "+Inf"


class TestValidator:
    def test_rejects_non_dict(self):
        assert validate_metrics_json([]) != []

    def test_rejects_wrong_schema(self):
        snapshot = snapshot_metrics(MetricsRegistry())
        snapshot["schema"] = "other/v9"
        assert any("schema" in p for p in validate_metrics_json(snapshot))

    def test_rejects_missing_sections(self):
        snapshot = snapshot_metrics(MetricsRegistry())
        del snapshot["counters"]
        assert validate_metrics_json(snapshot) != []

    def test_rejects_non_monotonic_buckets(self):
        snapshot = snapshot_metrics(_populated_registry())
        snapshot["histograms"][0]["buckets"][0][1] = 999
        assert any("monotonic" in p.lower() or "bucket" in p.lower()
                   for p in validate_metrics_json(snapshot))
