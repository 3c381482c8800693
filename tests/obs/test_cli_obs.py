"""CLI observability: --metrics-json, stream targets, health, serve-metrics."""

from __future__ import annotations

import json
import urllib.request

from repro.cli import main
from repro.obs import validate_metrics_json


class TestRunMetricsJson:
    def test_zipf_stream_target_writes_valid_snapshot(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(
            ["run", "zipf", "--scale", "0.05", "--metrics-json", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested" in out
        document = json.loads(path.read_text())
        assert validate_metrics_json(document) == []
        derived = document["derived"]
        assert 0.0 <= derived["filter_hit_rate"] <= 1.0
        assert derived["exchange_count"] >= 0
        assert "checkpoint" in derived

    def test_uniform_stream_target(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(
            ["run", "uniform", "--scale", "0.02", "--metrics-json", str(path)]
        )
        assert code == 0
        assert validate_metrics_json(json.loads(path.read_text())) == []

    def test_trace_jsonl_written(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["run", "zipf", "--scale", "0.02", "--trace-jsonl",
             str(trace_path)]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert any(event["name"] == "ingest" for event in events)
        assert any(event["name"] == "exchange" for event in events)

    def test_experiment_run_supports_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(
            ["run", "figure3", "--scale", "0.05", "--metrics-json",
             str(path)]
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert validate_metrics_json(document) == []
        assert "filter_hit_rate" in document["derived"]

    def test_checkpointed_run_embeds_metrics_in_manifest(
        self, capsys, tmp_path
    ):
        directory = tmp_path / "ckpts"
        code = main(
            ["run", "asketch", "--checkpoint-dir", str(directory),
             "--checkpoint-every", "2", "--scale", "0.05"]
        )
        assert code == 0
        manifest = json.loads(
            (directory / "run-manifest.json").read_text()
        )
        assert validate_metrics_json(manifest["metrics"]) == []
        assert manifest["metrics"]["derived"]["checkpoint"] is not None


class TestHealth:
    def _checkpointed_run(self, tmp_path):
        directory = tmp_path / "ckpts"
        assert (
            main(
                ["run", "asketch", "--checkpoint-dir", str(directory),
                 "--checkpoint-every", "2", "--scale", "0.05"]
            )
            == 0
        )
        return directory

    def test_healthy_run_exits_zero(self, capsys, tmp_path):
        directory = self._checkpointed_run(tmp_path)
        capsys.readouterr()
        code = main(["health", "--checkpoint-dir", str(directory)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["status"] == "ok"
        assert report["synopsis_kind"] == "asketch"
        assert report["tuples_ingested"] > 0

    def test_missing_directory_exits_two(self, capsys, tmp_path):
        code = main(
            ["health", "--checkpoint-dir", str(tmp_path / "missing")]
        )
        assert code == 2
        assert "no checkpoint journal" in capsys.readouterr().err

    def test_corrupt_checkpoints_exit_one(self, capsys, tmp_path):
        from repro.runtime.reliability import corrupt_file

        directory = self._checkpointed_run(tmp_path)
        for snapshot in directory.glob("gen-*.npz"):
            corrupt_file(snapshot, seed=1)
        capsys.readouterr()
        code = main(["health", "--checkpoint-dir", str(directory)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["status"] == "unreadable"

    def test_degraded_supervisor_exits_one(self, capsys, tmp_path):
        import numpy as np

        from repro.runtime.reliability import (
            CheckpointStore,
            ShardSupervisor,
        )

        supervisor = ShardSupervisor(
            shards=2, total_bytes=8 * 1024, seed=3
        )
        supervisor.process_batch(
            np.arange(1_000, dtype=np.int64) % 50
        )
        store = CheckpointStore(tmp_path / "ckpts")
        store.save(
            supervisor,
            chunk_index=1,
            tuples_ingested=1_000,
            extra={"quarantined_chunks": 1},
        )
        code = main(
            ["health", "--checkpoint-dir", str(tmp_path / "ckpts")]
        )
        report = json.loads(capsys.readouterr().out)
        # Degraded means dead letters: every shard is exact, but a
        # quarantined chunk is missing from the synopsis until replayed.
        assert code == 1
        assert report["status"] == "degraded"
        assert report["fleet"]["quarantined_chunks"] == 1
        assert all(shard["status"] == "ok" for shard in report["shards"])


    def test_healing_fleet_exits_three(self, capsys, tmp_path):
        import numpy as np

        from repro.runtime.reliability import (
            CheckpointStore,
            ShardSupervisor,
        )

        supervisor = ShardSupervisor(
            shards=2, total_bytes=8 * 1024, seed=3
        )
        supervisor.process_batch(
            np.arange(1_000, dtype=np.int64) % 50
        )
        store = CheckpointStore(tmp_path / "ckpts")
        store.save(
            supervisor,
            chunk_index=1,
            tuples_ingested=1_000,
            extra={"healing_shards": [1]},
        )
        code = main(
            ["health", "--checkpoint-dir", str(tmp_path / "ckpts")]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["status"] == "healing"
        assert report["fleet"]["healing_shards"] == [1]


class TestServeMetrics:
    def test_serves_during_ingest_and_exits_clean(self, capsys):
        code = main(
            ["serve-metrics", "--scale", "0.02", "--chunk-size", "4000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving metrics at http://127.0.0.1:" in out
        assert "ingested" in out

    def test_scrape_during_linger(self, capsys, monkeypatch):
        """``--linger`` keeps the endpoint up after ingest; scraping it
        then sees the full run's metrics.  The linger sleep is patched
        to perform the scrape, so the test never actually waits."""
        import time as time_module

        scraped: dict[str, str] = {}

        def scrape_instead_of_sleeping(_seconds):
            out = capsys.readouterr().out
            url = out.split("serving metrics at ")[1].split()[0]
            with urllib.request.urlopen(url, timeout=5) as response:
                scraped["body"] = response.read().decode()

        monkeypatch.setattr(
            time_module, "sleep", scrape_instead_of_sleeping
        )
        code = main(
            ["serve-metrics", "--scale", "0.02", "--chunk-size", "4000",
             "--linger", "5.0"]
        )
        assert code == 0
        assert "engine_tuples_total" in scraped["body"]
        assert "asketch_filter_hits_total" in scraped["body"]
