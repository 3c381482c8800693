"""Command-line interface: run experiments, checkpoint and restore synopses.

Usage::

    repro-asketch list
    repro-asketch run table1
    repro-asketch run figure5 --scale 0.25 --seed 3
    repro-asketch run all --scale 0.1
    repro-asketch run asketch --checkpoint-dir ckpts --checkpoint-every 8
    repro-asketch run zipf --metrics-json metrics.json
    repro-asketch run zipf --workers 4 --shards 8
    repro-asketch run zipf --workers 4 --shards 8 --respawn --reshard
    repro-asketch resume ckpts --top-k 10
    repro-asketch checkpoint asketch.npz --method asketch --skew 1.5
    repro-asketch restore asketch.npz --top-k 10
    repro-asketch serve-metrics --port 9100 --scale 0.5
    repro-asketch health --checkpoint-dir ckpts

With ``--checkpoint-dir``, ``run`` switches from the experiment harness
to a fault-tolerant streaming ingest: the positional argument names a
*method/synopsis* (``asketch``, ``count-min``, ...), a Zipf stream is
driven through :class:`repro.runtime.reliability.ResilientEngine` with
atomic checkpoints every ``--checkpoint-every`` chunks, and the run's
parameters are recorded in a ``run-manifest.json`` inside the
checkpoint directory.  After a crash, ``resume <dir>`` re-reads the
manifest, restores the newest valid checkpoint generation (falling back
one generation if the latest is corrupt), and replays exactly the
un-checkpointed suffix of the stream.

``resume`` exit codes: ``0`` — recovered and finished; ``1`` —
recovery failed (all checkpoint generations corrupt, or an error while
replaying); ``2`` — usage error (missing checkpoint directory or
``run-manifest.json``).

Observability (:mod:`repro.obs`): ``run`` accepts ``--metrics-json
PATH`` (write a schema-checked JSON metrics snapshot after the run,
also embedded into ``run-manifest.json`` for checkpointed ingests) and
``--trace-jsonl PATH`` (structured span/point trace).  The positional
``zipf`` / ``uniform`` selects a plain streaming ingest of that stream
through the default ASketch.  ``serve-metrics`` runs an ingest with a
stdlib HTTP scrape endpoint at ``/metrics`` (Prometheus text) and
``/metrics.json``; ``health --checkpoint-dir DIR`` inspects the newest
checkpoint and exits ``0`` (healthy), ``1`` (degraded — chunks sit in
a dead-letter queue — or unreadable), ``2`` (usage error / no
checkpoints), ``3`` (healing: a worker respawn is rebuilding state,
data intact).  Parallel runs journal their self-healing lifecycle
counters (``worker_respawns``, ``reshard_migrations``, stalls,
quarantines) into every checkpoint, and ``health`` surfaces them under
``fleet``; ``run --workers N`` itself exits non-zero when the fleet
finishes degraded.  ``run --respawn`` enables exact worker recovery,
``--reshard`` online skew-driven shard rebalancing.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro
from repro.errors import ReproError
from repro.experiments import (
    ExperimentConfig,
    experiment_ids,
    format_result,
    run_experiment,
)
from repro.experiments.registry import describe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asketch",
        description=(
            "Reproduction harness for 'Augmented Sketch' (SIGMOD 2016): "
            "regenerate the paper's tables and figures."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all experiment ids")

    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or 'all') and print its rows"
    )
    run_parser.add_argument(
        "experiment", help="experiment id (see 'list') or 'all'"
    )
    run_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="stream-size multiplier (default 1.0 = 400K-tuple streams)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="master random seed"
    )
    run_parser.add_argument(
        "--synopsis-kb",
        type=int,
        default=128,
        help="total synopsis budget in KB (default 128, as in the paper)",
    )
    run_parser.add_argument(
        "--filter-items",
        type=int,
        default=32,
        help="ASketch filter capacity in items (default 32)",
    )
    run_parser.add_argument(
        "--filter-kind",
        default="relaxed-heap",
        choices=["vector", "strict-heap", "relaxed-heap", "stream-summary"],
        help="ASketch filter implementation (default relaxed-heap)",
    )
    run_parser.add_argument(
        "--runs",
        type=int,
        default=5,
        help="repetitions for max-over-runs experiments (paper uses 100)",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "enable fault-tolerant streaming ingest: treat the positional "
            "argument as a method id, ingest a Zipf stream through the "
            "resilient engine, and checkpoint into this directory"
        ),
    )
    run_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        help="chunks between checkpoints (with --checkpoint-dir; default 8)",
    )
    run_parser.add_argument(
        "--chunk-size",
        type=int,
        default=10_000,
        help="ingest chunk size in tuples (with --checkpoint-dir)",
    )
    run_parser.add_argument(
        "--skew",
        type=float,
        default=1.5,
        help="Zipf skew of the ingested stream (with --checkpoint-dir)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "ingest with N worker processes over shared-memory rings "
            "(stream targets 'zipf'/'uniform' only; the result is "
            "bit-identical to --workers 1)"
        ),
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "shard count for --workers runs (default: one per worker); "
            "the --synopsis-kb budget is split across shards"
        ),
    )
    run_parser.add_argument(
        "--respawn",
        action="store_true",
        help=(
            "with --workers: respawn dead/hung workers from their last "
            "snapshot and replay the retained tail (exact recovery; "
            "past the retry budget the parent takes the worker's "
            "shards over, still exact)"
        ),
    )
    run_parser.add_argument(
        "--reshard",
        action="store_true",
        help=(
            "with --workers: watch routing skew and move shards "
            "between workers online (requires --shards > --workers to "
            "have anything to move)"
        ),
    )
    run_parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help=(
            "write a JSON metrics snapshot (schema repro-metrics/v1) "
            "after the run"
        ),
    )
    run_parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help=(
            "write structured trace events (ingest/exchange/checkpoint "
            "spans) as JSON lines"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve-metrics",
        help=(
            "ingest a stream with a live Prometheus/JSON metrics "
            "endpoint at /metrics"
        ),
    )
    serve_parser.add_argument(
        "--method",
        default="asketch",
        help="synopsis method to ingest into (default asketch)",
    )
    serve_parser.add_argument(
        "--stream",
        default="zipf",
        choices=["zipf", "uniform"],
        help="stream generator (default zipf)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0 = ephemeral, printed on start)",
    )
    serve_parser.add_argument("--scale", type=float, default=1.0)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--skew", type=float, default=1.5)
    serve_parser.add_argument("--synopsis-kb", type=int, default=128)
    serve_parser.add_argument("--filter-items", type=int, default=32)
    serve_parser.add_argument(
        "--filter-kind",
        default="relaxed-heap",
        choices=["vector", "strict-heap", "relaxed-heap", "stream-summary"],
    )
    serve_parser.add_argument("--chunk-size", type=int, default=10_000)
    serve_parser.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help=(
            "seconds to keep serving after the stream ends "
            "(default 0; use a large value for scrape-and-watch runs)"
        ),
    )

    health_parser = subparsers.add_parser(
        "health",
        help=(
            "inspect the newest checkpoint of a resilient run; "
            "exit 0 healthy, 1 degraded, 3 healing (recovery in flight)"
        ),
    )
    health_parser.add_argument(
        "--checkpoint-dir",
        required=True,
        help="checkpoint directory of a 'run --checkpoint-dir' ingest",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="run every experiment and write one markdown report",
    )
    report_parser.add_argument("output", help="output markdown path")
    report_parser.add_argument("--scale", type=float, default=1.0)
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="restrict to these experiment ids",
    )

    checkpoint_parser = subparsers.add_parser(
        "checkpoint",
        help="build a method, ingest a Zipf stream, save the synopsis",
    )
    checkpoint_parser.add_argument("output", help="output .npz path")
    checkpoint_parser.add_argument(
        "--method",
        default="asketch",
        help="method id (see experiments) or any registered synopsis kind",
    )
    checkpoint_parser.add_argument(
        "--skew", type=float, default=1.5, help="Zipf skew (default 1.5)"
    )
    checkpoint_parser.add_argument("--scale", type=float, default=1.0)
    checkpoint_parser.add_argument("--seed", type=int, default=0)
    checkpoint_parser.add_argument("--synopsis-kb", type=int, default=128)
    checkpoint_parser.add_argument("--filter-items", type=int, default=32)
    checkpoint_parser.add_argument(
        "--filter-kind",
        default="relaxed-heap",
        choices=["vector", "strict-heap", "relaxed-heap", "stream-summary"],
    )

    resume_parser = subparsers.add_parser(
        "resume",
        help=(
            "recover a crashed 'run --checkpoint-dir' ingest from its "
            "newest valid checkpoint and finish the stream"
        ),
    )
    resume_parser.add_argument(
        "checkpoint_dir", help="checkpoint directory of the interrupted run"
    )
    resume_parser.add_argument(
        "--top-k",
        type=int,
        default=0,
        help="after recovery, print the synopsis' top-k items",
    )
    resume_parser.add_argument(
        "--query",
        type=int,
        nargs="*",
        default=None,
        help="keys to point-query after recovery",
    )

    restore_parser = subparsers.add_parser(
        "restore",
        help="load a saved synopsis and answer queries from it",
    )
    restore_parser.add_argument("input", help="saved .npz path")
    restore_parser.add_argument(
        "--top-k",
        type=int,
        default=0,
        help="print the synopsis' top-k items (if it supports top_k)",
    )
    restore_parser.add_argument(
        "--query",
        type=int,
        nargs="*",
        default=None,
        help="keys to point-query against the restored synopsis",
    )
    return parser


_MANIFEST_NAME = "run-manifest.json"


def _manifest_config(manifest: dict) -> "ExperimentConfig":
    return ExperimentConfig(
        scale=float(manifest["scale"]),
        seed=int(manifest["seed"]),
        synopsis_bytes=int(manifest["synopsis_kb"]) * 1024,
        filter_items=int(manifest["filter_items"]),
        filter_kind=manifest["filter_kind"],
    )


def _manifest_stream(manifest: dict):
    from repro.streams.uniform import uniform_stream
    from repro.streams.zipf import zipf_stream

    config = _manifest_config(manifest)
    if manifest.get("stream", "zipf") == "uniform":
        return uniform_stream(
            config.stream_size, config.distinct, seed=int(manifest["seed"])
        )
    return zipf_stream(
        config.stream_size,
        config.distinct,
        float(manifest["skew"]),
        seed=int(manifest["seed"]),
    )


def _registry_derived(registry) -> dict:
    """Paper-facing summary statistics computed from raw counters.

    ``filter_hit_rate`` observes Fig. 6-9's hit-rate claim and
    ``exchange_count`` Alg. 1's decaying exchange frequency (see
    DESIGN.md §10 for the full metric-to-paper mapping).
    """
    items = registry.value("asketch_items_total")
    hits = registry.value("asketch_filter_hits_total")
    return {
        "filter_hit_rate": (hits / items) if items else 0.0,
        "filter_miss_count": registry.value("asketch_filter_misses_total"),
        "exchange_count": registry.value("asketch_exchanges_total"),
    }


def _ingest_derived(engine, registry) -> dict:
    """:func:`_registry_derived` plus the resilient run's checkpoint view."""
    health = engine.health()
    derived = _registry_derived(registry)
    derived.update(
        {
            "checkpoint": health["checkpoint"],
            "checkpoint_lag_chunks": health["checkpoint_lag_chunks"],
            "checkpoints_written": registry.value("checkpoints_total"),
            "quarantined_chunks": health["quarantined"],
            "status": health["status"],
        }
    )
    return derived


class _Observability:
    """Install/teardown of the run-scoped registry and trace sink.

    The CLI installs a fresh registry per observed run (so snapshots
    cover exactly that run) and, with ``--trace-jsonl``, a
    :class:`~repro.obs.trace.JsonlTraceWriter`; both are uninstalled
    on exit even when the run fails.
    """

    def __init__(self, trace_jsonl: str | None = None) -> None:
        self.trace_jsonl = trace_jsonl
        self.registry = None
        self._writer = None

    def __enter__(self):
        from repro.obs import (
            JsonlTraceWriter,
            install_registry,
            install_tracer,
        )

        self.registry = install_registry()
        if self.trace_jsonl is not None:
            self._writer = JsonlTraceWriter(self.trace_jsonl)
            install_tracer(self._writer)
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.obs import uninstall_registry, uninstall_tracer

        if self._writer is not None:
            uninstall_tracer()
            self._writer.close()
        uninstall_registry()


def _print_ingest_summary(engine, stats) -> None:
    health = engine.health()
    checkpoint = health["checkpoint"] or {}
    print(
        f"ingested {stats.tuples_ingested} tuples in "
        f"{stats.chunks_ingested} chunks "
        f"({stats.wall_throughput_items_per_ms:.0f} items/ms ingest-only); "
        f"last checkpoint generation {checkpoint.get('generation', '-')} at "
        f"chunk {checkpoint.get('chunk_index', '-')}; "
        f"status {health['status']}"
    )


#: Positional ``run`` targets naming a *stream* rather than a method:
#: they trigger a streaming ingest of that stream through the default
#: ASketch even without ``--checkpoint-dir``.
_STREAM_TARGETS = ("zipf", "uniform")


def _write_run_metrics(args, registry, engine, directory) -> None:
    """Write the ``--metrics-json`` snapshot and embed it in the manifest.

    Both views carry the same derived block (hit rate, exchanges,
    checkpoint position); the manifest embedding makes a checkpointed
    run's final metrics recoverable alongside its parameters.
    """
    import json

    from repro.obs import snapshot_metrics, write_metrics_json

    derived = _ingest_derived(engine, registry)
    if args.metrics_json is not None:
        write_metrics_json(args.metrics_json, registry, derived=derived)
        print(f"metrics snapshot written to {args.metrics_json}")
    if directory is not None:
        manifest_path = directory / _MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["metrics"] = snapshot_metrics(registry, derived=derived)
        manifest_path.write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )


def _run_resilient(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.runtime.reliability import ResilientEngine
    from repro.synopses.spec import build_synopsis

    method = args.experiment
    stream_name = "zipf"
    if method in _STREAM_TARGETS:
        stream_name, method = method, "asketch"
    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        synopsis_bytes=args.synopsis_kb * 1024,
        filter_items=args.filter_items,
        filter_kind=args.filter_kind,
    )
    spec = config.spec_for(method, seed=args.seed)
    synopsis = build_synopsis(spec)
    manifest = {
        "method": method,
        "stream": stream_name,
        "scale": args.scale,
        "seed": args.seed,
        "skew": args.skew,
        "synopsis_kb": args.synopsis_kb,
        "filter_items": args.filter_items,
        "filter_kind": args.filter_kind,
        "chunk_size": args.chunk_size,
        "checkpoint_every": args.checkpoint_every,
    }
    directory = None
    if args.checkpoint_dir is not None:
        directory = Path(args.checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    engine = ResilientEngine(
        synopsis,
        checkpoint_dir=directory,
        checkpoint_every=args.checkpoint_every,
    )
    stream = _manifest_stream(manifest)
    with _Observability(trace_jsonl=args.trace_jsonl) as obs:
        stats = engine.run(stream.chunks(args.chunk_size))
        _print_ingest_summary(engine, stats)
        _write_run_metrics(args, obs.registry, engine, directory)
    return 0


def _run_parallel(args: argparse.Namespace) -> int:
    """``run <stream> --workers N``: true multiprocess SPMD ingest.

    The total ``--synopsis-kb`` budget is split evenly across shards
    (matching §6.3's per-core sizing), the stream is routed to worker
    processes over shared-memory rings, and the merged result is
    bit-identical to the same run with ``--workers 1``.
    """
    from pathlib import Path

    from repro.runtime.parallel import ParallelIngestRuntime
    from repro.runtime.reliability import CheckpointStore
    from repro.streams.uniform import uniform_stream
    from repro.streams.zipf import zipf_stream

    if args.experiment not in _STREAM_TARGETS:
        print(
            f"--workers needs a stream target {_STREAM_TARGETS}, "
            f"got {args.experiment!r}",
            file=sys.stderr,
        )
        return 2
    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        synopsis_bytes=args.synopsis_kb * 1024,
        filter_items=args.filter_items,
        filter_kind=args.filter_kind,
    )
    if args.experiment == "uniform":
        stream = uniform_stream(
            config.stream_size, config.distinct, seed=args.seed
        )
    else:
        stream = zipf_stream(
            config.stream_size, config.distinct, args.skew, seed=args.seed
        )
    shards = args.shards if args.shards is not None else args.workers
    per_shard_bytes = max(4096, (args.synopsis_kb * 1024) // max(shards, 1))
    runtime = ParallelIngestRuntime(
        args.workers,
        shards=shards,
        total_bytes=per_shard_bytes,
        filter_items=args.filter_items,
        filter_kind=args.filter_kind,
        seed=args.seed,
        slot_capacity=max(1 << 16, args.chunk_size),
        respawn=args.respawn,
        auto_reshard=args.reshard,
    )
    store = None
    if args.checkpoint_dir is not None:
        directory = Path(args.checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        store = CheckpointStore(directory)
    with _Observability(trace_jsonl=args.trace_jsonl) as obs:
        stats = runtime.run(
            stream.chunks(args.chunk_size),
            checkpoint_store=store,
            checkpoint_every=args.checkpoint_every if store else None,
        )
        workers_ok = sum(
            1 for h in runtime.worker_health() if h["status"] == "ok"
        )
        fleet = runtime.health()
        print(
            f"ingested {stats.tuples_ingested} tuples in "
            f"{stats.chunks_ingested} chunks across {args.workers} workers "
            f"({shards} shards, {per_shard_bytes} B/shard) in "
            f"{stats.wall_seconds:.2f}s "
            f"({stats.wall_throughput_items_per_ms:.0f} items/ms); "
            f"{workers_ok}/{args.workers} workers healthy; "
            f"fleet {fleet['status']} "
            f"(respawns {fleet['worker_respawns']}, "
            f"migrations {fleet['reshard_migrations']})"
        )
        if args.metrics_json is not None:
            from repro.obs import write_metrics_json

            write_metrics_json(
                args.metrics_json,
                obs.registry,
                derived={
                    "workers": runtime.worker_health(),
                    "shards": runtime.shard_health(),
                    "fleet": fleet,
                },
            )
            print(f"metrics snapshot written to {args.metrics_json}")
    return 0 if fleet["status"] == "ok" else 1


def _run_serve_metrics(args: argparse.Namespace) -> int:
    from repro.obs import MetricsServer, install_registry, uninstall_registry
    from repro.runtime.reliability import ResilientEngine
    from repro.streams.uniform import uniform_stream
    from repro.streams.zipf import zipf_stream
    from repro.synopses.spec import build_synopsis

    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        synopsis_bytes=args.synopsis_kb * 1024,
        filter_items=args.filter_items,
        filter_kind=args.filter_kind,
    )
    spec = config.spec_for(args.method, seed=args.seed)
    synopsis = build_synopsis(spec)
    if args.stream == "uniform":
        stream = uniform_stream(
            config.stream_size, config.distinct, seed=args.seed
        )
    else:
        stream = zipf_stream(
            config.stream_size, config.distinct, args.skew, seed=args.seed
        )
    registry = install_registry()
    try:
        with MetricsServer(registry, host=args.host, port=args.port) as server:
            print(
                f"serving metrics at {server.url} "
                "(JSON at /metrics.json); Ctrl-C to stop"
            )
            engine = ResilientEngine(synopsis)
            stats = engine.run(stream.chunks(args.chunk_size))
            _print_ingest_summary(engine, stats)
            if args.linger > 0:
                try:
                    time.sleep(args.linger)
                except KeyboardInterrupt:
                    pass
    finally:
        uninstall_registry()
    return 0


def _run_health(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import RecoveryError
    from repro.runtime.reliability import CheckpointStore, ShardSupervisor

    directory = Path(args.checkpoint_dir)
    if (
        not directory.is_dir()
        or not (directory / CheckpointStore.JOURNAL_NAME).is_file()
    ):
        print(
            f"{directory} has no checkpoint journal; start a run with "
            "'repro-asketch run <method> --checkpoint-dir ...'",
            file=sys.stderr,
        )
        return 2
    store = CheckpointStore(directory)
    try:
        loaded = store.load_latest()
    except RecoveryError as exc:
        print(
            json.dumps({"status": "unreadable", "detail": str(exc)}, indent=2)
        )
        return 1
    if loaded is None:
        print(f"no checkpoints recorded in {directory}", file=sys.stderr)
        return 2
    synopsis, record = loaded
    report = {
        "status": "ok",
        "generation": record["generation"],
        "chunk_index": record["chunk_index"],
        "tuples_ingested": record["tuples_ingested"],
        "synopsis_kind": type(synopsis).SYNOPSIS_KIND,
    }
    if isinstance(synopsis, ShardSupervisor):
        report["shards"] = synopsis.shard_health()
        if synopsis.healing_shards:
            report["status"] = "healing"
    extra = record.get("extra") or {}
    if extra:
        # Self-healing lifecycle counters journaled by the parallel
        # runtime's checkpoints (respawns, migrations, quarantines...).
        report["fleet"] = extra
        if extra.get("quarantined_chunks"):
            # Data is sitting in a dead-letter queue, not the synopsis.
            report["status"] = "degraded"
        elif report["status"] == "ok" and extra.get("healing_shards"):
            report["status"] = "healing"
    print(json.dumps(report, indent=2))
    if report["status"] == "ok":
        return 0
    return 3 if report["status"] == "healing" else 1


def _run_resume(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.runtime.reliability import ResilientEngine

    directory = Path(args.checkpoint_dir)
    manifest_path = directory / _MANIFEST_NAME
    if not directory.is_dir() or not manifest_path.is_file():
        print(
            f"{directory} is not a checkpoint directory "
            f"(no {_MANIFEST_NAME}); start one with "
            "'repro-asketch run <method> --checkpoint-dir ...'",
            file=sys.stderr,
        )
        return 2
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable {_MANIFEST_NAME}: {exc}", file=sys.stderr)
        return 2

    from repro.synopses.spec import build_synopsis

    config = _manifest_config(manifest)
    spec = config.spec_for(manifest["method"], seed=int(manifest["seed"]))
    engine = ResilientEngine(
        build_synopsis(spec),  # fresh fallback if no checkpoint was reached
        checkpoint_dir=directory,
        checkpoint_every=int(manifest["checkpoint_every"]),
    )
    stream = _manifest_stream(manifest)
    stats = engine.resume(stream.chunks(int(manifest["chunk_size"])))
    _print_ingest_summary(engine, stats)
    synopsis = engine.synopsis
    if args.top_k:
        top_k = getattr(synopsis, "top_k", None)
        if top_k is None:
            kind = type(synopsis).SYNOPSIS_KIND
            print(f"{kind} does not answer top-k queries", file=sys.stderr)
            return 1
        for rank, (key, count) in enumerate(top_k(args.top_k), start=1):
            print(f"{rank:3d}. key={key} count={count}")
    for key in args.query or []:
        print(f"estimate({key}) = {synopsis.estimate(key)}")
    return 0


def _run_checkpoint(args: argparse.Namespace) -> int:
    from repro.persistence import save_synopsis
    from repro.streams.zipf import zipf_stream
    from repro.synopses.spec import build_synopsis

    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        synopsis_bytes=args.synopsis_kb * 1024,
        filter_items=args.filter_items,
        filter_kind=args.filter_kind,
    )
    spec = config.spec_for(args.method, seed=args.seed)
    synopsis = build_synopsis(spec)
    stream = zipf_stream(
        config.stream_size, config.distinct, args.skew, seed=args.seed
    )
    ingest = getattr(synopsis, "process_stream", None)
    if ingest is not None:
        ingest(stream.keys)
    else:
        for key in stream.keys.tolist():
            synopsis.update(int(key))
    save_synopsis(synopsis, args.output)
    print(
        f"checkpointed {spec.kind} ({synopsis.size_bytes} bytes, "
        f"{len(stream)} tuples at skew {args.skew}) to {args.output}"
    )
    return 0


def _run_restore(args: argparse.Namespace) -> int:
    from repro.persistence import load_synopsis

    synopsis = load_synopsis(args.input)
    kind = type(synopsis).SYNOPSIS_KIND
    print(f"restored {kind} ({synopsis.size_bytes} bytes) from {args.input}")
    if args.top_k:
        top_k = getattr(synopsis, "top_k", None)
        if top_k is None:
            print(f"{kind} does not answer top-k queries", file=sys.stderr)
            return 1
        for rank, (key, count) in enumerate(top_k(args.top_k), start=1):
            print(f"{rank:3d}. key={key} count={count}")
    for key in args.query or []:
        print(f"estimate({key}) = {synopsis.estimate(key)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in experiment_ids():
            print(f"{experiment_id:10s} {describe(experiment_id)}")
        return 0

    if args.command in ("checkpoint", "restore", "resume"):
        try:
            if args.command == "checkpoint":
                return _run_checkpoint(args)
            if args.command == "resume":
                return _run_resume(args)
            return _run_restore(args)
        except ReproError as exc:
            print(f"error during {args.command}: {exc}", file=sys.stderr)
            return 1

    if args.command == "serve-metrics":
        try:
            return _run_serve_metrics(args)
        except ReproError as exc:
            print(f"error during serve-metrics: {exc}", file=sys.stderr)
            return 1

    if args.command == "health":
        try:
            return _run_health(args)
        except ReproError as exc:
            print(f"error during health check: {exc}", file=sys.stderr)
            return 1

    if args.command == "report":
        from repro.experiments.report import write_report

        config = ExperimentConfig(scale=args.scale, seed=args.seed)
        try:
            path = write_report(args.output, config, args.only)
        except ReproError as exc:
            print(f"error generating report: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {path}")
        return 0

    if getattr(args, "workers", 1) < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if getattr(args, "workers", 1) > 1:
        try:
            return _run_parallel(args)
        except ReproError as exc:
            print(f"error during parallel run: {exc}", file=sys.stderr)
            return 1

    if args.checkpoint_dir is not None or args.experiment in _STREAM_TARGETS:
        try:
            return _run_resilient(args)
        except ReproError as exc:
            print(f"error during resilient run: {exc}", file=sys.stderr)
            return 1

    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        synopsis_bytes=args.synopsis_kb * 1024,
        filter_items=args.filter_items,
        filter_kind=args.filter_kind,
        runs=args.runs,
    )
    known = experiment_ids()
    targets = known if args.experiment == "all" else [args.experiment]
    unknown = [target for target in targets if target not in known]
    if unknown:
        print(
            f"unknown experiment id {unknown[0]!r}; "
            "run 'repro-asketch list' for the available ids",
            file=sys.stderr,
        )
        return 2
    if args.metrics_json is None and args.trace_jsonl is None:
        return _run_experiments(targets, config)
    with _Observability(trace_jsonl=args.trace_jsonl) as obs:
        code = _run_experiments(targets, config)
        if code == 0 and args.metrics_json is not None:
            from repro.obs import write_metrics_json

            write_metrics_json(
                args.metrics_json,
                obs.registry,
                derived=_registry_derived(obs.registry),
            )
            print(f"metrics snapshot written to {args.metrics_json}")
    return code


def _run_experiments(targets: list[str], config: ExperimentConfig) -> int:
    """Run each experiment id in turn, printing its formatted rows."""
    for experiment_id in targets:
        start = time.perf_counter()
        try:
            result = run_experiment(experiment_id, config)
        except ReproError as exc:
            print(f"error running {experiment_id}: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        print(format_result(result))
        print(f"({elapsed:.1f}s)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
