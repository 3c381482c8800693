"""Record the repo's performance trajectory into ``BENCH_core_ops.json``.

Each invocation runs a fixed set of core-path benches (scalar ingest,
batched ingest, sharded ingest, 2-/4-worker multiprocess parallel
ingest, point queries) with the :mod:`repro.obs` registry installed,
then writes one JSON document mapping bench id to throughput and
chunk-latency quantiles, stamped with the git sha, a timestamp, and —
per entry — the ``workers`` / ``cpu_count`` context without which a
parallel throughput number is uninterpretable::

    python benchmarks/record_trajectory.py [--output BENCH_core_ops.json]

The committed ``BENCH_core_ops.json`` at the repo root is the
trajectory: re-running after a perf-relevant change and committing the
refreshed file records how throughput moved across PRs.  Latencies are
read from the ``engine_chunk_seconds`` histogram (p50/p99 via linear
interpolation inside the matching bucket), so the numbers reported here
are exactly what a Prometheus scrape of a production ingest would see.

Set ``REPRO_BENCH_TINY=1`` (or pass ``--tiny``) to shrink the streams
for the CI metrics-smoke job.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))
sys.path.insert(0, str(_REPO_ROOT))

from benchmarks.bench_adaptive_drift import run_drift_benchmark  # noqa: E402

from repro.kernels import (  # noqa: E402
    active_backend,
    available_backends,
    use_backend,
)
from repro.obs import install_registry, uninstall_registry  # noqa: E402
from repro.runtime.engine import StreamEngine  # noqa: E402
from repro.runtime.parallel import ParallelIngestRuntime  # noqa: E402
from repro.runtime.sharding import ShardedASketch  # noqa: E402
from repro.streams.zipf import zipf_stream  # noqa: E402
from repro.synopses.spec import SynopsisSpec, build_synopsis  # noqa: E402

SCHEMA = "repro-bench-trajectory/v1"

ASKETCH_SPEC = SynopsisSpec(
    "asketch", {"total_bytes": 128 * 1024, "filter_items": 32}
)


def _git_sha() -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _stamp(row: dict, workers: int, optional: bool = False) -> dict:
    """Attach the context that makes a throughput number interpretable.

    A parallel items/s figure means nothing without knowing how many
    worker processes produced it and how many CPUs they had to share —
    the perf gate also keys off these to avoid comparing numbers taken
    on differently sized machines.  ``backend`` records which kernel
    compute backend (:mod:`repro.kernels`) produced the number;
    ``oversubscribed`` marks runs with more workers than CPUs, whose
    throughput is start-up-overhead-dominated and excluded from both the
    perf gate and any speedup claim.  ``optional`` marks benches that
    only run in some environments (e.g. the numba leg) so the gate
    treats their absence as a skip, not a drop.
    """
    row["workers"] = int(workers)
    row["cpu_count"] = _cpu_count()
    row["backend"] = active_backend().name
    row["oversubscribed"] = int(workers) > _cpu_count()
    if optional:
        row["optional"] = True
    return row


def _engine_summary(engine: StreamEngine, registry) -> dict:
    """One bench's record: throughput plus chunk-latency quantiles."""
    histogram = registry.get("engine_chunk_seconds")
    stats = engine.stats
    return {
        "items": stats.tuples_ingested,
        "chunks": stats.chunks_ingested,
        "items_per_s": round(
            1000.0 * stats.wall_throughput_items_per_ms, 2
        ),
        "p50_chunk_seconds": round(histogram.quantile(0.50), 6),
        "p99_chunk_seconds": round(histogram.quantile(0.99), 6),
    }


def _run_ingest_bench(synopsis, keys, chunk_size: int, batched: bool) -> dict:
    registry = install_registry()
    try:
        engine = StreamEngine(synopsis, batched=batched)
        for offset in range(0, keys.shape[0], chunk_size):
            engine.run([keys[offset : offset + chunk_size]])
        return _engine_summary(engine, registry)
    finally:
        uninstall_registry()


def _query_bench(keys, queries) -> dict:
    """Point-query throughput over a warm ASketch (no engine involved)."""
    asketch = build_synopsis(ASKETCH_SPEC.with_params(seed=65))
    asketch.process_batch(keys)
    start = time.perf_counter()
    asketch.query_batch(queries)
    elapsed = time.perf_counter() - start
    return {
        "items": int(queries.shape[0]),
        "chunks": 1,
        "items_per_s": round(queries.shape[0] / elapsed, 2)
        if elapsed > 0
        else 0.0,
        "p50_chunk_seconds": round(elapsed, 6),
        "p99_chunk_seconds": round(elapsed, 6),
    }


def _parallel_bench(keys, chunk_size: int, workers: int) -> dict:
    """Multiprocess SPMD ingest through the shared-memory runtime.

    Same 4-shard layout and seed as ``sharded_ingest``, so the pair
    reads as "one process vs N processes over the identical synopsis";
    ``wall_seconds`` covers worker start + feed + ingest + drain merge (the
    honest end-to-end number a deployment would see).
    """
    runtime = ParallelIngestRuntime(
        workers,
        shards=4,
        total_bytes=32 * 1024,
        seed=64,
        slot_capacity=max(1 << 16, chunk_size),
    )
    chunks = [
        keys[offset : offset + chunk_size]
        for offset in range(0, keys.shape[0], chunk_size)
    ]
    stats = runtime.run(iter(chunks))
    mean_chunk = (
        stats.wall_seconds / stats.chunks_ingested
        if stats.chunks_ingested
        else 0.0
    )
    return {
        "items": stats.tuples_ingested,
        "chunks": stats.chunks_ingested,
        "items_per_s": round(
            1000.0 * stats.wall_throughput_items_per_ms, 2
        ),
        "p50_chunk_seconds": round(mean_chunk, 6),
        "p99_chunk_seconds": round(mean_chunk, 6),
    }


#: The back stages the accuracy-vs-space section compares, at equal
#: shipped bytes (SF's fat helper is working memory, not shipped state).
_ACCURACY_METHODS = ("count-min", "asketch", "sf-sketch", "salsa-cm")


def _accuracy_spec(method: str, total_bytes: int) -> SynopsisSpec:
    if method == "asketch":
        return SynopsisSpec(
            "asketch",
            {"total_bytes": total_bytes, "filter_items": 32, "seed": 67},
        )
    return SynopsisSpec(
        method, {"num_hashes": 8, "total_bytes": total_bytes, "seed": 67}
    )


def _accuracy_vs_space(tiny: bool) -> dict:
    """Mean one-sided over-error per method at equal synopsis bytes.

    The staged-synopsis comparison the back-stage registry exists for:
    ASketch, SF-sketch and SALSA against the plain Count-Min baseline,
    every method answering from the same byte budget.  Lower is better;
    all four are one-sided, so the error is ``estimate - true >= 0``.
    """
    import numpy as np

    items = 60_000 if tiny else 200_000
    domain = items // 4
    stream = zipf_stream(items, domain, 1.3, seed=67)
    uniq, counts = np.unique(stream.keys, return_counts=True)
    budgets = (16 * 1024,) if tiny else (16 * 1024, 64 * 1024)
    section: dict = {
        "items": items,
        "domain": domain,
        "skew": 1.3,
        "budgets": {},
    }
    for total_bytes in budgets:
        row = {}
        for method in _ACCURACY_METHODS:
            synopsis = build_synopsis(_accuracy_spec(method, total_bytes))
            if hasattr(synopsis, "process_batch"):
                synopsis.process_batch(stream.keys)
            else:
                synopsis.process_stream(stream.keys)
            estimates = np.asarray(
                synopsis.estimate_batch(uniq), dtype=np.int64
            )
            over = estimates - counts
            row[method] = {
                "bytes": int(synopsis.size_bytes),
                "mean_over_error": round(float(over.mean()), 4),
                "p99_over_error": round(float(np.quantile(over, 0.99)), 2),
                "one_sided_violations": int((over < 0).sum()),
            }
        section["budgets"][str(total_bytes)] = row
    return section


def record(tiny: bool) -> dict:
    """Run every bench and return the trajectory document."""
    items = 60_000 if tiny else 400_000
    domain = 20_000 if tiny else 100_000
    chunk_size = 10_000
    stream = zipf_stream(items, domain, 1.5, seed=61)
    keys = stream.keys

    benches = {
        "scalar_ingest": _stamp(
            _run_ingest_bench(
                build_synopsis(ASKETCH_SPEC.with_params(seed=64)),
                keys,
                chunk_size,
                batched=False,
            ),
            workers=1,
        ),
        "batched_ingest": _stamp(
            _run_ingest_bench(
                build_synopsis(ASKETCH_SPEC.with_params(seed=64)),
                keys,
                chunk_size,
                batched=True,
            ),
            workers=1,
        ),
        "sharded_ingest": _stamp(
            _run_ingest_bench(
                ShardedASketch(shards=4, total_bytes=32 * 1024, seed=64),
                keys,
                chunk_size,
                batched=True,
            ),
            workers=1,
        ),
        "parallel_ingest_2w": _stamp(
            _parallel_bench(keys, chunk_size, workers=2), workers=2
        ),
        "parallel_ingest_4w": _stamp(
            _parallel_bench(keys, chunk_size, workers=4), workers=4
        ),
        "batch_query": _stamp(
            _query_bench(keys, keys[:20_000]), workers=1
        ),
    }
    if "numba" in available_backends():
        # The compiled leg, recorded only where numba exists (CI's
        # with-numba job, developer machines with `pip install .[native]`).
        # Marked optional so a no-numba run's gate treats its absence as
        # a skip rather than a dropped bench.
        with use_backend("numba"):
            benches["batched_ingest_native"] = _stamp(
                _run_ingest_bench(
                    build_synopsis(ASKETCH_SPEC.with_params(seed=64)),
                    keys,
                    chunk_size,
                    batched=True,
                ),
                workers=1,
                optional=True,
            )
    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "generated_unix": time.time(),
        "tiny": tiny,
        "cpu_count": _cpu_count(),
        "benches": benches,
        # Quality sections (not throughput): the perf gate only compares
        # "benches", so these record accuracy/adaptivity trajectories
        # without tripping throughput regression checks.
        "accuracy_vs_space": _accuracy_vs_space(tiny),
        "adaptive_drift": run_drift_benchmark(tiny),
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point; writes the trajectory JSON and prints a summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(_REPO_ROOT / "BENCH_core_ops.json"),
        help="output JSON path (default: repo-root BENCH_core_ops.json)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink streams (CI smoke mode; REPRO_BENCH_TINY=1 also works)",
    )
    args = parser.parse_args(argv)
    tiny = args.tiny or os.environ.get("REPRO_BENCH_TINY", "0") not in (
        "0",
        "",
    )
    document = record(tiny)
    path = Path(args.output)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for bench_id, row in sorted(document["benches"].items()):
        print(
            f"{bench_id:22s} {row['items_per_s']:>12.0f} items/s  "
            f"p50 {row['p50_chunk_seconds'] * 1000:.2f} ms  "
            f"p99 {row['p99_chunk_seconds'] * 1000:.2f} ms  "
            f"[{row['backend']}]"
        )
    print(f"trajectory written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
