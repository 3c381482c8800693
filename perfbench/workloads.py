"""The benchmark's three workloads: inputs, drivers, timing and the gate.

Every workload is a closed loop: this process is the only generator, and
a driver asks for chunk ``i + 1`` only after it has finished with chunk
``i``.  The seed is the only input the workload takes; the program sees
nothing but the generated chunks.

A run measures whole *passes*: one pass builds a fresh synopsis (and,
for ``flat-checkpointed``, a fresh checkpoint directory), feeds it the
seed's whole stream, and ends when the driver returns a complete result.
Passes repeat until the run's time budget is spent.  Throughputs are
totals over every pass, the median chunk latency is taken per pass and
averaged over passes, the tail is taken per pass and its median
reported, and set-up and query times are medians of samples taken
between passes; no single slow pass can move a metric on its own.

Timings of work on this process's CPU are reported at a reference host
speed (see :mod:`perfbench.hostspeed`); the raw figures are printed
beside them.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.asketch import ASketch
from repro.runtime.engine import StreamEngine
from repro.runtime.parallel import ParallelIngestRuntime
from repro.runtime.reliability import CheckpointStore, ResilientEngine
from repro.runtime.sharding import ShardedASketch
from repro.streams.uniform import uniform_stream
from repro.streams.zipf import zipf_stream

from perfbench.layers import (
    PassSpans,
    assemble,
    core_metrics,
    driver_metrics,
    overhead_share,
    query_metrics,
    state_metrics,
    with_units,
)
from perfbench.hostspeed import REFERENCE_S, SpeedProbe
from perfbench.tracing import Instrumentation, SpanRecorder

#: Chunk-latency percentiles the tail metric may report, and for each
#: the number of chunks that must lie beyond it (at least ten).  The
#: tail is taken per pass and reported as the median over passes, so a
#: burst of scheduler stalls that owns one pass's tail cannot own the
#: run's.  Pass sizes put the tail where each workload's slow chunks
#: are: p99 of 1,000 chunks on ``flat-checkpointed`` sits inside its 15
#: checkpointing chunks, and p95 of 200 chunks on ``parallel-2w`` inside
#: its ring stalls.
TAIL_LADDER = ((99.0, 1_000), (95.0, 200), (90.0, 100), (50.0, 20))

#: ``hh_over_error`` averages over this many of the most frequent true
#: keys *of each partition*: the whole stream for one ASketch, each
#: shard's keys for the fleet.  Four 32-slot shard filters hold the
#: global top 100 almost exactly, which would leave the fleet's figure a
#: near-zero count decided by two or three stray keys per seed.
HEAVY_HITTERS = 100

#: A pass probes the host's speed between chunks this often (see
#: :mod:`perfbench.hostspeed`); the ~2 ms probe adds about 4% to a pass.
PROBE_INTERVAL_S = 0.05

#: After every pass, ``query_batch`` samples are timed until they add up
#: to this share of the pass's wall time.
QUERY_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """One named input and the driver that ingests it."""

    name: str
    #: Zipf exponent of the key stream; 0 draws keys uniformly.
    skew: float
    chunk_items: int
    #: Chunks in one pass (the seed's whole stream).
    pass_chunks: int
    #: ``"engine"``, ``"resilient"`` or ``"parallel"``.
    driver: str
    #: Constructions timed after each pass; ``setup_s`` is the median
    #: over the run.
    setup_repeats: int
    domain: int = 1_000_000
    query_sample: int = 100_000
    #: At least this many set-up and query samples per run.
    min_samples: int = 5

    @property
    def items(self) -> int:
        return self.chunk_items * self.pass_chunks

    def tiny(self) -> "Workload":
        """A seconds-long variant for the benchmark's own tests."""
        return replace(
            self,
            pass_chunks=max(4, self.pass_chunks // 50),
            chunk_items=max(500, self.chunk_items // 10),
            setup_repeats=min(self.setup_repeats, 3),
            domain=20_000,
            query_sample=2_000,
            min_samples=2,
        )


#: Why each workload exists is stated beside its name in BENCHMARK.json:
#: ``skewed-ingest`` and ``flat-checkpointed`` load the same layers in
#: opposite proportions, and ``parallel-2w`` is the only path through the
#: fleet and the sharding layer.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="skewed-ingest",
            skew=1.5,
            chunk_items=10_000,
            pass_chunks=200,
            driver="engine",
            setup_repeats=51,
        ),
        Workload(
            name="flat-checkpointed",
            skew=0.0,
            chunk_items=2_000,
            pass_chunks=1_000,
            driver="resilient",
            setup_repeats=51,
        ),
        Workload(
            name="parallel-2w",
            skew=1.1,
            chunk_items=10_000,
            pass_chunks=200,
            driver="parallel",
            setup_repeats=1,
        ),
    )
}

#: Synopsis layouts, fixed per driver.
ASKETCH_BYTES = 128 * 1024
FILTER_ITEMS = 32
CHECKPOINT_EVERY = 64
FLEET = {"workers": 2, "shards": 4, "total_bytes": 32 * 1024}


# -- inputs --------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated from the seed, plus exact answers."""

    chunks: list[np.ndarray]
    #: Distinct keys of the stream and their exact counts.
    distinct: np.ndarray
    counts: np.ndarray
    #: Positions (into ``distinct``) of each partition's most frequent
    #: true keys.
    heavy: np.ndarray
    #: Frequency-weighted query keys drawn from the stream itself.
    query_keys: np.ndarray


def make_inputs(workload: Workload, seed: int) -> Inputs:
    n = workload.items
    if workload.skew > 0:
        stream = zipf_stream(n, workload.domain, workload.skew, seed=seed)
    else:
        stream = uniform_stream(n, workload.domain, seed=seed)
    keys = stream.keys
    size = workload.chunk_items
    chunks = [keys[i : i + size] for i in range(0, n, size)]
    distinct, counts = np.unique(keys, return_counts=True)
    if workload.driver == "parallel":
        owners = build_group().owners_of(distinct)
    else:
        owners = np.zeros(distinct.shape[0], dtype=np.int64)
    # Most frequent first; ties broken by key so the set is deterministic.
    order = np.lexsort((distinct, -counts))
    heavy = np.concatenate([
        order[owners[order] == part][:HEAVY_HITTERS]
        for part in np.unique(owners)
    ])
    rng = np.random.default_rng([seed, 1])
    query_keys = keys[rng.integers(0, n, size=workload.query_sample)]
    return Inputs(chunks, distinct, counts, heavy, query_keys)


# -- drivers -------------------------------------------------------------------


class ChunkFeed:
    """The closed-loop generator: times each chunk from hand-over until
    the driver asks for the next one.

    With a recorder, each of those intervals is also a ``chunk`` span,
    so layer calls the driver makes for that chunk nest under it.

    With a :class:`SpeedProbe`, the feed probes the host before the
    first chunk, between chunks once ``PROBE_INTERVAL_S`` has passed
    since the last probe, and after the last chunk.  The probes split
    the pass into segments; :meth:`scaled` rescales each segment, and
    the chunks in it, by the probes at its two ends.
    """

    def __init__(
        self,
        chunks: list[np.ndarray],
        recorder: SpanRecorder | None = None,
        probe: SpeedProbe | None = None,
    ) -> None:
        self.chunks = chunks
        self.recorder = recorder
        self.probe = probe
        self.latencies: list[float] = []
        #: Per chunk, the index of the probe that opened its segment.
        self.segments: list[int] = []
        #: (start, end, duration) of every probe, in order.
        self.probes: list[tuple[float, float, float]] = []
        self.exhausted_at = 0.0

    def _probe(self) -> None:
        start = time.perf_counter()
        duration = self.probe()
        self.probes.append((start, time.perf_counter(), duration))

    def __iter__(self):
        clock = time.perf_counter
        latencies = self.latencies
        recorder = self.recorder
        probing = self.probe is not None
        if probing:
            self._probe()
        for chunk in self.chunks:
            start = clock()
            if recorder is not None:
                span = recorder.open("chunk", start)
            yield chunk
            if recorder is not None:
                recorder.close(span)
            end = clock()
            latencies.append(end - start)
            if probing:
                self.segments.append(len(self.probes) - 1)
                if end - self.probes[-1][1] >= PROBE_INTERVAL_S:
                    self._probe()
        if probing:
            self._probe()
        self.exhausted_at = clock()

    def probe_s(self) -> float:
        """Time spent probing, to leave out of the pass's wall time."""
        return sum(end - start for start, end, _ in self.probes)

    def scaled(self, start: float, end: float) -> tuple[float, list[float]]:
        """(wall time, chunk latencies) of a pass that ran from ``start``
        to ``end``, at the probe's reference speed.

        Time before the first probe and after the last takes that
        probe's scale alone; every other segment takes the mean of its
        two probes.
        """
        probes = self.probes
        speeds = [duration for _, _, duration in probes]
        scale = SpeedProbe.scale
        wall = scale(probes[0][0] - start, speeds[0], speeds[0])
        wall += scale(end - probes[-1][1], speeds[-1], speeds[-1])
        for k in range(len(probes) - 1):
            wall += scale(probes[k + 1][0] - probes[k][1],
                          speeds[k], speeds[k + 1])
        latencies = [
            scale(latency, speeds[k], speeds[k + 1])
            for latency, k in zip(self.latencies, self.segments)
        ]
        return wall, latencies


class Scratch:
    """Fresh, empty directories under the run's output directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._count = 0

    def fresh(self) -> Path:
        self._count += 1
        path = self.root / f"store-{self._count:05d}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def build_asketch() -> ASketch:
    return ASketch(total_bytes=ASKETCH_BYTES, filter_items=FILTER_ITEMS)


def build_fleet() -> ParallelIngestRuntime:
    return ParallelIngestRuntime(
        FLEET["workers"], shards=FLEET["shards"],
        total_bytes=FLEET["total_bytes"],
    )


def build_driver(
    workload: Workload, store_dir: Path | None
) -> tuple[Any, Any]:
    """(driver, synopsis-or-None) exactly as a user would construct them.

    ``store_dir`` is an existing, empty checkpoint directory for the
    ``resilient`` driver.
    """
    if workload.driver == "engine":
        synopsis = build_asketch()
        return StreamEngine(synopsis, batched=True), synopsis
    if workload.driver == "resilient":
        synopsis = build_asketch()
        engine = ResilientEngine(
            synopsis,
            checkpoint_dir=store_dir,
            checkpoint_every=CHECKPOINT_EVERY,
            batched=True,
        )
        return engine, synopsis
    return build_fleet(), None


def measure_setup(
    workload: Workload,
    scratch: Scratch,
    repeats: int,
    probe: SpeedProbe | None = None,
) -> tuple[list[float], list[float]]:
    """(raw, scaled) set-up times: what a user pays before the first item
    is ingested.

    Single-process drivers: building the synopsis plus its engine (and
    checkpoint store).  The fleet: one ``run`` over a single-item chunk,
    i.e. spawn, worker boot and drain.  With a probe, the batch is
    bracketed by two probes and every sample scaled by them; without
    one, scaled equals raw.

    The checkpoint directory is created before the clock starts, so the
    store opens an existing, empty directory: creating one on the
    checkout's filesystem costs more than the whole construction and
    varies with that filesystem's state.  Construction writes nothing,
    so every sample of a batch can share the directory.
    """
    clock = time.perf_counter
    samples = []
    store_dir = scratch.fresh() if workload.driver == "resilient" else None
    before = probe() if probe is not None and repeats > 0 else None
    for _ in range(repeats):
        if workload.driver == "parallel":
            runtime = build_fleet()
            start = clock()
            runtime.run([np.zeros(1, dtype=np.int64)])
            samples.append(clock() - start)
        else:
            start = clock()
            build_driver(workload, store_dir)
            samples.append(clock() - start)
    if before is None:
        return samples, list(samples)
    after = probe()
    return samples, [SpeedProbe.scale(s, before, after) for s in samples]


@dataclass
class Pass:
    """One full ingest of the seed's stream.

    Times leave out the probes; the ``scaled_`` figures are at the
    probe's reference speed and equal the raw ones when no probe ran.
    """

    wall_s: float
    latencies: list[float]
    scaled_wall_s: float
    scaled_latencies: list[float]
    #: Generator exhaustion to the driver returning.
    drain_s: float
    driver: Any
    #: The queryable result (ASketch, or the fleet's ShardSupervisor).
    synopsis: Any
    store_dir: Path | None = None
    recorder: SpanRecorder | None = None


def run_pass(
    workload: Workload,
    inputs: Inputs,
    scratch: Scratch,
    recorder: SpanRecorder | None = None,
    probe: SpeedProbe | None = None,
) -> Pass:
    store_dir = scratch.fresh() if workload.driver == "resilient" else None
    driver, synopsis = build_driver(workload, store_dir)
    feed = ChunkFeed(inputs.chunks, recorder, probe)
    clock = time.perf_counter
    start = clock()
    driver.run(feed)
    end = clock()
    if synopsis is None:
        synopsis = driver.supervisor
    store = driver.store.directory if workload.driver == "resilient" else None
    wall = end - start - feed.probe_s()
    if probe is not None:
        scaled_wall, scaled_latencies = feed.scaled(start, end)
    else:
        scaled_wall, scaled_latencies = wall, feed.latencies
    return Pass(
        wall_s=wall,
        latencies=feed.latencies,
        scaled_wall_s=scaled_wall,
        scaled_latencies=scaled_latencies,
        drain_s=end - feed.exhausted_at,
        driver=driver,
        synopsis=synopsis,
        store_dir=store,
        recorder=recorder,
    )


def build_group() -> ShardedASketch:
    """The fleet's shard layout, built in this process."""
    return ShardedASketch(FLEET["shards"], total_bytes=FLEET["total_bytes"])


def reference_group(inputs: Inputs) -> tuple[ShardedASketch, float]:
    """The in-process equivalent of the fleet, and its ingest wall time."""
    group = build_group()
    engine = StreamEngine(group, batched=True)
    start = time.perf_counter()
    engine.run(inputs.chunks)
    return group, time.perf_counter() - start


# -- correctness gate ------------------------------------------------------------


@dataclass
class Gate:
    """Correctness verdict of one run, counted against chunks attempted."""

    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        if not ok:
            self.failed += count
            self.violations.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations


def gate_pass(
    workload: Workload,
    inputs: Inputs,
    result: Pass,
    gate: Gate,
    reference: ShardedASketch | None,
) -> np.ndarray:
    """Check the last pass's result beyond the ``total_mass`` check every
    pass gets; returns its estimates over every distinct key (the error
    metrics are computed from them)."""
    synopsis = result.synopsis
    if workload.driver == "resilient":
        engine = result.driver
        gate.check(engine.dead_letters.quarantined == 0,
                   "dead letters in ResilientEngine",
                   engine.dead_letters.quarantined)
        gate.check(engine.health()["status"] == "ok",
                   "ResilientEngine health not ok")
        loaded = CheckpointStore(result.store_dir).load_latest()
        gate.check(
            loaded is not None and loaded[0].state().equals(synopsis.state()),
            "latest checkpoint does not restore the in-memory synopsis",
        )
    if workload.driver == "parallel":
        runtime = result.driver
        gate.check(runtime.dead_letters.quarantined == 0,
                   "dead letters in the fleet",
                   runtime.dead_letters.quarantined)
        gate.check(runtime.health()["status"] == "ok",
                   f"fleet health {runtime.health()['status']!r}")
        gate.check(
            reference is not None
            and synopsis.group.state().equals(reference.state()),
            "merged fleet state differs from the in-process ShardedASketch",
        )
    estimates = np.asarray(synopsis.query_batch(inputs.distinct),
                           dtype=np.int64)
    under = int(np.count_nonzero(estimates < inputs.counts))
    gate.check(under == 0, f"{under} estimates below the exact count", under)
    return estimates


# -- run -----------------------------------------------------------------------


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile that has at
    least ten chunks beyond it."""
    n = len(latencies)
    for percentile, needed in TAIL_LADDER:
        if n >= needed:
            return percentile, float(np.percentile(latencies, percentile))
    return 50.0, float(np.median(latencies))


def reset_peak_rss() -> None:
    """Lower this process's RSS high-water mark to its current RSS, so
    the peak read later is set by what runs after this call and not by
    generating the inputs and their exact answers."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:  # pragma: no cover - not Linux: the peak stays as is
        pass


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process since :func:`reset_peak_rss`, plus
    ``workers`` times the largest reaped child's peak (children run
    concurrently, one per worker)."""
    try:
        status = Path("/proc/self/status").read_text()
        own_kb = next(int(line.split()[1]) for line in status.splitlines()
                      if line.startswith("VmHWM:"))
    except (OSError, StopIteration):  # pragma: no cover - not Linux
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + workers * child_kb) / 1024.0


def time_query(
    synopsis: Any, keys: np.ndarray, probe: SpeedProbe | None = None
) -> tuple[float, float]:
    """(raw, scaled) seconds of one ``query_batch``; scaled equals raw
    without a probe."""
    if probe is not None:
        return probe.timed(lambda: synopsis.query_batch(keys))
    start = time.perf_counter()
    synopsis.query_batch(keys)
    raw = time.perf_counter() - start
    return raw, raw


@dataclass
class RunResult:
    gate: Gate
    metrics: dict[str, tuple[float, str]]
    #: Figures printed beside the metrics (tail percentile, pass counts).
    details: dict[str, Any]
    #: Every traced recorder, labelled, for the span dump.
    recorders: list[tuple[str, SpanRecorder]]


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
) -> RunResult:
    """Run one workload for ``seconds`` of ingest passes and gate it.

    Untraced: every end-to-end metric.  Traced: untraced and traced
    passes alternate (so the tracing overhead compares passes made under
    the same conditions) and the result carries every per-layer metric.
    """
    scratch = Scratch(out_dir / f"stores-{workload.name}")
    scratch.clear()
    inputs = make_inputs(workload, seed)
    gate = Gate()
    clock = time.perf_counter
    try:
        reference = sequential_s = None
        if workload.driver == "parallel":
            reference, sequential_s = reference_group(inputs)
        # The inputs, their exact answers and the reference are the
        # benchmark's own memory; the peak counts only the program's
        # ingest and query work on top of them.
        reset_peak_rss()
        # End-to-end timings are scaled to the probe's reference speed,
        # except the fleet's set-up and passes.  Its parent shares the
        # CPUs with its own workers, so a probe between its chunks would
        # time the program's own load; spawn, boot and the ring's 0.25 s
        # put timeouts are not set by this CPU's speed either.  Only its
        # queries, made with no worker alive, are scaled.  A traced run
        # reports per-layer figures only and does not probe.
        probe = None if trace else SpeedProbe()
        pass_probe = None if workload.driver == "parallel" else probe
        passes: list[Pass] = []
        traced: list[Pass] = []
        setup: list[tuple[float, float]] = []
        queries: list[tuple[float, float]] = []
        deadline = clock() + seconds
        while not passes or (trace and not traced) or clock() < deadline:
            gate.attempted += workload.pass_chunks
            try:
                if trace and len(traced) < len(passes):
                    recorder = SpanRecorder()
                    with Instrumentation(recorder):
                        result = run_pass(workload, inputs, scratch, recorder)
                else:
                    result = run_pass(workload, inputs, scratch,
                                      probe=pass_probe)
            except Exception as error:
                # A raised chunk fails the run; figures from the passes
                # that completed are still reported.
                gate.check(False, f"pass raised {type(error).__name__}: "
                           f"{error}", workload.pass_chunks)
                if not passes:
                    raise
                break
            mass = int(result.synopsis.total_mass)
            gate.check(mass == workload.items,
                       f"total_mass {mass} != {workload.items} items")
            if result.recorder is not None:
                traced.append(result)
                continue
            if passes:
                # Only the last untraced result is kept for the full gate,
                # so the peak RSS does not grow with the number of passes
                # the machine's speed allows.
                passes[-1].driver = passes[-1].synopsis = None
            passes.append(result)
            # Set-up and query samples are taken between passes, so they
            # spread over the whole run instead of one moment of it.
            setup += zip(*measure_setup(workload, scratch,
                                        workload.setup_repeats, pass_probe))
            spent = 0.0
            while not spent or spent < QUERY_SHARE * result.wall_s:
                queries.append(time_query(result.synopsis, inputs.query_keys,
                                          probe))
                spent += queries[-1][0]
        last = passes[-1]
        setup += zip(*measure_setup(
            workload, scratch, workload.min_samples - len(setup), pass_probe
        ))
        while len(queries) < workload.min_samples:
            queries.append(time_query(last.synopsis, inputs.query_keys, probe))
        # Read before the gate, whose full-domain query is the benchmark's.
        workers = FLEET["workers"] if workload.driver == "parallel" else 0
        rss = peak_rss_mb(workers)
        estimates = gate_pass(workload, inputs, last, gate, reference)
        layers: list[dict[str, float]] = []
        recorders: list[tuple[str, SpanRecorder]] = []
        # With no completed traced pass (it raised; the gate says so)
        # every per-layer metric reports 0.
        if trace and traced:
            layers, recorders = _layer_parts(
                workload, inputs, passes, traced, reference, sequential_s,
                statistics.median(raw for raw, _ in setup),
            )
    finally:
        scratch.clear()

    latencies = [lat for p in passes for lat in p.latencies]
    tail_pct = percentile_tail(passes[0].latencies)[0]
    details = {
        "passes": len(passes),
        "traced_passes": len(traced),
        "chunks_timed": len(latencies),
        "chunk_tail_percentile": tail_pct,
        "chunks_per_pass": workload.pass_chunks,
        "chunks_beyond_tail_per_pass": round(
            workload.pass_chunks * (100.0 - tail_pct) / 100.0),
        "setup_samples": len(setup),
        "distinct_keys": int(inputs.distinct.shape[0]),
    }
    if trace:
        return RunResult(gate, assemble(layers), details, recorders)
    details["unscaled"] = timing_metrics(workload, passes, setup, queries,
                                         scaled=False)
    details["host_speed_p50"] = statistics.median(
        REFERENCE_S / duration for duration in probe.samples)
    over = estimates - inputs.counts
    metrics = {
        **timing_metrics(workload, passes, setup, queries, scaled=True),
        "mean_over_error": float(over.mean()),
        "hh_over_error": float(over[inputs.heavy].mean()),
        "peak_rss_mb": rss,
    }
    return RunResult(gate, with_units(metrics, "end_to_end"), details, [])


def timing_metrics(
    workload: Workload,
    passes: list[Pass],
    setup: list[tuple[float, float]],
    queries: list[tuple[float, float]],
    scaled: bool,
) -> dict[str, float]:
    """The five timing metrics, from the scaled or the raw figures.

    Ingest is total work over total time.  The median chunk latency is
    a mean of per-pass medians and the tail a median of per-pass tails,
    so no single pass sets either.  Set-up and query take the median
    sample.
    """
    pick = 1 if scaled else 0
    walls = [p.scaled_wall_s if scaled else p.wall_s for p in passes]
    per_pass = [p.scaled_latencies if scaled else p.latencies for p in passes]
    return {
        "setup_s": statistics.median(sample[pick] for sample in setup),
        "ingest_items_per_s": workload.items * len(passes) / sum(walls),
        "chunk_p50_ms": 1e3 * statistics.fmean(
            statistics.median(latencies) for latencies in per_pass),
        "chunk_tail_ms": 1e3 * statistics.median(
            percentile_tail(latencies)[1] for latencies in per_pass),
        "query_items_per_s": workload.query_sample / statistics.median(
            sample[pick] for sample in queries),
    }


def _layer_parts(
    workload: Workload,
    inputs: Inputs,
    passes: list[Pass],
    traced: list[Pass],
    reference: ShardedASketch | None,
    sequential_s: float | None,
    setup_s: float,
) -> tuple[list[dict[str, float]], list[tuple[str, SpanRecorder]]]:
    """Per-layer figures from the traced passes (see :mod:`layers`), plus
    traced query batches and ``state()`` calls made after them."""
    spans = [PassSpans(p.recorder, p.wall_s) for p in traced]
    recorders = [(f"pass{i}", p.recorder) for i, p in enumerate(traced)]
    walls = [p.wall_s for p in passes]
    parts = [
        driver_metrics(spans),
        {"trace.overhead_share": overhead_share(
            walls, [p.wall_s for p in traced])},
    ]
    if workload.driver == "parallel":
        # Workers are out of the wrappers' reach: the core layers are
        # traced on the in-process reference, which makes the same calls.
        core_recorder = SpanRecorder()
        with Instrumentation(core_recorder):
            core_group, core_s = reference_group(inputs)
        parts.append(core_metrics([PassSpans(core_recorder, core_s)],
                                  core_group))
        recorders.append(("reference", core_recorder))
        runtime = traced[-1].driver
        shard_items = runtime.shard_item_counts()
        wall = sum(walls) / len(walls)
        sequential = workload.items / sequential_s
        parts.append({
            "sharding.shard_skew": float(shard_items.max() / shard_items.mean()),
            "parallel.drain_s": statistics.median(p.drain_s for p in passes),
            "parallel.steady_items_per_s": workload.items / (wall - setup_s),
            "parallel.sequential_items_per_s": sequential,
            "parallel.speedup_vs_sequential": workload.items / wall / sequential,
        })
        state_target = reference
    else:
        parts.append(core_metrics(spans, traced[-1].synopsis))
        state_target = traced[-1].synopsis
    state_recorder = SpanRecorder()
    query_recorder = SpanRecorder()
    with Instrumentation(state_recorder):
        for _ in range(workload.min_samples):
            state_target.state()
    with Instrumentation(query_recorder):
        for _ in range(workload.min_samples):
            time_query(passes[-1].synopsis, inputs.query_keys)
    parts.append(state_metrics(state_recorder, state_target, spans))
    parts.append(query_metrics(query_recorder, workload.min_samples))
    recorders += [("state", state_recorder), ("query", query_recorder)]
    return parts, recorders
