"""The ingest loop, with periodic consumers over a synopsis.

:class:`StreamEngine` is the repository's one per-chunk ingest loop —
Algorithm 1 pushed over a chunked source.  It is synopsis-agnostic:
anything with ``process_stream`` works (ASketch, plain sketches, Space
Saving, a sharded group).  Synopses that also expose a vectorised
``process_batch`` (ASketch, ShardedASketch) are driven through it by
default — each chunk becomes one batched ingest call instead of a
per-item Python loop.  Consumers are callbacks fired every ``period``
ingested tuples — the "continuous query" pattern of the paper's
application scenarios.

The other drivers are this loop with their own source layers, sink,
quarantine and :class:`Checkpointing` step:
:class:`~repro.runtime.reliability.ResilientEngine`, the fleet parent
of :mod:`repro.runtime.parallel` (sink: the chunk router) and each
fleet worker (source: its ring; sink: its shard group).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol

import numpy as np

from repro.core.staged import key_dtype_problem
from repro.errors import ConfigurationError, PoisonChunkError
from repro.obs.registry import current_registry
from repro.obs.trace import current_tracer, trace_span


def coerce_chunk(
    chunk,
    chunk_index: int,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Validate one ingest chunk and return it as a 1-D ``int64`` array.

    The synopses model integer-keyed turnstile streams, so anything a
    lossy ``np.asarray(chunk, dtype=np.int64)`` would silently mangle is
    rejected as poison instead: whatever
    :func:`~repro.core.staged.key_dtype_problem` refuses (float keys,
    object/string dtypes, boolean payloads, uint64 keys above
    ``INT64_MAX``) and non-1-D shapes.  When per-key ``counts``
    accompany the chunk they must be integral and non-negative —
    negative counts belong to the strict-turnstile *deletion* API, not
    bulk ingest.

    Raises :class:`~repro.errors.PoisonChunkError` carrying
    ``chunk_index`` so callers can quarantine the exact offender.
    """
    array = np.asarray(chunk)
    problem = key_dtype_problem(array)
    if problem is not None:
        raise PoisonChunkError(problem, chunk_index=chunk_index)
    if array.ndim != 1:
        raise PoisonChunkError(
            f"expected a 1-D key array, got shape {array.shape}",
            chunk_index=chunk_index,
        )
    if counts is not None:
        counts = np.asarray(counts)
        if counts.dtype == object or not np.issubdtype(counts.dtype, np.integer):
            raise PoisonChunkError(
                f"counts dtype {counts.dtype} is not an integer type",
                chunk_index=chunk_index,
            )
        if counts.ndim != 1 or counts.shape[0] != array.shape[0]:
            raise PoisonChunkError(
                f"counts shape {counts.shape} does not match "
                f"keys shape {array.shape}",
                chunk_index=chunk_index,
            )
        if (counts < 0).any():
            raise PoisonChunkError(
                "negative counts outside the strict-turnstile model",
                chunk_index=chunk_index,
            )
    return np.ascontiguousarray(array, dtype=np.int64)


class SupportsIngest(Protocol):
    """Anything the engine can drive."""

    def process_stream(self, keys: np.ndarray) -> None: ...


class SupportsBatchIngest(Protocol):
    """A synopsis with the vectorised chunk path (ASketch and friends)."""

    def process_batch(
        self, keys: np.ndarray, counts: np.ndarray | None = None
    ) -> None: ...


@dataclass
class EngineStats:
    """Running ingestion statistics.

    ``wall_seconds`` clocks synopsis ingest calls only;
    ``consumer_seconds`` separately clocks time spent inside consumer
    callbacks, so slow consumers no longer hide inside an unmetered gap.
    """

    tuples_ingested: int = 0
    chunks_ingested: int = 0
    wall_seconds: float = 0.0
    consumer_seconds: float = 0.0
    consumer_firings: int = 0

    @property
    def wall_throughput_items_per_ms(self) -> float:
        """Ingest throughput in items/ms over **ingest-only** wall time.

        Consumer callback time (``consumer_seconds``) is excluded — this
        measures how fast the synopsis absorbs tuples, not how fast the
        whole pipeline (ingest + continuous queries) turns around.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.tuples_ingested / self.wall_seconds / 1000.0


@dataclass
class _Consumer:
    name: str
    period: int
    callback: Callable[[int], None]
    next_due: int


@dataclass
class Checkpointing:
    """The checkpoint step: every ``every`` handled chunks (``None``:
    never), plus once at end of stream when anything was handled since
    the last checkpoint.  ``save(position)`` is the driver's own
    checkpoint, given the count of source chunks handled so far.
    """

    every: int | None
    save: Callable[[int], None]
    #: Chunks handled since the last checkpoint.
    lag: int = 0

    def chunk_handled(self, position: int) -> None:
        """Count one handled chunk; checkpoint when the cadence is due."""
        self.lag += 1
        if self.every is not None and self.lag >= self.every:
            self.flush(position)

    def flush(self, position: int) -> None:
        """Checkpoint now unless nothing was handled since the last one."""
        if self.lag:
            self.save(position)
            self.lag = 0


class StreamEngine:
    """Drive a synopsis from a chunked source with periodic consumers.

    Parameters
    ----------
    synopsis:
        The summary to feed (ASketch, a sketch, ShardedASketch, ...).
    batched:
        Ingest mode.  ``None`` (default) uses the synopsis's vectorised
        ``process_batch`` when it has one and falls back to
        ``process_stream`` otherwise; ``True`` requires ``process_batch``
        (raising :class:`ConfigurationError` if absent); ``False`` forces
        the scalar per-item path — useful when per-item exchange timing
        must match a scalar reference run exactly (the batched path
        reorders exchanges at chunk granularity, see
        :meth:`repro.core.asketch.ASketch.process_batch`).
    """

    def __init__(
        self,
        synopsis: SupportsIngest | SupportsBatchIngest,
        batched: bool | None = None,
    ) -> None:
        self.synopsis = synopsis
        process_batch = getattr(synopsis, "process_batch", None)
        if batched and process_batch is None:
            raise ConfigurationError(
                f"{type(synopsis).__name__} has no process_batch; "
                "use batched=False or a batch-capable synopsis"
            )
        self.batched = (
            process_batch is not None if batched is None else bool(batched)
        )
        self._ingest = (
            process_batch
            if self.batched
            else getattr(synopsis, "process_stream")
        )
        self.stats = EngineStats()
        self._consumers: list[_Consumer] = []
        #: Source chunks handled so far, ingested or quarantined: the
        #: position poison is reported at and checkpoints are keyed to.
        self.position = 0
        #: Set by the drivers built on this loop:
        #: ``quarantine(position, payload, reason)`` takes a chunk that
        #: fails validation (``None``: raise
        #: :class:`~repro.errors.PoisonChunkError`), and the checkpoint
        #: step runs after every handled chunk.
        self.quarantine: Callable[[int, Any, str], None] | None = None
        self.checkpointing: Checkpointing | None = None

    def every(
        self, period: int, callback: Callable[[int], None], name: str = ""
    ) -> None:
        """Register ``callback(tuples_so_far)`` to fire every ``period``
        ingested tuples (aligned to chunk boundaries).

        Firings sit at absolute stream positions: the first is due at
        the first multiple of ``period`` past the tuples already
        ingested, so an engine restored to a checkpoint does not repeat
        firings delivered before it.
        """
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self._consumers.append(
            _Consumer(
                name=name or f"consumer-{len(self._consumers)}",
                period=period,
                callback=callback,
                next_due=(self.stats.tuples_ingested // period + 1) * period,
            )
        )

    def run(self, chunks: Iterable[Any]) -> EngineStats:
        """Ingest every chunk, firing due consumers between chunks.

        Each chunk is validated through :func:`coerce_chunk` before it
        reaches the synopsis; malformed payloads (float/object dtypes,
        NaN keys, wrong shape) raise
        :class:`~repro.errors.PoisonChunkError` carrying the offending
        chunk's position instead of being silently truncated to
        ``int64`` — or go to :attr:`quarantine` when one is set.  After
        every handled chunk, and once more at end of stream, the
        :attr:`checkpointing` step runs when one is set.

        With a metrics registry installed (:mod:`repro.obs`), every
        chunk records engine-level counters (tuples, chunks, per-chunk
        latency, running items/s) and, with a trace sink installed, an
        ``ingest`` span; the synopsis state is unaffected either way.
        """
        registry = current_registry()
        traced = current_tracer() is not None
        for payload in chunks:
            position = self.position
            try:
                chunk = coerce_chunk(payload, position)
            except PoisonChunkError as exc:
                if self.quarantine is None:
                    raise
                self.quarantine(position, payload, exc.reason)
            else:
                self._ingest_chunk(chunk, position, registry, traced)
            self.position = position + 1
            if self.checkpointing is not None:
                self.checkpointing.chunk_handled(self.position)
        if self.checkpointing is not None:
            self.checkpointing.flush(self.position)
        return self.stats

    def _ingest_chunk(
        self, chunk: np.ndarray, position: int, registry, traced: bool
    ) -> None:
        n_items = int(chunk.shape[0])
        if traced:
            with trace_span("ingest", chunk_index=position, items=n_items):
                start = time.perf_counter()
                self._ingest(chunk)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            self._ingest(chunk)
            elapsed = time.perf_counter() - start
        self.stats.wall_seconds += elapsed
        self.stats.tuples_ingested += n_items
        self.stats.chunks_ingested += 1
        if registry is not None:
            registry.counter("engine_tuples_total").inc(n_items)
            registry.counter("engine_chunks_total").inc()
            registry.histogram("engine_chunk_seconds").observe(elapsed)
            registry.gauge("engine_items_per_s").set(
                1000.0 * self.stats.wall_throughput_items_per_ms
            )
        self._fire_due_consumers()

    def _fire_due_consumers(self) -> None:
        if not self._consumers:
            return
        position = self.stats.tuples_ingested
        fired_before = self.stats.consumer_firings
        start = time.perf_counter()
        for consumer in self._consumers:
            while consumer.next_due <= position:
                consumer.callback(position)
                consumer.next_due += consumer.period
                self.stats.consumer_firings += 1
        self.stats.consumer_seconds += time.perf_counter() - start
        registry = current_registry()
        if registry is not None:
            fired = self.stats.consumer_firings - fired_before
            if fired:
                registry.counter("engine_consumer_firings_total").inc(fired)


class TopKBoard:
    """A consumer keeping the history of periodic top-k snapshots."""

    def __init__(self, synopsis, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self._synopsis = synopsis
        self.k = k
        #: (tuples_ingested, top-k list) per firing.
        self.snapshots: list[tuple[int, list[tuple[int, int]]]] = []

    def __call__(self, position: int) -> None:
        self.snapshots.append((position, self._synopsis.top_k(self.k)))

    @property
    def latest(self) -> list[tuple[int, int]]:
        """The most recent snapshot (empty before the first firing)."""
        if not self.snapshots:
            return []
        return self.snapshots[-1][1]


class ThresholdAlert:
    """A consumer raising alerts for keys crossing a frequency threshold.

    Each key alerts at most once (the load-balancer / DDoS pattern:
    flag, then hand off to a slow path).
    """

    def __init__(self, synopsis, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"threshold must be >= 1, got {threshold}"
            )
        self._synopsis = synopsis
        self.threshold = threshold
        #: (tuples_ingested, key, estimate) per alert, in firing order.
        self.alerts: list[tuple[int, int, int]] = []
        self._alerted: set[int] = set()

    def __call__(self, position: int) -> None:
        for key, estimate in self._synopsis.heavy_hitters(self.threshold):
            if key not in self._alerted:
                self._alerted.add(key)
                self.alerts.append((position, key, estimate))

    @property
    def alerted_keys(self) -> set[int]:
        """Keys that have alerted so far (each alerts at most once)."""
        return set(self._alerted)
