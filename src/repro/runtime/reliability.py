"""Fault-tolerant ingestion: crash recovery, retries, shard health.

The paper's application scenarios — continuous top-k boards, DDoS
threshold alerts — only hold up in production if the synopsis survives
process crashes and bad input without losing or corrupting counts.
This module puts the reliability layer a long-running collector needs
around :class:`~repro.runtime.engine.StreamEngine`'s ingest loop — as
source layers feeding it, its quarantine and its checkpoint step:

* **Exact crash recovery** — :class:`ResilientEngine` checkpoints the
  synopsis every ``checkpoint_every`` chunks through the PR-2 state
  protocol.  Writes are atomic (tmp + fsync + rename, see
  :func:`repro.persistence.save_synopsis`), generations rotate, and a
  chunk-position journal records how much of the source each checkpoint
  covers.  :meth:`ResilientEngine.resume` restores the newest valid
  generation (falling back a generation when the latest is corrupt) and
  replays exactly the un-checkpointed suffix, so the recovered synopsis
  is *bit-identical* — equal :meth:`state` — to an uninterrupted run.
* **Deterministic fault injection** — :class:`FaultPlan` describes
  crashes at chunk boundaries, transient source errors, poison chunks
  and checkpoint corruption, all seeded, so the
  recovery test suite can prove the guarantees above rather than hope
  for them.  Each worker of the parallel fleet acts out its share of a
  plan through the same layers.
* **Resilient sources** — :class:`RetryingSource` retries transient
  source failures with exponential backoff + deterministic jitter under
  per-error-class :class:`RetryPolicy` budgets, raising
  :class:`~repro.errors.RetryExhaustedError` when a budget is spent.
  Chunks that fail validation (float/NaN keys, object dtypes, negative
  counts) are quarantined in a :class:`DeadLetterQueue` instead of
  being silently coerced into the synopsis.
* **Shard health** — :class:`ShardSupervisor` is a
  :class:`~repro.runtime.sharding.ShardedASketch` plus the per-shard
  ``ok``/``healing`` view a worker fleet drives while it rebuilds a
  shard exactly; :meth:`ResilientEngine.health` surfaces checkpoint
  lag, retry and quarantine counters.  Every recovery path restores
  state exactly or raises a typed error.

Replay semantics: synopsis **state** is exactly-once (the journal pins
the replay point), while consumer callbacks between the last checkpoint
and the crash fire again on replay — at-least-once, the standard
contract for side effects under checkpoint/replay recovery.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing as mp
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn

import numpy as np

from repro.errors import (
    ConfigurationError,
    RecoveryError,
    RetryExhaustedError,
    StreamFormatError,
    TransientSourceError,
)
from repro.obs.registry import current_registry
from repro.obs.trace import trace_span
from repro.persistence import _fsync_directory, load_synopsis, save_synopsis
from repro.runtime.engine import Checkpointing, EngineStats, StreamEngine
from repro.runtime.sharding import ShardedASketch
from repro.synopses.protocol import (
    SynopsisState,
    pack_nested,
    prefix_arrays,
    unpack_nested,
)


class SimulatedCrash(BaseException):
    """An injected process death (``kill -9`` at a chunk boundary).

    Deliberately **not** a :class:`~repro.errors.ReproError` — and not
    even an :class:`Exception` — so no recovery machinery or blanket
    ``except Exception`` can swallow it: a real crash gives the process
    no chance to clean up, and the harness models exactly that.  Only
    the test driving the fault plan catches it.
    """


# -- retrying sources --------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff budget for one class of transient source errors.

    ``delay_for(attempt)`` grows exponentially from ``base_delay`` by
    ``multiplier`` per attempt, capped at ``max_delay``, plus
    multiplicative jitter in ``[0, jitter)`` drawn from the caller's
    seeded RNG — deterministic for a fixed seed, decorrelated across
    retry storms.
    """

    max_retries: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Sleep duration before retry number ``attempt`` (0-based)."""
        backoff = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return backoff * (1.0 + self.jitter * rng.random())


class RetryingSource:
    """Iterator wrapper retrying transient failures with backoff.

    Wraps any chunk iterator whose ``__next__`` may raise a retryable
    error (socket hiccup, NFS stall) and can be called again afterwards
    — the contract of real transport readers.  Plain generators do
    *not* satisfy it (they close on raise); wrap the transport object,
    not a generator over it.

    ``policies`` maps exception types to :class:`RetryPolicy` budgets
    (matched by ``isinstance``, most-derived registration wins);
    :class:`~repro.errors.TransientSourceError` is always retryable
    under ``default_policy``.  Non-retryable exceptions propagate
    untouched.  When a budget is spent the last failure is chained
    beneath :class:`~repro.errors.RetryExhaustedError`.
    """

    def __init__(
        self,
        chunks: Iterable[np.ndarray] | Iterator[np.ndarray],
        *,
        policies: dict[type, RetryPolicy] | None = None,
        default_policy: RetryPolicy | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._iterator = iter(chunks)
        self._policies = dict(policies or {})
        self._default = default_policy or RetryPolicy()
        self._rng = random.Random(seed)
        self._sleep = sleep
        #: Total retry attempts made (across all chunks).
        self.retries = 0
        #: Chunks successfully delivered downstream.
        self.chunks_delivered = 0
        #: Total seconds of backoff requested (sums the sleep arguments).
        self.backoff_seconds = 0.0

    def _policy_for(self, error: Exception) -> RetryPolicy | None:
        best: tuple[int, RetryPolicy] | None = None
        for exc_type, policy in self._policies.items():
            if isinstance(error, exc_type):
                depth = len(type(error).__mro__) - len(exc_type.__mro__)
                if best is None or depth < best[0]:
                    best = (depth, policy)
        if best is not None:
            return best[1]
        if isinstance(error, TransientSourceError):
            return self._default
        return None

    def __iter__(self) -> "RetryingSource":
        """Iterator protocol: the source is its own iterator."""
        return self

    def __next__(self) -> np.ndarray:
        """Fetch the next chunk, retrying transient failures."""
        attempt = 0
        while True:
            try:
                chunk = next(self._iterator)
            except StopIteration:
                raise
            except Exception as error:
                policy = self._policy_for(error)
                if policy is None:
                    raise
                if attempt >= policy.max_retries:
                    raise RetryExhaustedError(
                        f"source failed {attempt + 1} times fetching chunk "
                        f"{self.chunks_delivered}: {error}",
                        chunk_index=self.chunks_delivered,
                        attempts=attempt + 1,
                    ) from error
                delay = policy.delay_for(attempt, self._rng)
                attempt += 1
                self.retries += 1
                self.backoff_seconds += delay
                registry = current_registry()
                if registry is not None:
                    registry.counter(
                        "source_retries_total",
                        error=type(error).__name__,
                    ).inc()
                    registry.counter(
                        "source_backoff_seconds_total"
                    ).inc(delay)
                self._sleep(delay)
            else:
                self.chunks_delivered += 1
                return chunk


# -- dead-letter quarantine --------------------------------------------------


@dataclass
class DeadLetter:
    """One quarantined chunk: where it sat in the source and why."""

    chunk_index: int
    reason: str
    payload: Any


class DeadLetterQueue:
    """Bounded quarantine for poison chunks.

    Holds up to ``capacity`` offending payloads with their source
    positions and validation failures for offline inspection; beyond
    capacity only the drop counter grows (the payloads are discarded,
    never ingested).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._letters: list[DeadLetter] = []
        #: Quarantined chunks dropped because the queue was full.
        self.dropped = 0
        #: Total chunks quarantined (kept + dropped).
        self.quarantined = 0

    def quarantine(self, chunk_index: int, payload: Any, reason: str) -> None:
        """Record one poison chunk (payload kept while capacity allows)."""
        self.quarantined += 1
        dropped = len(self._letters) >= self.capacity
        if dropped:
            self.dropped += 1
        else:
            self._letters.append(DeadLetter(chunk_index, reason, payload))
        registry = current_registry()
        if registry is not None:
            registry.counter("dlq_quarantined_total").inc()
            if dropped:
                registry.counter("dlq_dropped_total").inc()
            registry.gauge("dlq_depth").set(len(self._letters))

    @property
    def letters(self) -> list[DeadLetter]:
        """The retained dead letters, in quarantine order."""
        return list(self._letters)

    def chunk_indices(self) -> list[int]:
        """Source positions of the retained dead letters."""
        return [letter.chunk_index for letter in self._letters]

    def __len__(self) -> int:
        """Number of retained dead letters."""
        return len(self._letters)


# -- deterministic fault injection -------------------------------------------


def corrupt_file(path: str | Path, seed: int = 0, span: int = 64) -> None:
    """Deterministically flip a run of bytes in the middle of a file.

    The fault harness's model of bit rot / torn writes: ``span`` bytes
    starting at a seed-chosen offset are XORed with ``0xFF``, which
    breaks both the journal checksum and the npz container.  Corrupting
    an empty file is a no-op.
    """
    target = Path(path)
    blob = bytearray(target.read_bytes())
    if not blob:
        return
    rng = random.Random(seed)
    span = max(1, min(span, len(blob)))
    start = rng.randrange(0, len(blob) - span + 1)
    for offset in range(start, start + span):
        blob[offset] ^= 0xFF
    target.write_bytes(bytes(blob))


@dataclass
class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    All positions are 0-based source-chunk indices.  The plan is applied
    as two source layers around the ingest loop: :meth:`wrap` turns a
    chunk iterable into a :class:`FaultySource` injecting *source-side*
    faults (transient errors, poison payloads), and
    :meth:`boundary_faults` acts out a crash planned at a chunk
    boundary as each chunk is handed over.  The
    checkpoint step reports each write to :meth:`checkpoint_written`,
    which corrupts the planned one.

    Attributes
    ----------
    seed:
        Drives every random choice (poison variant, corruption offset).
    crash_at_chunk:
        Raise :class:`SimulatedCrash` immediately before ingesting this
        chunk — exactly ``crash_at_chunk`` chunks have been handled.
    transient_errors:
        ``{chunk_index: failures}`` — the source raises
        :class:`~repro.errors.TransientSourceError` that many times
        before successfully yielding the chunk.
    poison_chunks:
        Chunk indices whose payload is replaced with poison (float,
        NaN-bearing, or object-dtype keys, variant chosen by ``seed``).
    corrupt_checkpoint_after:
        After this many checkpoint writes (1-based), corrupt the newest
        snapshot file — exercising the fall-back-one-generation path.

    Cross-process faults, acted out *inside* the worker processes of
    :class:`~repro.runtime.parallel.ParallelIngestRuntime` through the
    per-worker plan :meth:`worker_faults_for` derives; every position
    counts that worker's locally handled chunks:

    worker_crash:
        ``{worker_id: after_chunks}`` — the worker dies hard
        (``os._exit``, modelling ``kill -9``) while holding an
        unprocessed chunk.
    worker_exit:
        ``{worker_id: after_chunks}`` — the worker exits "cleanly" but
        prematurely (``sys.exit``), without sending a final snapshot.
    worker_hang:
        ``{worker_id: after_chunks}`` — the worker stops consuming its
        ring and sleeps forever: alive but stalled, the case parent-side
        stall detection (not liveness polling) must catch.
    worker_poison:
        ``{worker_id: chunk_position}`` — the worker's chunk at that
        position is replaced with a poison payload before validation,
        exercising the in-worker quarantine path.
    worker_transient:
        ``{worker_id: {chunk_position: failures}}`` — the worker's ring
        source raises :class:`~repro.errors.TransientSourceError` that
        many times before surrendering the chunk, exercising the
        in-worker :class:`RetryingSource` path.
    corrupt_snapshot:
        ``{worker_id: snapshot_number}`` — that worker's Nth checkpoint
        snapshot (1-based) is corrupted in flight; the parent must
        detect the digest mismatch, reject the snapshot, and keep the
        retained replay tail that the rejected snapshot would have
        pruned.
    """

    seed: int = 0
    crash_at_chunk: int | None = None
    transient_errors: dict[int, int] = field(default_factory=dict)
    poison_chunks: frozenset[int] | set[int] = field(default_factory=frozenset)
    corrupt_checkpoint_after: int | None = None
    worker_crash: dict[int, int] = field(default_factory=dict)
    worker_exit: dict[int, int] = field(default_factory=dict)
    worker_hang: dict[int, int] = field(default_factory=dict)
    worker_poison: dict[int, int] = field(default_factory=dict)
    worker_transient: dict[int, dict[int, int]] = field(default_factory=dict)
    corrupt_snapshot: dict[int, int] = field(default_factory=dict)

    def worker_faults_for(self, worker: int) -> "FaultPlan":
        """The plan one worker process acts out over its own ring.

        ``worker``'s entries become single-process faults:
        ``transient_errors``, ``poison_chunks``,
        ``corrupt_checkpoint_after`` (its Nth pipe snapshot) and
        ``crash_at_chunk`` (its first planned kill, exit or hang; a tie
        goes to the kill, then the exit).  An exit or hang keeps its
        ``worker_exit``/``worker_hang`` entry for :meth:`act_out_crash`.
        """
        # (position, 0 kill / 1 exit / 2 hang): the earliest stop wins.
        first = sorted(
            (int(planned[worker]), kind)
            for kind, planned in enumerate(
                (self.worker_crash, self.worker_exit, self.worker_hang)
            )
            if worker in planned
        )[:1]
        poison = self.worker_poison
        return FaultPlan(
            seed=self.seed,
            crash_at_chunk=first[0][0] if first else None,
            transient_errors=dict(self.worker_transient.get(worker, {})),
            poison_chunks=frozenset([poison[worker]] if worker in poison else []),
            corrupt_checkpoint_after=self.corrupt_snapshot.get(worker),
            worker_exit={worker: at for at, kind in first if kind == 1},
            worker_hang={worker: at for at, kind in first if kind == 2},
        )

    def wrap(self, chunks: Iterable[np.ndarray]) -> "FaultySource":
        """The source-side view of this plan over a chunk iterable."""
        return FaultySource(chunks, self)

    def boundary_faults(
        self, chunks: Iterable[Any], start: int = 0
    ) -> Iterator[Any]:
        """``chunks`` with ``crash_at_chunk`` acted out just before the
        chunk at that source position is handed over.  ``start`` is the
        first chunk's position: a resumed run starts past its restored
        prefix, whose boundaries were crossed before the crash.
        """
        for position, chunk in enumerate(chunks, start):
            if self.crash_at_chunk == position:
                raise SimulatedCrash(
                    f"injected crash at chunk boundary {position} "
                    f"({position} chunks handled)"
                )
            yield chunk

    def checkpoint_written(self, count: int, corrupt: Callable[[], None]) -> None:
        """Act out ``corrupt_checkpoint_after``: ``corrupt()`` the
        checkpoint just written when it is the planned ``count``-th."""
        if count == self.corrupt_checkpoint_after:
            corrupt()

    def act_out_crash(self) -> NoReturn:
        """End a worker process that caught its plan's
        :class:`SimulatedCrash` the way the plan stops it: a hang stays
        alive but stalled until the parent is gone, an exit runs cleanup
        but sends no final snapshot, a kill (``os._exit``) runs nothing.
        """
        if self.worker_hang:
            while True:  # alive but stalled: the slow/hung case
                time.sleep(0.05)
                parent = mp.parent_process()
                if parent is None or not parent.is_alive():
                    os._exit(0)
        if self.worker_exit:
            sys.exit(3)  # premature "clean" exit, no final snapshot
        os._exit(17)  # injected mid-stream kill -9, no cleanup

    def poison_payload(self, chunk: np.ndarray, chunk_index: int) -> Any:
        """The poison replacing ``chunk``, chosen by ``(seed, index)``."""
        rng = random.Random(self.seed * 1_000_003 + chunk_index)
        variant = rng.randrange(3)
        base = np.asarray(chunk, dtype=np.float64)
        if base.size == 0:
            base = np.zeros(1, dtype=np.float64)
        if variant == 0:  # fractional keys: int64 coercion would truncate
            return base + 0.5
        if variant == 1:  # NaN keys
            poisoned = base.copy()
            poisoned[rng.randrange(poisoned.size)] = np.nan
            return poisoned
        return [int(v) for v in base[:-1]] + ["poison"]  # object dtype


class FaultySource:
    """A chunk iterator acting out a :class:`FaultPlan`'s source faults.

    Transient failures are raised *before* the chunk is surrendered and
    the same chunk is re-offered on the next ``__next__`` call — the
    retry contract :class:`RetryingSource` expects.  Poison chunks are
    substituted at their planned positions.
    """

    def __init__(self, chunks: Iterable[np.ndarray], plan: FaultPlan) -> None:
        self._iterator = iter(chunks)
        self._plan = plan
        self._index = 0
        self._pending: Any = None
        self._has_pending = False
        self._failures_left: dict[int, int] = dict(plan.transient_errors)

    def __iter__(self) -> "FaultySource":
        """Iterator protocol: the source is its own iterator."""
        return self

    def __next__(self) -> Any:
        """Yield the next chunk, injecting planned source faults."""
        if not self._has_pending:
            self._pending = next(self._iterator)
            self._has_pending = True
        index = self._index
        remaining = self._failures_left.get(index, 0)
        if remaining > 0:
            self._failures_left[index] = remaining - 1
            raise TransientSourceError(
                f"injected transient failure fetching chunk {index} "
                f"({remaining - 1} more to come)"
            )
        chunk = self._pending
        self._pending = None
        self._has_pending = False
        self._index += 1
        if index in self._plan.poison_chunks:
            return self._plan.poison_payload(chunk, index)
        return chunk


# -- checkpoint store --------------------------------------------------------


class CheckpointStore:
    """Rotating atomic checkpoints plus a chunk-position journal.

    Layout inside ``directory``::

        gen-00000041.npz   # synopsis snapshot (atomic tmp+fsync+rename)
        journal.jsonl      # one record per checkpoint, append + fsync

    Each journal record pins a snapshot to its stream position::

        {"generation": 41, "snapshot": "gen-00000041.npz",
         "chunk_index": 96, "tuples_ingested": 480000,
         "engine_chunks": 96, "sha256": "..."}

    ``chunk_index`` counts *source* chunks fully handled (ingested or
    quarantined) when the snapshot was taken — the replay point.  The
    write order (snapshot first, then journal line) means a crash
    between the two leaves an orphan snapshot that is simply never
    referenced; a torn journal line is skipped on read.  Only the
    newest ``keep`` snapshots are retained, so recovery can always fall
    back at least one generation when the latest file is corrupt.
    """

    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, directory: str | Path, keep: int = 2) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        #: The generation the next save writes; read from the journal
        #: by the first save, then counted here.
        self._next_generation: int | None = None

    @property
    def journal_path(self) -> Path:
        """Path of the append-only journal file."""
        return self.directory / self.JOURNAL_NAME

    def snapshot_path(self, generation: int) -> Path:
        """Path of one generation's snapshot archive."""
        return self.directory / f"gen-{generation:08d}.npz"

    def journal_records(self) -> list[dict]:
        """All parseable journal records, oldest first.

        Unparseable lines (a torn final append from a crash mid-write)
        are skipped rather than fatal.
        """
        try:
            text = self.journal_path.read_text(encoding="utf-8")
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "generation" in record:
                records.append(record)
        return records

    def save(
        self,
        synopsis: Any,
        *,
        chunk_index: int,
        tuples_ingested: int,
        engine_chunks: int | None = None,
        extra: dict | None = None,
    ) -> dict:
        """Checkpoint a synopsis at a stream position; returns the record.

        The snapshot is written atomically, hashed, journaled, and old
        generations beyond ``keep`` are pruned.  With a metrics
        registry installed, each save records its duration, snapshot
        bytes and journal fsync; with a trace sink installed it is
        wrapped in a ``checkpoint`` span.
        """
        generation = self._next_generation
        if generation is None:
            records = self.journal_records()
            generation = (records[-1]["generation"] + 1) if records else 0
            # Snapshots a crash left unpruned go once, here.
            self._unlink(record["generation"] for record in records[: -self.keep])
        snapshot = self.snapshot_path(generation)
        start = time.perf_counter()
        with trace_span("checkpoint", generation=generation,
                        chunk_index=int(chunk_index)):
            save_synopsis(synopsis, snapshot)
            blob = snapshot.read_bytes()
            digest = hashlib.sha256(blob).hexdigest()
            record = {
                "generation": generation,
                "snapshot": snapshot.name,
                "chunk_index": int(chunk_index),
                "tuples_ingested": int(tuples_ingested),
                "engine_chunks": int(
                    chunk_index if engine_chunks is None else engine_chunks
                ),
                "sha256": digest,
            }
            if extra:
                record["extra"] = extra
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            _fsync_directory(self.directory)
        elapsed = time.perf_counter() - start
        registry = current_registry()
        if registry is not None:
            registry.counter("checkpoints_total").inc()
            registry.counter("checkpoint_bytes_total").inc(len(blob))
            registry.counter("journal_fsyncs_total").inc()
            registry.histogram("checkpoint_seconds").observe(elapsed)
        self._next_generation = generation + 1
        # Generations run consecutively, so at most one snapshot falls
        # out of the newest ``keep`` per save.
        if generation >= self.keep:
            self._unlink([generation - self.keep])
        return record

    def _unlink(self, generations: Iterable[int]) -> None:
        for generation in generations:
            try:
                self.snapshot_path(generation).unlink()
            except OSError:
                pass

    def load_latest(self) -> tuple[Any, dict] | None:
        """Restore the newest valid checkpoint, falling back on corrupt ones.

        Walks the journal newest-first; a generation whose snapshot is
        missing, fails its checksum, or fails to load is skipped and the
        previous generation is tried.  Returns ``(synopsis, record)``,
        or ``None`` when the journal is empty.  Raises
        :class:`~repro.errors.RecoveryError` when checkpoints exist but
        none is recoverable.
        """
        records = self.journal_records()
        if not records:
            return None
        failures: list[str] = []
        for record in reversed(records):
            path = self.directory / record.get("snapshot", "")
            try:
                blob = path.read_bytes()
            except OSError as exc:
                failures.append(f"gen {record['generation']}: {exc}")
                continue
            expected = record.get("sha256")
            if expected and hashlib.sha256(blob).hexdigest() != expected:
                failures.append(
                    f"gen {record['generation']}: checksum mismatch "
                    f"(corrupt snapshot {path.name})"
                )
                continue
            try:
                synopsis = load_synopsis(path)
            except (StreamFormatError, OSError, ValueError, KeyError) as exc:
                failures.append(f"gen {record['generation']}: {exc}")
                continue
            return synopsis, record
        raise RecoveryError(
            f"no recoverable checkpoint in {self.directory}: "
            + "; ".join(failures)
        )


# -- shard supervision -------------------------------------------------------


class ShardSupervisor:
    """A :class:`ShardedASketch` plus its per-shard ``ok``/``healing`` view.

    Ingest, queries, state and merge are exact delegations to
    :attr:`group`.  What the supervisor adds is the shard lifecycle a
    worker fleet drives while it rebuilds a shard: ``ok → healing → ok``
    while a replacement worker is restored from snapshot + replay.  A
    healing shard's data is not lost — it lives in the fleet's retained
    tail — so its routing never changes, only the health view does.
    An exception inside one shard's ingest propagates to the caller.

    Constructible three ways: wrap an existing group
    (``ShardSupervisor(group)``), build the group in place
    (``ShardSupervisor(shards=4, total_bytes=...)``), or restore from a
    checkpoint (:meth:`from_state` — supervisors are first-class
    synopses, registered as kind ``"shard-supervisor"``).
    """

    SYNOPSIS_KIND = "shard-supervisor"

    #: Shard lifecycle states surfaced through :meth:`shard_health`.
    STATUS_OK = "ok"
    STATUS_HEALING = "healing"

    def __init__(
        self, group: ShardedASketch | None = None, **group_params: Any
    ) -> None:
        if group is None:
            if not group_params:
                raise ConfigurationError(
                    "pass a ShardedASketch or its construction parameters"
                )
            group = ShardedASketch(**group_params)
        elif group_params:
            raise ConfigurationError(
                "pass either a group instance or construction parameters, "
                "not both"
            )
        self.group = group
        self._status = [self.STATUS_OK] * len(group)
        self._errors: dict[int, str] = {}

    # -- health view -------------------------------------------------------

    def begin_healing(self, index: int, reason: str) -> None:
        """Mark a shard as healing: its worker is being rebuilt from
        snapshot + replay, and its data is intact meanwhile."""
        self.group._check_shard_index(index)
        self._status[index] = self.STATUS_HEALING
        self._errors[index] = reason
        self._record_transition(index, self.STATUS_HEALING)

    def heal_shard(self, index: int) -> None:
        """Complete a healing cycle: the shard is healthy again (no-op
        unless it is healing)."""
        self.group._check_shard_index(index)
        if self._status[index] != self.STATUS_HEALING:
            return
        self._status[index] = self.STATUS_OK
        self._errors.pop(index, None)
        self._record_transition(index, self.STATUS_OK)

    def _record_transition(self, index: int, to_status: str) -> None:
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "shard_health_transitions_total",
                shard=str(index),
                to=to_status,
            ).inc()
            registry.gauge("shards_healing").set(len(self.healing_shards))

    @property
    def healing_shards(self) -> list[int]:
        """Indices of shards with a recovery (respawn/replay) in flight."""
        return [
            index
            for index, status in enumerate(self._status)
            if status == self.STATUS_HEALING
        ]

    def shard_health(self) -> list[dict]:
        """Per-shard status snapshot (JSON-safe)."""
        return [
            {"shard": index, "status": status, "error": self._errors.get(index)}
            for index, status in enumerate(self._status)
        ]

    def health(self) -> dict:
        """Whole-group snapshot (JSON-safe): ``status`` is ``"healing"``
        while any shard is being rebuilt, else ``"ok"``."""
        healing = self.healing_shards
        return {
            "status": self.STATUS_HEALING if healing else self.STATUS_OK,
            "healing_shards": healing,
            "shards": self.shard_health(),
        }

    # -- the group ---------------------------------------------------------

    def process_batch(
        self, keys: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        """Batch-ingest a chunk into the group."""
        self.group.process_batch(keys, counts)

    def process_stream(self, keys: np.ndarray) -> None:
        """Scalar-path ingest of a chunk into the group."""
        self.group.process_stream(keys)

    def update(self, key: int, amount: int = 1) -> int:
        """Route one weighted update to its owner shard."""
        return self.group.update(key, amount)

    def query(self, key: int) -> int:
        """One-sided point estimate from the owner shard."""
        return self.group.query(key)

    estimate = query

    def query_batch(self, keys: Iterable[int]) -> list[int]:
        """Owner-partitioned point queries for many keys."""
        return self.group.query_batch(keys)

    estimate_batch = query_batch

    def top_k(self, k: int) -> list[tuple[int, int]]:
        """Global top-k via the shard filters."""
        return self.group.top_k(k)

    def heavy_hitters(self, threshold: int) -> list[tuple[int, int]]:
        """Global threshold query via the shard filters."""
        return self.group.heavy_hitters(threshold)

    @property
    def total_mass(self) -> int:
        """Aggregate stream mass across all shards."""
        return int(self.group.total_mass)

    @property
    def size_bytes(self) -> int:
        """Total logical bytes across all shards."""
        return int(self.group.size_bytes)

    def __len__(self) -> int:
        """Number of shards supervised."""
        return len(self.group)

    # -- synopsis protocol -------------------------------------------------

    def state(self) -> SynopsisState:
        """The group's state plus the per-shard statuses."""
        group_state = self.group.state()
        return SynopsisState(
            kind=self.SYNOPSIS_KIND,
            params={},
            arrays=prefix_arrays("group", group_state.arrays),
            extra={
                "group": pack_nested(group_state),
                "status": list(self._status),
                "errors": {str(i): msg for i, msg in self._errors.items()},
            },
        )

    @classmethod
    def from_state(cls, state: SynopsisState) -> "ShardSupervisor":
        """Rebuild a supervisor (group and statuses) from state.

        A state whose shards are all ``ok``/``healing`` loads exactly,
        including one saved by builds that also kept standby sizing in
        ``params``.  A state with a ``"failed"`` shard or any standby
        Count-Min (the removed degraded tier) holds counts no exact
        state can restore, so it raises
        :class:`~repro.errors.StreamFormatError` and
        :meth:`CheckpointStore.load_latest` falls back a generation.
        """
        status = list(state.extra["status"])
        allowed = (cls.STATUS_OK, cls.STATUS_HEALING)
        if state.extra.get("standbys") or any(s not in allowed for s in status):
            raise StreamFormatError(
                "shard-supervisor state holds standby-tier counts "
                f"(statuses {status}); they cannot be restored exactly"
            )
        group = ShardedASketch.from_state(
            unpack_nested(state.extra["group"], state.arrays, "group")
        )
        supervisor = cls(group)
        supervisor._status = status
        supervisor._errors = {
            int(i): msg for i, msg in state.extra["errors"].items()
        }
        return supervisor

    def merge(self, other: "ShardSupervisor") -> None:
        """Shard-wise merge of two supervised groups with equal layout.

        Groups merge through :meth:`ShardedASketch.merge`; a shard
        healing on either side is healing in the result.  ``other`` is
        consumed.
        """
        if not isinstance(other, ShardSupervisor):
            raise ConfigurationError(
                f"cannot merge ShardSupervisor with {type(other).__name__}"
            )
        self.group.merge(other.group)
        for index in other.healing_shards:
            if self._status[index] == self.STATUS_OK:
                self._status[index] = self.STATUS_HEALING
                self._errors[index] = other._errors.get(
                    index, "healing in merged peer"
                )


# -- the resilient engine ----------------------------------------------------


class ResilientEngine:
    """Crash-safe, fault-isolating driver of the :class:`StreamEngine` loop.

    Composes the pieces of this module into one ingestion runtime:

    * the source is wrapped in a :class:`RetryingSource` (transient
      failures retried with backoff, budgets per error class);
    * every chunk is validated before it can touch the synopsis; poison
      chunks land in :attr:`dead_letters` and ingestion continues;
    * with a ``checkpoint_dir``, the synopsis is checkpointed atomically
      every ``checkpoint_every`` chunks (plus once at end of stream) and
      :meth:`resume` restores the newest valid generation and replays
      exactly the un-checkpointed source suffix — the recovered synopsis
      state is identical to an uninterrupted run's;
    * :meth:`health` surfaces the whole picture.

    Consumers registered via :meth:`every` fire at absolute stream
    positions, so a consumer due at position ``p`` fires in the resumed
    run iff it had not already fired before the restored checkpoint
    (callbacks between checkpoint and crash replay — at-least-once).
    """

    def __init__(
        self,
        synopsis: Any = None,
        *,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 64,
        keep_generations: int = 2,
        batched: bool | None = None,
        retry_policies: dict[type, RetryPolicy] | None = None,
        default_retry_policy: RetryPolicy | None = None,
        retry_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        dead_letter_capacity: int = 64,
    ) -> None:
        if synopsis is None and checkpoint_dir is None:
            raise ConfigurationError(
                "provide a synopsis, a checkpoint_dir to resume from, or both"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.synopsis = synopsis
        self.checkpoint_every = int(checkpoint_every)
        self.batched = batched
        self._store = (
            CheckpointStore(checkpoint_dir, keep=keep_generations)
            if checkpoint_dir is not None
            else None
        )
        self._retry_policies = dict(retry_policies or {})
        self._default_retry_policy = default_retry_policy
        self._retry_seed = int(retry_seed)
        self._sleep = sleep
        #: Quarantine of rejected chunks (see :class:`DeadLetterQueue`).
        self.dead_letters = DeadLetterQueue(capacity=dead_letter_capacity)
        self._consumer_specs: list[tuple[int, Callable[[int], None], str]] = []
        self._engine: StreamEngine | None = None
        self._source: RetryingSource | None = None
        self._last_record: dict | None = None
        self._checkpoints_written = 0

    @property
    def store(self) -> CheckpointStore | None:
        """The checkpoint store (None when running checkpoint-free)."""
        return self._store

    @property
    def stats(self) -> EngineStats:
        """Ingestion statistics of the current / most recent drive."""
        return self._engine.stats if self._engine is not None else EngineStats()

    def every(
        self, period: int, callback: Callable[[int], None], name: str = ""
    ) -> None:
        """Register ``callback(tuples_so_far)`` every ``period`` tuples.

        Consumers survive :meth:`resume`: they are re-registered on the
        rebuilt inner engine with their schedule fast-forwarded past the
        restored position.
        """
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self._consumer_specs.append((period, callback, name))

    # -- driving -----------------------------------------------------------

    def run(
        self,
        chunks: Iterable[np.ndarray],
        fault_plan: FaultPlan | None = None,
    ) -> EngineStats:
        """Ingest a chunk source from the beginning (checkpointing as
        configured); ``fault_plan`` injects deterministic faults."""
        return self._drive(chunks, restored=None, fault_plan=fault_plan)

    def resume(
        self,
        chunks: Iterable[np.ndarray],
        fault_plan: FaultPlan | None = None,
    ) -> EngineStats:
        """Recover from the newest valid checkpoint and finish the stream.

        ``chunks`` must re-yield the same source from the beginning; the
        prefix covered by the restored checkpoint is skipped and only
        the un-checkpointed suffix is replayed, leaving the synopsis
        state identical to an uninterrupted run.  With an empty store
        (crash before the first checkpoint) the run starts from scratch,
        which requires a fresh ``synopsis`` to have been provided.
        Raises :class:`~repro.errors.RecoveryError` when checkpoints
        exist but none is recoverable, or when there is neither a
        checkpoint nor a fresh synopsis.
        """
        if self._store is None:
            raise ConfigurationError("resume requires a checkpoint_dir")
        with trace_span("recover", directory=str(self._store.directory)):
            loaded = self._store.load_latest()
        if loaded is None:
            if self.synopsis is None:
                raise RecoveryError(
                    f"nothing to resume: {self._store.directory} has no "
                    "checkpoints and no fresh synopsis was provided"
                )
            return self._drive(chunks, restored=None, fault_plan=fault_plan)
        synopsis, record = loaded
        self.synopsis = synopsis
        self._last_record = record
        start_chunk = int(record["chunk_index"])
        registry = current_registry()
        if registry is not None:
            registry.counter("recoveries_total").inc()
            registry.gauge("recovery_restored_chunk_index").set(start_chunk)
        stats = self._drive(chunks, restored=record, fault_plan=fault_plan)
        if registry is not None:
            # Replay length: source chunks re-ingested past the
            # restored checkpoint to catch back up.
            registry.gauge("recovery_replay_chunks").set(
                self._engine.position - start_chunk
            )
        return stats

    def _drive(
        self,
        chunks: Iterable[np.ndarray],
        restored: dict | None,
        fault_plan: FaultPlan | None,
    ) -> EngineStats:
        """Run the ingest loop behind the source layers: the fault plan,
        then retries, then (past a restored prefix) the plan's
        chunk-boundary faults; poison goes to :attr:`dead_letters`."""
        if self.synopsis is None:
            raise ConfigurationError("no synopsis to drive")
        plan = fault_plan if fault_plan is not None else FaultPlan()
        engine = StreamEngine(self.synopsis, batched=self.batched)
        start = 0
        if restored is not None:
            start = int(restored["chunk_index"])
            engine.position = start
            engine.stats.tuples_ingested = int(restored["tuples_ingested"])
            engine.stats.chunks_ingested = int(
                restored.get("engine_chunks", start)
            )
        # Registered after the restore, so consumers skip the firings
        # delivered before the checkpoint (taken after consumers fire).
        for period, callback, name in self._consumer_specs:
            engine.every(period, callback, name)
        engine.quarantine = self.dead_letters.quarantine
        if self._store is not None:
            engine.checkpointing = Checkpointing(
                self.checkpoint_every,
                lambda position: self._checkpoint(position, engine, plan),
            )
        self._source = RetryingSource(
            plan.wrap(chunks),
            policies=self._retry_policies,
            default_policy=self._default_retry_policy,
            seed=self._retry_seed,
            sleep=self._sleep,
        )
        self._engine = engine
        suffix = itertools.islice(self._source, start, None)
        return engine.run(plan.boundary_faults(suffix, start))

    def _checkpoint(
        self, position: int, engine: StreamEngine, plan: FaultPlan
    ) -> None:
        store = self._store
        assert store is not None
        record = store.save(
            self.synopsis,
            chunk_index=position,
            tuples_ingested=engine.stats.tuples_ingested,
            engine_chunks=engine.stats.chunks_ingested,
        )
        self._last_record = record
        self._checkpoints_written += 1
        plan.checkpoint_written(
            self._checkpoints_written,
            lambda: corrupt_file(
                store.snapshot_path(record["generation"]), seed=plan.seed
            ),
        )

    # -- observability -----------------------------------------------------

    def health(self) -> dict:
        """A JSON-safe snapshot of the runtime's condition.

        Keys: ``status`` (``"ok"``/``"degraded"`` — degraded when chunks
        were quarantined), ingestion counters, the last checkpoint
        record (or None), ``checkpoint_lag_chunks`` (chunks handled
        since that checkpoint), retry/backoff counters from the source
        wrapper, and quarantine counters.
        """
        stats = self.stats
        seen = self._engine.position if self._engine is not None else 0
        checkpoint = None
        if self._last_record is not None:
            checkpoint = {
                key: self._last_record[key]
                for key in ("generation", "chunk_index", "tuples_ingested")
            }
        return {
            "status": "degraded" if self.dead_letters.quarantined else "ok",
            "tuples_ingested": stats.tuples_ingested,
            "chunks_ingested": stats.chunks_ingested,
            "source_chunks_seen": seen,
            "checkpoint": checkpoint,
            "checkpoint_lag_chunks": seen - (
                self._last_record["chunk_index"] if self._last_record else 0
            ),
            "retries": self._source.retries if self._source else 0,
            "backoff_seconds": (
                self._source.backoff_seconds if self._source else 0.0
            ),
            "quarantined": self.dead_letters.quarantined,
            "quarantine_dropped": self.dead_letters.dropped,
        }
