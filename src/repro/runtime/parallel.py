"""True multicore ingest: shared-memory SPMD worker processes.

:mod:`repro.hardware.spmd` *models* the paper's §6.3 multi-kernel run
with a cost model; this module makes it real.  N worker processes each
own the fixed set of shards ``s % workers == w`` of one
:class:`~repro.runtime.sharding.ShardedASketch` layout for the whole
run and ingest their shares through the ordinary ``process_batch``
path, fed over shared-memory ring buffers
(``multiprocessing.shared_memory``).

**Forked workers.**  Every worker is started with ``fork``, the one
start method: it is running within milliseconds and inherits what it
needs — its :class:`ChunkRing` object, the group layout and its fault
plan — so nothing is pickled and no interpreter boots or re-imports
``repro``.  Fork is safe here because the workers
are single-threaded and no library code runs a Python thread beside a
fleet; OpenBLAS, the one native
thread pool numpy brings, re-arms its pool in the child through
``pthread_atfork``.  CPython >= 3.12 emits a ``DeprecationWarning``
when a process with more than one OS thread forks, and OpenBLAS's pool
is such a thread; the warning is left audible.  As its first act a
worker sheds what a fresh interpreter would never have had: every
parent-side pipe end it inherited (its own peer end and every other
worker's — a worker holding the peer end of its own socket never sees
``EPIPE``, so after a parent ``kill -9`` it would block in ``send``
forever) and the parent's installed tracer (whose unsynchronised
writes would interleave with the parent's).  No process outlives
:meth:`ParallelIngestRuntime.run`.

**Bit-identity.**  The parent routes every chunk with the group's own
``owners_of`` and sends worker ``w`` exactly the sub-array its shards
would have received in a sequential run, in chunk order.  The
parent's split by worker and ``process_batch``'s split by shard are
each one stable owner sort
(:func:`~repro.runtime.sharding.group_by_owner`), so each worker's
per-shard sub-batches, and hence its shard states, equal the
sequential run's.  A worker's snapshot is ``{shard: state}`` for its
non-pristine shards only — the shards it owns that have seen keys —
and the drain *installs* each of them into the result group with
:meth:`~repro.runtime.sharding.ShardedASketch.install_shard`, whose
pristine check rejects a shard that is already non-pristine there.
The combined result's :meth:`state` **equals** a single-process
ingest's, enforced by the parallel test suite.

**Failover.**  Worker death is detected by the parent (process
liveness plus ring-progress stall detection — a hung worker is not a
dead worker, but both are failed over).  Workers snapshot their
non-pristine shards over a pipe every ``sync_every`` chunks (each
snapshot carries a digest of exactly what is sent, so a corrupted
snapshot is *rejected* and the retained replay tail kept), and the
parent retains the un-snapshotted chunk tail per worker.  A dead, hung
or exited worker is recovered inline, exactly: the parent installs the
shards of its last accepted snapshot into the result group, replays
the retained tail there through the identical ``process_batch`` path,
and ingests that worker's later shares there too — the parent now owns
its shards; bit-identical, minus the parallelism.  Each shard is
therefore non-pristine in exactly one place: the result group, or the
accepted snapshot of the ring worker that owns it.

**Backpressure.**  Ring occupancy is bounded, so a
slow consumer exerts natural backpressure on the parent.  Owned-shard
snapshots keep the default layouts under a Unix socket's send buffer
(212,992 B on Linux), but a worker owning larger shards can exceed it,
so the worker the parent is waiting on may itself be blocked sending
one, unable to free a ring slot until the parent reads: every
parent-side wait therefore runs in slices of a few milliseconds and
drains every worker's pipe between them
(:meth:`ParallelIngestRuntime._wait`).  The parent
distinguishes *no progress* (stall → failover, with the stall in the
worker's ``error`` text) from *slow progress* (keep waiting).

**One ingest loop.**  The parent drives
:class:`~repro.runtime.engine.StreamEngine` with the chunk router as its
sink and :attr:`ParallelIngestRuntime.dead_letters` as its quarantine: a
chunk that fails validation is quarantined at its source position
before routing, so every share a worker reads is a validated int64
array.  Each worker drives the same loop over its ring, through the
chunk-boundary faults of its per-worker
:class:`~repro.runtime.reliability.FaultPlan`, into its shard group;
its checkpoint step is the pipe snapshot.

**Observability.**  With a registry installed (:mod:`repro.obs`) the
parent records routing skew, per-worker item counters, ring depth,
liveness, failures (``parallel_worker_failures_total``), stalls
(``parallel_worker_stalls_total``), snapshot rejects
(``parallel_snapshot_rejects_total``) and drain latency
(``parallel_merge_seconds``, the drain's installs); trace points
(``worker_stalled``, ``snapshot_reject``) mark those events.  A worker
forked while the parent has a registry
installed runs its own and forwards counter/gauge values over its
pipe, which the parent re-labels with ``worker=<id>`` and folds into
the installed registry; without one, a worker records and sends no
metrics at all.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, shared_memory
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    current_registry,
    install_registry,
    uninstall_registry,
)
from repro.obs.trace import trace_point, uninstall_tracer
from repro.runtime.engine import Checkpointing, EngineStats, StreamEngine
from repro.runtime.reliability import (
    CheckpointStore,
    DeadLetterQueue,
    FaultPlan,
    ShardSupervisor,
    SimulatedCrash,
)
from repro.runtime.sharding import ShardedASketch, group_by_owner, record_routing
from repro.synopses.protocol import SynopsisState

__all__ = ["ChunkRing", "ParallelIngestRuntime"]


# -- shared-memory chunk ring ------------------------------------------------

#: Header word indices (all int64): monotonically increasing produced /
#: consumed slot counters (telemetry + depth; correctness rests on the
#: semaphores) and a total-items counter.
_HDR_PRODUCED = 0
_HDR_CONSUMED = 1
_HDR_ITEMS = 2
_HDR_WORDS = 4

#: Slot-length sentinel marking end of stream.
_EOF = -1

#: ``ChunkRing.get`` return marker for "nothing arrived within timeout"
#: (distinct from ``None`` = end of stream).
RING_TIMEOUT = object()


def _reserve_pages(shm: shared_memory.SharedMemory, nbytes: int) -> None:
    """Back every page of a fresh segment now, where the OS allows it.

    Creation only ``ftruncate``s the segment, so on a full ``/dev/shm``
    the first write to an unbacked page would kill the process with
    SIGBUS; reserving up front turns that into an ``OSError`` here.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    fd = getattr(shm, "_fd", -1)
    if fallocate is not None and fd >= 0:
        fallocate(fd, 0, nbytes)


class ChunkRing:
    """A single-producer single-consumer ring of int64 chunks in shm.

    Layout (all int64)::

        header[4]               produced / consumed / items / reserved
        lengths[slots]          item count per slot, -1 = end of stream
        data[slots, capacity]   the chunk payloads

    ``sem_free`` / ``sem_filled`` gate slot reuse; a semaphore release
    is the producer→consumer memory barrier (POSIX semaphores order the
    preceding stores), so the consumer never observes a slot before its
    payload.  ``get`` copies the payload out and frees the slot
    immediately, maximising producer/consumer overlap.

    The parent creates rings (``ChunkRing(slots, slot_capacity)``) and
    owns the segment lifecycle (:meth:`unlink`).  A forked worker uses
    the parent's ring object itself: it inherits the mapping and the
    semaphores, and only ever calls :meth:`close`.
    """

    def __init__(self, slots: int = 8, slot_capacity: int = 1 << 16) -> None:
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        if slot_capacity < 1:
            raise ConfigurationError(
                f"slot_capacity must be >= 1, got {slot_capacity}"
            )
        ctx = mp.get_context("fork")
        nbytes = 8 * (_HDR_WORDS + slots + slots * slot_capacity)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            _reserve_pages(self._shm, nbytes)
        except OSError as error:
            self._shm.close()
            self._shm.unlink()
            raise ConfigurationError(
                f"cannot reserve {nbytes} bytes of shared memory for a "
                f"ring of slots={slots}, slot_capacity={slot_capacity}: "
                f"{error}; free /dev/shm or shrink the ring"
            ) from error
        self.slots = int(slots)
        self.slot_capacity = int(slot_capacity)
        self._sem_free = ctx.Semaphore(self.slots)
        self._sem_filled = ctx.Semaphore(0)
        buf = self._shm.buf
        self._header = np.ndarray((_HDR_WORDS,), dtype=np.int64, buffer=buf)
        self._lengths = np.ndarray(
            (self.slots,), dtype=np.int64, buffer=buf, offset=8 * _HDR_WORDS
        )
        self._data = np.ndarray(
            (self.slots, self.slot_capacity),
            dtype=np.int64,
            buffer=buf,
            offset=8 * (_HDR_WORDS + self.slots),
        )
        self._header[:] = 0
        self._lengths[:] = 0
        self._put_cursor = 0
        self._get_cursor = 0

    @property
    def name(self) -> str:
        """OS name of the shared-memory segment."""
        return self._shm.name

    # -- producer side -----------------------------------------------------

    def put(self, chunk: np.ndarray, timeout: float | None = None) -> bool:
        """Publish one chunk; False when no slot freed within ``timeout``.

        Oversized chunks are a configuration error, not a silent split —
        splitting would change sub-batch boundaries and break the
        bit-identity contract.
        """
        n = int(chunk.shape[0])
        if n > self.slot_capacity:
            raise ConfigurationError(
                f"chunk of {n} items exceeds ring slot capacity "
                f"{self.slot_capacity}; raise slot_capacity or shrink chunks"
            )
        if not self._sem_free.acquire(timeout=timeout):
            return False
        slot = self._put_cursor % self.slots
        if n:
            self._data[slot, :n] = chunk
        self._lengths[slot] = n
        self._put_cursor += 1
        self._header[_HDR_PRODUCED] = self._put_cursor
        self._header[_HDR_ITEMS] += n
        self._sem_filled.release()
        return True

    def close_producer(self, timeout: float | None = None) -> bool:
        """Publish the end-of-stream sentinel."""
        if not self._sem_free.acquire(timeout=timeout):
            return False
        slot = self._put_cursor % self.slots
        self._lengths[slot] = _EOF
        self._put_cursor += 1
        self._header[_HDR_PRODUCED] = self._put_cursor
        self._sem_filled.release()
        return True

    # -- consumer side -----------------------------------------------------

    def get(self, timeout: float | None = None):
        """Next chunk; ``None`` at end of stream, :data:`RING_TIMEOUT`
        when nothing arrived within ``timeout``."""
        if not self._sem_filled.acquire(timeout=timeout):
            return RING_TIMEOUT
        slot = self._get_cursor % self.slots
        n = int(self._lengths[slot])
        self._get_cursor += 1
        self._header[_HDR_CONSUMED] = self._get_cursor
        if n == _EOF:
            self._sem_free.release()
            return None
        chunk = self._data[slot, :n].copy()
        self._sem_free.release()
        return chunk

    # -- shared ------------------------------------------------------------

    def depth(self) -> int:
        """Slots currently published but not yet consumed."""
        return int(self._header[_HDR_PRODUCED] - self._header[_HDR_CONSUMED])

    def consumed(self) -> int:
        """Total slots the consumer has taken so far.

        The parent's *progress* signal: a worker whose ``consumed()``
        advances is slow, not hung — stall detection keys off this
        rather than wall-clock alone.
        """
        return int(self._header[_HDR_CONSUMED])

    def items_published(self) -> int:
        """Total items published so far."""
        return int(self._header[_HDR_ITEMS])

    def close(self) -> None:
        """Drop this process's mapping (views first, then the segment)."""
        self._header = None  # type: ignore[assignment]
        self._lengths = None  # type: ignore[assignment]
        self._data = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - already gone
            pass

    def unlink(self) -> None:
        """Destroy the segment (the parent's job; idempotent)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# -- snapshot integrity ------------------------------------------------------


def _snapshot_digest(snapshot: Mapping[int, SynopsisState]) -> str:
    """Content hash of a worker snapshot: every shard index and its
    state (kind, params, arrays, extra).

    Travels alongside every snapshot so the receiver
    can detect in-flight corruption; a mismatch means *reject and keep
    the replay tail*, never adopt.
    """
    h = hashlib.sha256()
    for shard in sorted(snapshot):
        state = snapshot[shard]
        h.update(f"shard{shard}:{state.kind}".encode())
        h.update(repr(sorted(state.params.items())).encode())
        h.update(
            json.dumps(state.extra, sort_keys=True, default=str).encode()
        )
        for name in sorted(state.arrays):
            array = np.ascontiguousarray(state.arrays[name])
            h.update(name.encode())
            h.update(str(array.dtype).encode())
            h.update(repr(array.shape).encode())
            h.update(array.tobytes())
    return h.hexdigest()


# -- the worker process ------------------------------------------------------


def _export_metrics(registry: MetricsRegistry | None) -> list[tuple]:
    """Counter/gauge values as picklable rows (histograms stay local);
    none without a registry."""
    rows: list[tuple] = []
    if registry is None:
        return rows
    for instrument in registry.instruments():
        if isinstance(instrument, Counter):
            rows.append(
                ("counter", instrument.name, dict(instrument.labels),
                 instrument.value)
            )
        elif isinstance(instrument, Gauge):
            rows.append(
                ("gauge", instrument.name, dict(instrument.labels),
                 instrument.value)
            )
    return rows


def _corrupt_in_flight(snapshot: Mapping[int, SynopsisState]) -> None:
    """Flip one payload value of a snapshot whose digest is already
    taken: the receiver must detect the mismatch and reject it."""
    for shard in sorted(snapshot):
        arrays = snapshot[shard].arrays
        for name in sorted(arrays):
            if arrays[name].size:
                corrupted = arrays[name].copy()
                corrupted.reshape(-1)[0] += 1
                arrays[name] = corrupted
                return


def _ring_chunks(ring: ChunkRing, control) -> Iterator[np.ndarray]:
    """The worker's ring as a chunk iterator, ending at end of stream
    or once the parent is gone (nobody would drain the worker then).

    ``control`` runs once per iteration (and per idle timeout), keeping
    the worker responsive to parent control messages even while the
    ring is empty.
    """
    parent = mp.parent_process()
    while True:
        control()
        chunk = ring.get(timeout=0.05)
        if chunk is None:
            return
        if chunk is not RING_TIMEOUT:
            yield chunk
        elif parent is not None and not parent.is_alive():
            return


def _worker_main(
    ring: ChunkRing,
    group_params: dict,
    conn,
    parent_ends: list,
    sync_every: int,
    faults: FaultPlan,
) -> None:
    """Worker body: the ingest loop from the ring into a shard group.

    Runs in a forked child, on the parent's own objects: the ring and
    the group layout are inherited, not sent.  It first closes
    ``parent_ends`` — every parent-side pipe end the fork handed it, its
    own peer end included — and drops the parent's tracer.  The group
    has the *full* shard layout; the parent only ever sends keys owned
    by this worker's shards, so every other shard stays pristine, and a
    snapshot
    (:meth:`~repro.runtime.sharding.ShardedASketch.nonpristine_states`)
    carries the owned shards that have seen keys and nothing else.
    The worker runs its own metrics registry only when the parent had
    one installed when it forked.

    The ring feeds :class:`~repro.runtime.engine.StreamEngine` through
    the chunk-boundary faults of ``faults`` (this worker's plan from
    :meth:`~repro.runtime.reliability.FaultPlan.worker_faults_for`).
    The parent validated every share before routing it, so the loop
    needs no quarantine.  The checkpoint step is the pipe snapshot
    every ``sync_every`` chunks and at end of stream.
    """
    for end in parent_ends:
        end.close()
    uninstall_tracer()
    registry: MetricsRegistry | None = None
    if current_registry() is not None:
        registry = install_registry(MetricsRegistry())
    group = ShardedASketch(**group_params)
    engine = StreamEngine(group, batched=True)
    checkpoints = 0
    sync_target: int | None = None

    def send_snapshot() -> None:
        nonlocal checkpoints
        shard_states = group.nonpristine_states()
        digest = _snapshot_digest(shard_states)
        checkpoints += 1
        faults.checkpoint_written(
            checkpoints, lambda: _corrupt_in_flight(shard_states)
        )
        conn.send(("snapshot", engine.position, shard_states, digest,
                   _export_metrics(registry)))

    def handle_control() -> None:
        nonlocal sync_target
        while conn.poll():
            message = conn.recv()
            if message[0] == "sync":
                sync_target = int(message[1])
        if sync_target is not None and engine.position >= sync_target:
            send_snapshot()
            sync_target = None

    engine.checkpointing = Checkpointing(
        sync_every, lambda position: send_snapshot()
    )
    try:
        engine.run(faults.boundary_faults(_ring_chunks(ring, handle_control)))
        conn.send(("done", engine.position, engine.stats.tuples_ingested))
    except SimulatedCrash:
        faults.act_out_crash()
    except Exception as error:  # surface, then die visibly
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except Exception:
            pass
        sys.exit(1)
    finally:
        uninstall_registry()
        ring.close()
        conn.close()


# -- the parent-side runtime -------------------------------------------------


#: The longest the fleet parent blocks in one wait on its workers before
#: it reads their pipes again.  A worker whose snapshot overflows the
#: socket buffer sits blocked in ``send`` until the parent reads, so this
#: bounds how long such a worker idles.
_WAIT_SLICE = 0.001


@dataclass
class _WorkerSlot:
    """Parent-side bookkeeping for one worker process."""

    index: int
    process: Any
    ring: ChunkRing
    conn: Any
    sent_chunks: int = 0
    sent_items: int = 0
    acked_chunks: int = 0
    retained: deque = field(default_factory=deque)
    #: The last accepted snapshot: ``{shard: state}`` of the worker's
    #: non-pristine shards (empty before the first).
    snapshot: dict = field(default_factory=dict)
    snapshot_chunks: int = 0
    #: ``"ok"`` (fed over its ring) or ``"inlined"`` (failed over: the
    #: parent owns its shards in the result group).
    status: str = "ok"
    metrics_last: dict = field(default_factory=dict)
    done: bool = False
    error: str | None = None
    stalls: int = 0
    snapshot_rejects: int = 0

    @property
    def feeding_ring(self) -> bool:
        """Whether new shares still go through the shared-memory ring."""
        return self.status == "ok"


class _Router:
    """The fleet as the ingest loop's sink: its batch ingest routes
    each chunk to the workers owning the chunk's keys."""

    def __init__(self, runtime: "ParallelIngestRuntime") -> None:
        self._runtime = runtime

    def process_batch(
        self, keys: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        assert counts is None  # the ingest loop passes keys only
        self._runtime._route(keys)


class ParallelIngestRuntime:
    """Drive one logical ShardedASketch with N worker processes.

    Parameters
    ----------
    workers:
        Worker process count; worker ``w`` owns shards ``s`` with
        ``s % workers == w`` for the whole run.
    shards:
        Shard count (default: one per worker).  Must be >= ``workers``.
    total_bytes, filter_items, filter_kind, num_hashes, seed:
        The :class:`~repro.runtime.sharding.ShardedASketch` layout —
        identical to what a sequential run would build, which is what
        the bit-identity guarantee is measured against.
    slots, slot_capacity:
        Ring geometry per worker (``slot_capacity`` must cover the
        largest per-worker chunk share).
    sync_every:
        Worker snapshot cadence in chunks; bounds the retained replay
        tail in the parent.
    stall_timeout:
        Seconds without any ring progress before a worker counts as
        stalled and is failed over, whether the parent waits to publish
        a share or for a snapshot.  Progress resets the clock: slow
        workers are waited on, hung workers are not.
    fault_plan:
        A :class:`~repro.runtime.reliability.FaultPlan` whose
        cross-process faults (``worker_crash``/``worker_exit``/
        ``worker_hang``/``corrupt_snapshot``) are acted out inside the
        workers.
    """

    def __init__(
        self,
        workers: int,
        *,
        shards: int | None = None,
        total_bytes: int = 32 * 1024,
        filter_items: int = 32,
        filter_kind: str = "relaxed-heap",
        num_hashes: int = 8,
        seed: int = 0,
        slots: int = 8,
        slot_capacity: int = 1 << 16,
        sync_every: int = 8,
        stall_timeout: float = 60.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        shards = workers if shards is None else int(shards)
        if shards < workers:
            raise ConfigurationError(
                f"need at least one shard per worker: shards={shards} < "
                f"workers={workers}"
            )
        if sync_every < 1:
            raise ConfigurationError(
                f"sync_every must be >= 1, got {sync_every}"
            )
        self.workers = int(workers)
        self.group_params = {
            "shards": shards,
            "total_bytes": int(total_bytes),
            "filter_items": int(filter_items),
            "filter_kind": filter_kind,
            "num_hashes": int(num_hashes),
            "seed": int(seed),
        }
        self.slots = int(slots)
        self.slot_capacity = int(slot_capacity)
        self.sync_every = int(sync_every)
        self.stall_timeout = float(stall_timeout)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        #: The combined result (populated by :meth:`run`).
        self.supervisor: ShardSupervisor | None = None
        self.stats = EngineStats()
        #: Shard → owning worker, fixed for the fleet's lifetime.
        self._assignment = np.arange(shards, dtype=np.int64) % self.workers
        self._reset()

    def _reset(self) -> None:
        """Per-run fleet state, fresh for every :meth:`run`."""
        #: The run's quarantine: source chunks that failed validation,
        #: with their source positions.
        self.dead_letters = DeadLetterQueue()
        self._slots: list[_WorkerSlot] = []
        self._shard_items = np.zeros(
            self.group_params["shards"], dtype=np.int64
        )

    def shards_of(self, worker: int) -> list[int]:
        """Shard indices owned by one worker."""
        return list(range(worker, self.group_params["shards"], self.workers))

    def shard_item_counts(self) -> np.ndarray:
        """Cumulative items routed per shard this run (copy)."""
        return self._shard_items.copy()

    @property
    def stall_count(self) -> int:
        """Total stall detections across the fleet."""
        return sum(slot.stalls for slot in self._slots)

    # -- lifecycle ---------------------------------------------------------

    def _launch(
        self, index: int, faults: FaultPlan
    ) -> tuple[Any, Any, ChunkRing]:
        """Fork one worker process with a fresh ring and pipe."""
        ctx = mp.get_context("fork")
        ring = ChunkRing(self.slots, self.slot_capacity)
        try:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    ring,
                    self.group_params,
                    child_conn,
                    [parent_conn, *(slot.conn for slot in self._slots)],
                    self.sync_every,
                    faults,
                ),
                daemon=True,
                name=f"repro-ingest-{index}",
            )
            process.start()
        except BaseException:
            # A failed start would otherwise leak this ring: it only
            # enters _slots (and _shutdown's sweep) after the process
            # is up.
            ring.close()
            ring.unlink()
            raise
        child_conn.close()
        return process, parent_conn, ring

    def _start_workers(self) -> None:
        for index in range(self.workers):
            process, conn, ring = self._launch(
                index, self.fault_plan.worker_faults_for(index)
            )
            self._slots.append(
                _WorkerSlot(index=index, process=process, ring=ring, conn=conn)
            )

    def _shutdown(self) -> None:
        for slot in self._slots:
            try:
                slot.conn.close()
            except OSError:
                pass
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=10.0)
            slot.ring.close()
            slot.ring.unlink()
        registry = current_registry()
        if registry is not None:
            registry.gauge("parallel_workers_alive").set(0)

    # -- message handling --------------------------------------------------

    def _apply_worker_metrics(self, slot: _WorkerSlot, rows: list) -> None:
        registry = current_registry()
        if registry is None:
            return
        for kind, name, labels, value in rows:
            labelled = {**labels, "worker": str(slot.index)}
            if kind == "counter":
                key = (name, tuple(sorted(labelled.items())))
                last = slot.metrics_last.get(key, 0.0)
                if value > last:
                    registry.counter(name, **labelled).inc(value - last)
                slot.metrics_last[key] = value
            else:
                registry.gauge(name, **labelled).set(value)

    def _handle_message(self, slot: _WorkerSlot, message: tuple) -> None:
        tag = message[0]
        if tag == "snapshot":
            _, chunks_done, snapshot, digest, metric_rows = message
            if _snapshot_digest(snapshot) != digest:
                # Corrupted in flight: reject, keep the previous
                # snapshot AND the retained tail it still covers.
                slot.snapshot_rejects += 1
                registry = current_registry()
                if registry is not None:
                    registry.counter(
                        "parallel_snapshot_rejects_total",
                        worker=str(slot.index),
                    ).inc()
                trace_point(
                    "snapshot_reject",
                    worker=slot.index,
                    chunks=int(chunks_done),
                )
                self._apply_worker_metrics(slot, metric_rows)
                return
            slot.snapshot = snapshot
            slot.snapshot_chunks = int(chunks_done)
            # The snapshot covers the first chunks_done FIFO chunks this
            # worker received — drop exactly that prefix of the retained
            # replay tail.
            while slot.acked_chunks < slot.snapshot_chunks and slot.retained:
                slot.retained.popleft()
                slot.acked_chunks += 1
            self._apply_worker_metrics(slot, metric_rows)
        elif tag == "done":
            slot.done = True
        elif tag == "error":
            slot.error = str(message[1])

    def _drain_messages(self, slot: _WorkerSlot) -> None:
        try:
            while slot.conn.poll():
                self._handle_message(slot, slot.conn.recv())
        except (EOFError, OSError):
            pass  # pipe gone; liveness check deals with the process

    def _drain_all_messages(self) -> None:
        """Drain every live worker's pipe.

        A snapshot of large shards can exceed the socket buffer, so a
        worker may *block in send* until the parent reads — typically
        the very worker
        whose full ring the parent is waiting on, which cannot consume
        while it is stuck in send.  :meth:`_wait` therefore calls this
        between slices, so such a worker is read within one
        :data:`_WAIT_SLICE`.
        """
        for slot in self._slots:
            if slot.feeding_ring:
                self._drain_messages(slot)

    def _wait(
        self,
        attempt: Callable[[float], bool],
        watch: Callable[[], Iterable[_WorkerSlot]],
        budget: float,
        *,
        progress: Callable[[], int] | None = None,
    ) -> str:
        """The parent's one wait on its workers: slice and drain.

        Tries ``attempt(timeout)`` (a ring publish, a pipe read) first
        without blocking, then in slices of :data:`_WAIT_SLICE`, until
        it returns True; a freed ring slot or an arriving message ends
        a slice early.  Between tries every ring worker's pipe is
        drained.

        Returns ``"ready"``; ``"dead"`` once a slot of ``watch()`` has
        lost its process; or ``"stalled"`` once ``progress()`` has not
        moved for ``budget`` seconds (without ``progress`` the budget
        runs from the first try).
        """
        if attempt(0.0):
            return "ready"
        mark = progress() if progress is not None else None
        since = time.monotonic()
        while True:
            # A worker already gone before this drain has sent all it
            # ever will, so only one still watched after it is dead: a
            # worker that sent its final snapshot and exited is not.
            gone = {slot.index for slot in watch() if not slot.process.is_alive()}
            self._drain_all_messages()
            if any(slot.index in gone for slot in watch()):
                return "dead"
            now = time.monotonic()
            if progress is not None and (current := progress()) != mark:
                mark, since = current, now
            if now - since > budget:
                return "stalled"
            if attempt(_WAIT_SLICE):
                return "ready"

    def _check_liveness(self) -> None:
        for slot in self._slots:
            if not slot.feeding_ring:
                continue
            self._drain_messages(slot)
            if slot.process.is_alive() or slot.done:
                continue
            self._fail_dead(slot)

    # -- failover ----------------------------------------------------------

    def _fail_dead(self, slot: _WorkerSlot) -> None:
        """Fail over a worker whose process is gone."""
        self._fail_worker(
            slot,
            f"worker {slot.index} died (exitcode {slot.process.exitcode})",
        )

    def _stall(
        self,
        slot: _WorkerSlot,
        waited: float,
        what: str,
    ) -> None:
        """Record a stall and fail the worker over (hung ≠ dead, but
        both leave the ring unserved)."""
        slot.stalls += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "parallel_worker_stalls_total", worker=str(slot.index)
            ).inc()
        trace_point(
            "worker_stalled", worker=slot.index, waited_seconds=waited,
            what=what,
        )
        error = (
            f"worker {slot.index} stalled: no progress on {what} for "
            f"{waited:.1f}s"
        )
        slot.error = slot.error or error
        self._fail_worker(slot, error)

    def _stop(self, slot: _WorkerSlot) -> None:
        """End a failed worker's process, salvaging any final snapshot
        in flight before and after it goes."""
        self._drain_messages(slot)
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=10.0)
        self._drain_messages(slot)

    def _fail_worker(self, slot: _WorkerSlot, reason: str) -> None:
        """Recover a dead/hung worker's traffic inline: the parent takes
        over its shards in the result group."""
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "parallel_worker_failures_total", worker=str(slot.index)
            ).inc()
        self._stop(slot)
        assert self.supervisor is not None
        # The worker's shards are pristine in the result group, which
        # adopts them from its snapshot bit-exactly.
        group = self.supervisor.group
        for shard, state in slot.snapshot.items():
            group.install_shard(shard, state)
        slot.snapshot = {}
        for share in slot.retained:
            self._ingest_in_parent(share)
        slot.retained.clear()
        slot.status = "inlined"
        slot.error = slot.error or reason
        slot.ring.close()
        slot.ring.unlink()

    # -- backpressure / feeding --------------------------------------------

    def _put_with_failover(self, slot: _WorkerSlot, put) -> bool:
        """Drive one ring publish under backpressure.

        ``put(timeout)`` is retried under :meth:`_wait`.  Returns True
        once published, False when the worker was failed over instead
        (the slot is now inlined).  Progress on the ring
        (``consumed()`` advancing) resets the stall clock: a slow worker
        is waited on indefinitely, only a worker making *no* progress
        within ``stall_timeout`` is declared stalled.
        """
        outcome = self._wait(
            put, lambda: (slot,), self.stall_timeout,
            progress=slot.ring.consumed,
        )
        if outcome == "ready":
            return True
        if outcome == "dead":
            self._fail_dead(slot)
        else:
            self._stall(slot, self.stall_timeout, "ring")
        return False

    def _ingest_in_parent(self, share: np.ndarray) -> None:
        """Ingest an inlined worker's share into the result group.

        :meth:`_route` already recorded the chunk's routing metrics, so
        this bypasses the group's own ``process_batch`` recording.
        """
        group = self.supervisor.group
        group.ingest_routed(share, group.owners_of(share))

    def _feed(self, slot: _WorkerSlot, share: np.ndarray) -> None:
        """Route one chunk share to a worker (or into the result group
        once the worker is inlined)."""
        if slot.status == "inlined":
            self._ingest_in_parent(share)
            return
        if self._put_with_failover(
            slot, lambda timeout: slot.ring.put(share, timeout=timeout)
        ):
            slot.sent_chunks += 1
            slot.sent_items += int(share.shape[0])
            slot.retained.append(share)
            registry = current_registry()
            if registry is not None and share.size:
                registry.counter(
                    "parallel_worker_items_total", worker=str(slot.index)
                ).inc(int(share.shape[0]))
        else:  # failed over: the parent owns the worker's shards now
            self._ingest_in_parent(share)

    # -- driving -----------------------------------------------------------

    def run(
        self,
        chunks: Iterable[np.ndarray],
        *,
        checkpoint_store: CheckpointStore | None = None,
        checkpoint_every: int | None = None,
    ) -> EngineStats:
        """Ingest a chunk stream across the worker fleet and combine.

        The chunks go through the
        :class:`~repro.runtime.engine.StreamEngine` loop with the chunk
        router as its sink and :attr:`dead_letters` as its quarantine,
        so a poison chunk is quarantined at its source position before
        any worker sees it, and the fleet's result equals a sequential
        run that quarantines the same chunk.  With a
        ``checkpoint_store``, the loop's checkpoint step calls
        :meth:`checkpoint` every ``checkpoint_every`` chunks and once at
        end of stream.

        Returns :class:`EngineStats` whose ``wall_seconds`` covers the
        whole pipeline — feeding, worker ingest, and the drain —
        which is the number real-vs-model speedups are measured on.
        The combined result is :attr:`supervisor`.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_store is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_store"
            )
        self._reset()
        self.supervisor = ShardSupervisor(**self.group_params)
        engine = StreamEngine(_Router(self), batched=True)
        engine.quarantine = self.dead_letters.quarantine
        if checkpoint_store is not None:
            engine.checkpointing = Checkpointing(
                checkpoint_every,
                lambda position: self.checkpoint(checkpoint_store, position),
            )
        self.stats = engine.stats
        start = time.perf_counter()
        try:
            # Inside the try so a mid-start failure still sweeps the
            # workers and rings already launched.
            self._start_workers()
            engine.run(chunks)
            self._drain()
        finally:
            self._shutdown()
        self.stats.wall_seconds = time.perf_counter() - start
        registry = current_registry()
        if registry is not None:
            registry.gauge("engine_items_per_s").set(
                1000.0 * self.stats.wall_throughput_items_per_ms
            )
        return self.stats

    def _route(self, chunk: np.ndarray) -> None:
        """The sink of the fleet's ingest loop: split one validated
        chunk by owning worker and feed every share to its worker."""
        assert self.supervisor is not None
        owners = self.supervisor.group.owners_of(chunk)
        shares = np.bincount(owners, minlength=self.group_params["shards"])
        self._shard_items += shares
        registry = current_registry()
        if registry is not None and owners.size:
            record_routing(registry, shares)
        order, ends = group_by_owner(self._assignment[owners], self.workers)
        for slot, share in zip(self._slots, np.split(chunk[order], ends[:-1])):
            self._feed(slot, share)
        self._check_liveness()
        if registry is not None:
            self._record_fleet_metrics(registry)

    def _record_fleet_metrics(self, registry: MetricsRegistry) -> None:
        alive = 0
        for slot in self._slots:
            if slot.feeding_ring and slot.process.is_alive():
                alive += 1
                registry.gauge(
                    "parallel_ring_depth", worker=str(slot.index)
                ).set(slot.ring.depth())
        registry.gauge("parallel_workers_alive").set(alive)

    def _behind(self) -> list[_WorkerSlot]:
        """Ring-fed workers whose snapshot lags the chunks sent to them."""
        return [
            slot
            for slot in self._slots
            if slot.feeding_ring and slot.snapshot_chunks < slot.sent_chunks
        ]

    def _await_snapshots(self) -> None:
        """Block until every ring-fed worker's snapshot covers the
        chunks sent to it.

        Workers that die while we wait are failed over on the spot.
        While any lagging worker's ring ``consumed()`` advances the wait
        goes on; once none has for ``stall_timeout`` seconds, the
        lagging workers take the typed stall path.
        """

        def caught_up(timeout: float) -> bool:
            behind = self._behind()
            if behind and timeout:
                connection.wait([slot.conn for slot in behind], timeout)
            return not behind

        def consumed() -> int:
            return sum(slot.ring.consumed() for slot in self._behind())

        while True:
            outcome = self._wait(
                caught_up, self._behind, self.stall_timeout, progress=consumed
            )
            if outcome == "ready":
                return
            for slot in self._behind():
                if outcome == "stalled":
                    self._stall(slot, self.stall_timeout, "snapshot")
                elif not slot.process.is_alive():
                    self._fail_dead(slot)

    def _quiesce(self) -> None:
        """Sync every ring-fed worker to its sent position.

        After this returns, every live worker's accepted snapshot
        covers exactly the chunks the parent has sent it and all
        retained tails are empty — the precondition for checkpointing.
        """
        for slot in self._slots:
            if slot.feeding_ring:
                try:
                    slot.conn.send(("sync", slot.sent_chunks))
                except (OSError, BrokenPipeError):
                    pass  # liveness handling in _await_snapshots
        self._await_snapshots()

    def _drain(self) -> None:
        """End of stream: EOF every ring, collect finals, install them."""
        assert self.supervisor is not None
        for slot in self._slots:
            if slot.feeding_ring:
                # A failover here inlines the slot: no EOF to send then.
                self._put_with_failover(
                    slot,
                    lambda timeout, slot=slot: slot.ring.close_producer(
                        timeout=timeout
                    ),
                )
        self._await_snapshots()
        install_start = time.perf_counter()
        self._install_snapshots_into(self.supervisor.group)
        registry = current_registry()
        if registry is not None:
            registry.histogram("parallel_merge_seconds").observe(
                time.perf_counter() - install_start
            )

    def _install_snapshots_into(self, group: ShardedASketch) -> None:
        """Install every ring worker's last accepted snapshot into
        ``group``, whose copies of those shards are pristine (inlined
        workers' shards already live in the result group)."""
        for slot in self._slots:
            if slot.feeding_ring:
                for shard, state in slot.snapshot.items():
                    group.install_shard(shard, state)

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, store: CheckpointStore, position: int) -> dict:
        """Quiesce, snapshot every worker, save the combined state as
        covering the first ``position`` source chunks.

        The parent has stopped feeding when this runs (it is called
        between chunks), so each worker drains its ring to exactly
        ``sent_chunks`` and answers the sync request with a snapshot at
        that position.  The clone of the result group (holding the
        inlined workers' shards) with those snapshots installed
        therefore covers every chunk handled so far, ingested or
        quarantined — the same exactly-once replay point semantics as
        :class:`~repro.runtime.reliability.ResilientEngine`'s
        checkpoints, journaled with the same ``chunk_index`` (source
        position) and ``engine_chunks`` (chunks ingested).  The journal
        record's ``extra`` carries the fleet's failure counters for
        ``cli health``.
        """
        assert self.supervisor is not None
        self._quiesce()
        clone = ShardSupervisor.from_state(self.supervisor.state())
        self._install_snapshots_into(clone.group)
        return store.save(
            clone,
            chunk_index=position,
            tuples_ingested=self.stats.tuples_ingested,
            engine_chunks=self.stats.chunks_ingested,
            extra=self._health_extra(),
        )

    # -- health -------------------------------------------------------------

    def _health_extra(self) -> dict:
        """The failure counters journaled with every checkpoint."""
        return {
            "worker_stalls": self.stall_count,
            "quarantined_chunks": self.dead_letters.quarantined,
            "snapshot_rejects": sum(
                slot.snapshot_rejects for slot in self._slots
            ),
        }

    def health(self) -> dict:
        """Whole-fleet lifecycle snapshot (JSON-safe).

        Extends :meth:`ShardSupervisor.health` with the per-worker view
        and the failure counters; quarantined chunks escalate an
        otherwise-``ok`` fleet to ``degraded`` (data is sitting in a
        dead-letter queue, not in the synopsis).
        """
        if self.supervisor is not None:
            base = self.supervisor.health()
        else:
            base = {"status": "ok", "shards": []}
        status = base["status"]
        if status == "ok" and self.dead_letters.quarantined:
            status = "degraded"
        return {
            **base,
            "status": status,
            "workers": self.worker_health(),
            **self._health_extra(),
        }

    def worker_health(self) -> list[dict]:
        """Per-worker liveness/progress snapshot (JSON-safe)."""
        return [
            {
                "worker": slot.index,
                "status": slot.status,
                "alive": slot.process.is_alive(),
                "pid": slot.process.pid,
                "exitcode": slot.process.exitcode,
                "sent_chunks": slot.sent_chunks,
                "sent_items": slot.sent_items,
                "snapshot_chunks": slot.snapshot_chunks,
                "shards": self.shards_of(slot.index),
                "stalls": slot.stalls,
                "snapshot_rejects": slot.snapshot_rejects,
                "error": slot.error,
            }
            for slot in self._slots
        ]

    def shard_health(self) -> list[dict]:
        """Per-shard status from the combined supervisor."""
        if self.supervisor is None:
            return []
        return self.supervisor.shard_health()

