"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch library failures with a single ``except`` clause while still letting
programming errors (``TypeError`` from wrong argument types, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or impossible parameters.

    Examples: a synopsis byte budget too small to hold a single sketch row,
    a filter capacity of zero, or a hash family asked for a non-positive
    output range.
    """


class CapacityError(ReproError):
    """A bounded data structure was asked to hold more than it can.

    Raised by filters when an unconditional insert is attempted on a full
    filter (the ASketch update path never triggers this; it is a guard for
    direct misuse of the filter API).
    """


class NegativeCountError(ReproError):
    """A deletion would drive an item's count below zero.

    The paper (Appendix A) models deletions as negative-count updates that
    are only well defined while every item's running count stays
    non-negative (the "strict turnstile" model).  Violations raise this
    error rather than silently corrupting the synopsis.
    """


class UnknownExperimentError(ReproError):
    """An experiment id was not found in the experiment registry."""


class StreamFormatError(ReproError):
    """A stream file on disk is malformed or from an incompatible version."""


class TransientSourceError(ReproError):
    """A chunk source failed in a way that is expected to heal on retry.

    The canonical producer is an unreliable transport (socket hiccup,
    NFS stall); :class:`~repro.runtime.reliability.RetryingSource`
    retries these with exponential backoff before giving up.  The
    fault-injection harness raises it deterministically to exercise the
    retry path.
    """


class RetryExhaustedError(ReproError):
    """A retryable source error persisted past its retry budget.

    Raised by :class:`~repro.runtime.reliability.RetryingSource` after
    its :class:`~repro.runtime.reliability.RetryPolicy` allowance is
    spent; the final underlying failure is chained as
    ``__cause__``.  Attributes: ``chunk_index`` (0-based index of the
    chunk being fetched), ``attempts`` (total fetch attempts made).
    """

    def __init__(self, message: str, *, chunk_index: int, attempts: int) -> None:
        super().__init__(message)
        self.chunk_index = chunk_index
        self.attempts = attempts


class PoisonChunkError(ReproError):
    """An ingest chunk failed validation and must not reach a synopsis.

    Covers payloads the integer-keyed turnstile model cannot represent:
    float or object dtypes (silent ``int64`` coercion would truncate
    fractional keys), NaN/inf keys, non-1-D shapes, and negative counts
    outside the strict-turnstile model.  Attributes: ``chunk_index``
    (0-based position of the offending chunk in the source), ``reason``
    (human-readable validation failure).
    """

    def __init__(self, reason: str, *, chunk_index: int) -> None:
        super().__init__(f"poison chunk {chunk_index}: {reason}")
        self.chunk_index = chunk_index
        self.reason = reason


class RecoveryError(ReproError):
    """Crash recovery could not restore a usable checkpoint.

    Raised by :class:`~repro.runtime.reliability.CheckpointStore` and
    :meth:`~repro.runtime.reliability.ResilientEngine.resume` when the
    journal names checkpoints but every recorded generation fails
    validation (corrupt archive, checksum mismatch, missing snapshot).
    """


class WorkerStalledError(ReproError):
    """A parallel worker stopped consuming its ring without dying.

    Built by the parent-side wait loops of
    :class:`~repro.runtime.parallel.ParallelIngestRuntime` when a
    worker process is still alive but has made no ring progress within
    its stall budget — the "slow/hung worker" case, which liveness
    polling alone cannot distinguish from a merely busy worker.  The
    runtime fails such a worker over inline (the parent takes over the
    worker's shards in the result group), so the error reaches callers
    as the worker's ``error`` text in
    :meth:`~repro.runtime.parallel.ParallelIngestRuntime.worker_health`.
    Attributes: ``worker`` (worker index), ``waited_seconds`` (how long
    the parent waited without observing progress).
    """

    def __init__(
        self, message: str, *, worker: int, waited_seconds: float
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.waited_seconds = waited_seconds

