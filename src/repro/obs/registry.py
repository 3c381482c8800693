"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the collection point of the observability layer
(:mod:`repro.obs`): instrumented code asks :func:`current_registry`
for the process-wide registry and records into it *only when one is
installed*.  With no registry installed the instrumented call sites
reduce to one ``None`` check per stream/chunk call, so the hot paths
pay nothing by default — and estimates are bit-identical either way,
because instruments only ever *read* synopsis counters.

Everything here is dependency-free (stdlib only) and thread-safe: a
registry-level lock guards instrument creation, and each instrument
carries its own lock for updates (Python int ``+=`` is not atomic
across bytecodes).

Naming follows Prometheus conventions (``snake_case``, ``_total``
suffix on counters, base-unit names like ``_seconds`` / ``_bytes``),
and instruments accept an optional label mapping::

    registry = MetricsRegistry()
    registry.counter("asketch_filter_hits_total").inc(5)
    registry.counter("parallel_worker_stalls_total", worker="1").inc()
    registry.histogram("engine_chunk_seconds").observe(0.0021)
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "current_registry",
    "install_registry",
    "uninstall_registry",
]

#: Default histogram boundaries (seconds): 100 µs to 10 s, wide enough
#: for per-chunk ingest latencies from tiny test chunks up to the
#: checkpoint-dominated cold path.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, str]) -> LabelItems:
    """Normalise a label mapping into a hashable, sorted identity."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, items, bytes).

    Decrements are rejected — monotonicity is what makes counter rates
    meaningful to scrapers; use a :class:`Gauge` for values that move
    both ways.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value


class Gauge:
    """A value that can go up and down (depths, lags, rates)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current value."""
        return self._value


class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds in increasing order; an implicit
    ``+Inf`` bucket catches the rest.  Observations update bucket
    counts, ``sum`` and ``count`` under one lock; quantiles are
    estimated from the bucket counts (:meth:`quantile`), which is the
    precision scrapers get — exact sample retention is deliberately
    not offered, to keep memory constant.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram {name} needs strictly increasing, non-empty "
                f"bucket boundaries, got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        with self._lock:
            counts = list(self._counts)
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), cumulative + counts[-1]))
        return pairs

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the covering bucket, the standard
        ``histogram_quantile`` estimate; returns 0.0 for an empty
        histogram, and the largest finite boundary when the quantile
        lands in the +Inf bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.buckets, counts):
            if cumulative + count >= rank:
                if count == 0:
                    return bound
                fraction = (rank - cumulative) / count
                return lower + (bound - lower) * fraction

            cumulative += count
            lower = bound
        return self.buckets[-1]


class MetricsRegistry:
    """A concurrent family of named instruments.

    Instruments are get-or-create: the first
    :meth:`counter`/:meth:`gauge`/:meth:`histogram` call with a given
    ``(name, labels)`` creates it, later calls return the same object.
    A name registered as one type cannot be re-registered as another.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[
            tuple[str, LabelItems], Counter | Gauge | Histogram
        ] = {}
        self._types: dict[str, type] = {}

    def _get_or_create(self, kind: type, name: str,
                       labels: Mapping[str, str], **kwargs):
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if type(instrument) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, cannot re-register as "
                    f"{kind.__name__}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is not None:
                return instrument
            registered = self._types.setdefault(name, kind)
            if registered is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{registered.__name__}, cannot re-register as "
                    f"{kind.__name__}"
                )
            instrument = kind(name, key[1], **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with these labels."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with these labels."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with these labels.

        ``buckets`` only takes effect on first creation; later calls
        return the existing instrument unchanged.
        """
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        """All instruments, sorted by (name, labels) for stable output."""
        with self._lock:
            items = sorted(self._instruments.items())
        for _, instrument in items:
            yield instrument

    def get(self, name: str, **labels: str):
        """Look up an existing instrument, or None (never creates)."""
        return self._instruments.get((name, _label_items(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Value of a counter/gauge, or 0.0 when it was never created.

        The read-side convenience for tests and derived statistics: a
        metric that never fired reads as zero instead of ``KeyError``.
        """
        instrument = self.get(name, **labels)
        if instrument is None or isinstance(instrument, Histogram):
            return 0.0
        return instrument.value


# -- the installed process-wide registry -------------------------------------

_INSTALLED: MetricsRegistry | None = None


def install_registry(
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Install (and return) the process-wide registry.

    Instrumented code records into the installed registry; with none
    installed, instrumentation is skipped entirely.  Passing ``None``
    installs a fresh empty registry.  Installing replaces any previous
    registry (tests install their own around each scenario).
    """
    global _INSTALLED
    _INSTALLED = registry if registry is not None else MetricsRegistry()
    return _INSTALLED


def uninstall_registry() -> None:
    """Remove the installed registry (instrumentation goes quiet)."""
    global _INSTALLED
    _INSTALLED = None


def current_registry() -> MetricsRegistry | None:
    """The installed registry, or None when observability is off."""
    return _INSTALLED
