"""Structured-event tracing: span enter/exit records with pluggable sinks.

The trace hook is the second exposure surface of :mod:`repro.obs`
(besides JSON snapshots): instrumented code emits
*events* — span ``enter``/``exit`` pairs around ingest, checkpoint and
recovery work, and ``point`` events for instantaneous occurrences like
an exchange — into whatever sink is installed.  With no sink installed
the emit sites reduce to one ``None`` check, mirroring the registry's
zero-overhead contract.

A sink is anything with ``emit(event: TraceEvent)``; the bundled
:class:`JsonlTraceWriter` appends one JSON object per line, the format
downstream span viewers and the test suite consume::

    {"name": "ingest", "phase": "exit", "t": 1723043.12,
     "duration_s": 0.0042, "attrs": {"chunk_index": 3, "items": 10000}}
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Protocol, runtime_checkable

__all__ = [
    "TraceEvent",
    "TraceSink",
    "JsonlTraceWriter",
    "RecordingTraceSink",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "trace_point",
    "trace_span",
]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``phase`` is ``"enter"`` / ``"exit"`` for spans (exits carry
    ``duration_s``) or ``"point"`` for instantaneous events; ``t`` is a
    ``time.monotonic()`` timestamp, so durations are robust to clock
    steps (readers wanting wall time stamp their own at file level).
    """

    name: str
    phase: str
    t: float
    duration_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The event as a JSON-safe dict (None duration omitted)."""
        record: dict[str, Any] = {
            "name": self.name,
            "phase": self.phase,
            "t": self.t,
        }
        if self.duration_s is not None:
            record["duration_s"] = self.duration_s
        record["attrs"] = self.attrs
        return record


@runtime_checkable
class TraceSink(Protocol):
    """Anything able to receive trace events."""

    def emit(self, event: TraceEvent) -> None:
        """Consume one event (must be cheap; called on hot-ish paths)."""
        ...


class RecordingTraceSink:
    """An in-memory sink collecting events (tests, interactive use)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()

    def emit(self, event: TraceEvent) -> None:
        """Append the event to :attr:`events`."""
        with self._lock:
            self.events.append(event)

    def named(self, name: str) -> list[TraceEvent]:
        """All recorded events with this span/point name."""
        return [event for event in self.events if event.name == name]


class JsonlTraceWriter:
    """A sink appending one JSON object per event to a file.

    The file handle is opened lazily on the first event and flushed per
    line, so a crash loses at most the record being written.  Use as a
    context manager or call :meth:`close` explicitly.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, event: TraceEvent) -> None:
        """Serialise and append one event."""
        line = json.dumps(event.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlTraceWriter":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: closes the file."""
        self.close()


# -- the installed process-wide tracer ---------------------------------------

_INSTALLED: TraceSink | None = None


def install_tracer(sink: TraceSink) -> TraceSink:
    """Install (and return) the process-wide trace sink."""
    global _INSTALLED
    _INSTALLED = sink
    return _INSTALLED


def uninstall_tracer() -> None:
    """Remove the installed trace sink (tracing goes quiet)."""
    global _INSTALLED
    _INSTALLED = None


def current_tracer() -> TraceSink | None:
    """The installed trace sink, or None when tracing is off."""
    return _INSTALLED


def trace_point(name: str, **attrs: Any) -> None:
    """Emit an instantaneous event to the installed sink (if any)."""
    sink = _INSTALLED
    if sink is not None:
        sink.emit(TraceEvent(name, "point", time.monotonic(), None, attrs))


@contextmanager
def trace_span(name: str, **attrs: Any) -> Iterator[None]:
    """Emit enter/exit events around the wrapped block.

    A no-op when no sink is installed.  The exit event carries the
    block's duration and fires even when the block raises, so failed
    ingests and checkpoints still close their spans.
    """
    sink = _INSTALLED
    if sink is None:
        yield
        return
    start = time.monotonic()
    sink.emit(TraceEvent(name, "enter", start, None, attrs))
    try:
        yield
    finally:
        end = time.monotonic()
        sink.emit(TraceEvent(name, "exit", end, end - start, attrs))
