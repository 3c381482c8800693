"""Span recorder and run-time layer wrappers for the traced benchmark run.

The program under test is never edited for tracing.  Instead,
:class:`Instrumentation` replaces the public entry points of each layer
with wrappers for the duration of a ``with`` block (class attributes for
the runtime, synopsis, filter, sketch and sharding layers; attributes
of the active kernel-backend instance for the kernels) and restores the
originals on exit.  Each wrapper records one span: name, start, end and
the span that was open when it started (its parent), plus optional
counts computed from the call's arguments and result.

Spans are kept in memory; :meth:`SpanRecorder.write_jsonl` writes them
out when the benchmark ends.  A span's *self time* is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

_MISSING = object()

#: Spans that belong to the benchmark's own drivers rather than to a
#: layer of the program: the pass root and the per-chunk interval
#: opened by the chunk feed.
DRIVER_SPANS = frozenset(
    {"chunk", "engine.run", "reliability.run", "parallel.run"}
)


class SpanRecorder:
    """Append-only in-memory span store with an open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: Counts attached to a span, keyed by span index.
        self.notes: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter() if start is None else start)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed out of order "
                f"(innermost open span is {self.names[popped]!r})"
            )

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span (and ``note`` counts) per call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if note is not None:
                recorder.notes[index] = note(args, kwargs, result)
            return result

        return traced

    # -- derived quantities -------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        durations = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        children = np.zeros(len(self.names))
        np.add.at(children, parents[nested], durations[nested])
        return durations - children

    def indices(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.names) if span == name]

    def write_jsonl(self, path: Path, label: str) -> None:
        """Append every span as one JSON object per line, tagged ``label``."""
        with open(path, "a", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                record = {
                    "run": label,
                    "span": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                }
                if i in self.notes:
                    record["counts"] = self.notes[i]
                handle.write(json.dumps(record) + "\n")


# -- counts attached to kernel and layer spans ------------------------------


def _probe_note(args, kwargs, result) -> dict:
    ids, keys = args[0], args[1]
    n = int(np.asarray(keys).shape[0])
    return {"elements": n, "bytes": int(np.asarray(ids).nbytes) + 16 * n}


def _cm_update_note(args, kwargs, result) -> dict:
    table, encoded, amounts = args[0], args[4], args[5]
    n = int(np.asarray(encoded).shape[0])
    cells = table.shape[0] * n * 2 * table.itemsize  # read + write
    return {"elements": n, "bytes": 16 * n + cells}


def _cm_estimate_note(args, kwargs, result) -> dict:
    table, encoded = args[0], args[4]
    n = int(np.asarray(encoded).shape[0])
    return {"elements": n, "bytes": 16 * n + table.shape[0] * n * table.itemsize}


def _candidates_note(args, kwargs, result) -> dict:
    n = int(np.asarray(args[0]).shape[0])
    found = int(np.asarray(result).shape[0])
    return {"elements": n, "bytes": 8 * (n + found), "candidates": found}


def _keys_note(args, kwargs, result) -> dict:
    return {"elements": int(np.asarray(args[1]).shape[0])}


def _put_note(args, kwargs, result) -> dict:
    chunk = args[1]
    sent = bool(result)
    return {"items": int(chunk.shape[0]) if sent else 0,
            "bytes": int(chunk.nbytes) if sent else 0}


def _save_note(args, kwargs, result) -> dict:
    store = args[0]
    path = store.snapshot_path(int(result["generation"]))
    return {"bytes": int(path.stat().st_size)}


KERNEL_OPS = {
    "membership_probe": _probe_note,
    "cm_update_weighted": _cm_update_note,
    "cm_estimate": _cm_estimate_note,
    "exchange_candidates": _candidates_note,
}


class Instrumentation:
    """Install span wrappers on every traced layer; undo them on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch_class(self, cls, attr, name, note=None) -> None:
        raw = cls.__dict__.get(attr, _MISSING)
        wrapper = self.recorder.wrap(name, getattr(cls, attr), note)
        if isinstance(raw, classmethod):
            wrapper = staticmethod(wrapper)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, raw))

    def _patch_instance(self, obj, attr, name, note=None) -> None:
        setattr(obj, attr, self.recorder.wrap(name, getattr(obj, attr), note))
        self._undo.append((obj, attr, _MISSING))

    def __enter__(self) -> "Instrumentation":
        from repro.core.filters import RelaxedHeapFilter
        from repro.core.staged import StagedSynopsis
        from repro.kernels import active_backend
        from repro.runtime.engine import StreamEngine
        from repro.runtime.parallel import ChunkRing, ParallelIngestRuntime
        from repro.runtime.reliability import CheckpointStore, ResilientEngine
        from repro.runtime.sharding import ShardedASketch
        from repro.sketches.count_min import CountMinSketch

        patch = self._patch_class
        patch(StreamEngine, "run", "engine.run")
        patch(ResilientEngine, "run", "reliability.run")
        patch(CheckpointStore, "save", "reliability.checkpoint_save", _save_note)
        patch(ParallelIngestRuntime, "run", "parallel.run")
        patch(ChunkRing, "put", "parallel.ring_put", _put_note)
        patch(StagedSynopsis, "process_batch", "staged.process_batch")
        patch(StagedSynopsis, "query_batch", "staged.query_batch")
        patch(StagedSynopsis, "state", "synopses.state")
        # The paper's default filter, which every benchmark synopsis uses.
        for attr in ("add_many_if_present", "lookup_many", "insert",
                     "replace_min"):
            patch(RelaxedHeapFilter, attr, f"filters.{attr}")
        patch(CountMinSketch, "update_batch_weighted",
              "sketches.update_batch_weighted", _keys_note)
        for attr in ("estimate_batch", "update", "estimate"):
            patch(CountMinSketch, attr, f"sketches.{attr}")
        for attr in ("owners_of", "process_batch", "merge", "query_batch"):
            patch(ShardedASketch, attr, f"sharding.{attr}")
        patch(ShardedASketch, "from_state", "sharding.from_state")
        patch(ShardedASketch, "state", "synopses.state")
        backend = active_backend()
        for op, note in KERNEL_OPS.items():
            self._patch_instance(backend, op, f"kernels.{op}", note)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()
