"""Shared scenario harness for the staged-refactor equivalence suite.

The harness runs a fixed Zipf workload through an :class:`~repro.ASketch`
under every (filter kind x sketch backend x ingest path) combination
and reduces the result to a JSON-serialisable record:
probe-key estimates, exchange/mass/miss tallies, the full
:class:`~repro.OpCounters` field map, and a sha256 digest of the
canonical ``state()`` encoding.

``generate_golden.py`` ran this harness against the *pre-refactor*
``ASketch`` (commit ``0b71a63``) to produce ``golden_asketch.json``;
``test_equivalence.py`` replays the identical scenarios against the
current implementation and requires every record to match bit-for-bit.
Because both sides share this module, any drift is in the sketch code,
not the measurement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.asketch import ASketch
from repro.streams.zipf import zipf_stream

GOLDEN_PATH = Path(__file__).with_name("golden_asketch.json")

FILTER_KINDS = ("vector", "strict-heap", "relaxed-heap", "stream-summary")
SKETCH_BACKENDS = ("count-min", "fcm", "count-sketch")
PATHS = ("scalar", "batched")

STREAM_ITEMS = 30_000
STREAM_DOMAIN = 6_000
STREAM_SKEW = 1.3
STREAM_SEED = 17
TOTAL_BYTES = 16 * 1024
FILTER_ITEMS = 16
SKETCH_SEED = 9
CHUNK_SIZE = 2_048
#: The kernels the golden records were taken with, the last part of
#: every scenario id.
KERNELS = "numpy"


def scenario_ids() -> list[str]:
    """Every scenario id, in deterministic order."""
    return [
        scenario_id(kind, backend, path)
        for kind in FILTER_KINDS
        for backend in SKETCH_BACKENDS
        for path in PATHS
    ]


def scenario_id(filter_kind: str, sketch_backend: str, path: str) -> str:
    return f"{filter_kind}|{sketch_backend}|{path}|{KERNELS}"


def _workload() -> tuple[np.ndarray, np.ndarray]:
    """The shared stream plus probe keys (hot, mid, and absent ids)."""
    stream = zipf_stream(
        STREAM_ITEMS, STREAM_DOMAIN, STREAM_SKEW, seed=STREAM_SEED
    )
    keys = stream.keys
    probes = np.concatenate(
        [
            keys[:150],
            np.arange(STREAM_DOMAIN, STREAM_DOMAIN + 50, dtype=np.int64),
        ]
    ).astype(np.int64)
    return keys, probes


def state_digest(state) -> str:
    """A canonical sha256 over a SynopsisState's full contents."""
    digest = hashlib.sha256()
    digest.update(state.kind.encode())
    digest.update(
        json.dumps(state.params, sort_keys=True, default=str).encode()
    )
    digest.update(
        json.dumps(state.extra, sort_keys=True, default=str).encode()
    )
    for name in sorted(state.arrays):
        array = np.ascontiguousarray(state.arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def run_scenario(filter_kind: str, sketch_backend: str, path: str) -> dict:
    """Ingest the shared workload under one configuration and summarise."""
    keys, probes = _workload()
    asketch = ASketch(
        total_bytes=TOTAL_BYTES,
        filter_items=FILTER_ITEMS,
        filter_kind=filter_kind,
        sketch_backend=sketch_backend,
        seed=SKETCH_SEED,
    )
    if path == "scalar":
        asketch.process_stream(keys)
    else:
        for offset in range(0, keys.shape[0], CHUNK_SIZE):
            asketch.process_batch(keys[offset : offset + CHUNK_SIZE])
    ops = asketch.combined_ops()
    return {
        "ops": {
            field.name: int(getattr(ops, field.name))
            for field in dataclasses.fields(ops)
        },
        "exchange_count": int(asketch.exchange_count),
        "total_mass": int(asketch.total_mass),
        "overflow_mass": int(asketch.overflow_mass),
        "miss_events": int(asketch.miss_events),
        "state_digest": state_digest(asketch.state()),
        "estimates": [int(value) for value in asketch.query_batch(probes)],
        "top_k": [[int(key), int(count)] for key, count in asketch.top_k()],
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
