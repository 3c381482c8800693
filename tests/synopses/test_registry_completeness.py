"""Every registered kind builds, persists, and merges (or refuses, typed).

The registry (``repro.synopses.spec``) is the single construction path
for the CLI, experiments, checkpoints and shard groups — so a kind that
is registered but cannot build from a spec, or whose state does not
survive ``save_synopsis``/``load_synopsis``, is a latent production
bug.  This suite closes the loop: the ``DEFAULT_PARAMS`` table below
must cover the registry *exactly* (adding a kind without a row here
fails the test), and every kind must

1. build from a plain ``SynopsisSpec``;
2. roundtrip through save/load with ``SynopsisState.equals`` —
   bit-identical params, arrays and extra, not just equal answers;
3. either merge losslessly (one-sided over the union of two split
   streams) or refuse with a typed :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.persistence import load_synopsis, save_synopsis
from repro.streams.zipf import zipf_stream
from repro.synopses import SynopsisSpec, build_synopsis, registered_kinds
from repro.synopses.protocol import synopsis_state_of

STREAM = zipf_stream(12_000, 3_000, 1.3, seed=41)

#: One buildable parameter set per registered kind.  Keep in sync with
#: ``repro.synopses.spec._BUILTIN_KINDS`` — the completeness test below
#: fails when a kind is registered without a row here (or vice versa).
DEFAULT_PARAMS: dict[str, dict] = {
    "count-min": {"num_hashes": 4, "row_width": 256, "seed": 3},
    "count-sketch": {"num_hashes": 5, "row_width": 256, "seed": 3},
    "fcm": {"num_hashes": 4, "row_width": 128, "mg_capacity": 16, "seed": 3},
    "holistic-udaf": {"table_items": 16, "total_bytes": 16 * 1024, "seed": 3},
    "space-saving": {"capacity": 24},
    "misra-gries": {"capacity": 24},
    "asketch": {"total_bytes": 16 * 1024, "filter_items": 8, "seed": 3},
    "sharded-asketch": {
        "shards": 2, "total_bytes": 8 * 1024, "filter_items": 8, "seed": 3,
    },
    "shard-supervisor": {
        "shards": 2, "total_bytes": 8 * 1024, "filter_items": 8, "seed": 3,
    },
}

#: Kinds whose estimates are *not* one-sided over-estimates (signed
#: estimators / decremented counters) — merge losslessness is checked
#: via mass instead of per-key dominance for these.
NOT_ONE_SIDED = {"count-sketch", "misra-gries", "space-saving"}


def _build(kind: str):
    return build_synopsis(SynopsisSpec(kind, dict(DEFAULT_PARAMS[kind])))


def _ingest(synopsis, keys: np.ndarray) -> None:
    process = getattr(synopsis, "process_stream", None)
    if process is not None:
        process(keys)
        return
    for key in keys.tolist():
        synopsis.update(int(key))


def _estimate(synopsis, key: int) -> int:
    return int(synopsis.estimate(int(key)))


def test_every_registered_kind_has_default_params():
    assert sorted(DEFAULT_PARAMS) == registered_kinds()


@pytest.mark.parametrize("kind", sorted(DEFAULT_PARAMS))
class TestEveryRegisteredKind:
    def test_builds_from_spec(self, kind):
        synopsis = _build(kind)
        assert synopsis.SYNOPSIS_KIND == kind
        assert synopsis.size_bytes > 0

    def test_state_roundtrips_bit_identically(self, kind, tmp_path):
        synopsis = _build(kind)
        _ingest(synopsis, STREAM.keys)
        path = tmp_path / f"{kind}.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        assert type(restored) is type(synopsis)
        assert synopsis_state_of(restored).equals(synopsis_state_of(synopsis))

    def test_merges_losslessly_or_raises_typed(self, kind):
        half = STREAM.keys.shape[0] // 2
        a, b = _build(kind), _build(kind)
        _ingest(a, STREAM.keys[:half])
        _ingest(b, STREAM.keys[half:])
        try:
            a.merge(b)
        except ReproError:
            # A typed refusal is a valid contract (geometry
            # mismatches) — a bare TypeError/AttributeError is not,
            # and would escape this except clause.
            return
        keys, counts = np.unique(STREAM.keys, return_counts=True)
        if kind in NOT_ONE_SIDED:
            # Signed/decremented estimators: merged top estimates must
            # still cover the union's head mass within their usual bias.
            assert _estimate(a, int(keys[np.argmax(counts)])) > 0
        else:
            for key, count in zip(keys.tolist(), counts.tolist()):
                assert _estimate(a, key) >= count, kind
