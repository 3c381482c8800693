"""Ablation: SIMD vs scalar filter probing (§6.1, Algorithm 3).

Wall-clock comparison of the three find-index kernels on a 32-id filter
array, plus the cost model's view of the same choice (one 16-id probe
block vs 32 scalar comparisons), plus the *batch* membership check:
the per-key python lane emulation and the vectorised
:mod:`repro.kernels` probe a :meth:`Filter.add_many_if_present` call
runs agree over a whole key batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.costs import CostModel, OpCounters
from repro.kernels import active_backend
from repro.simd.engine import (
    numpy_find_index,
    scalar_find_index,
    simd_find_index,
    simd_probe_blocks,
)

IDS = np.arange(1, 33, dtype=np.int32)
PROBES = [1, 16, 32, 99]  # first, middle, last, miss


@pytest.mark.parametrize(
    "kernel", [numpy_find_index, scalar_find_index, simd_find_index],
    ids=["numpy", "scalar", "simd-faithful"],
)
def test_probe_kernel(benchmark, kernel):
    def probe_all():
        return [kernel(IDS, probe) for probe in PROBES]

    results = benchmark(probe_all)
    assert results == [0, 15, 31, -1]


def test_modeled_simd_advantage():
    """The cost model prices a 32-id SIMD scan ~6x below a scalar scan,
    which is what makes the filter's t_f << t_s in §4."""
    model = CostModel()
    simd_ops = OpCounters(filter_probe_blocks=simd_probe_blocks(32))
    scalar_ops = OpCounters(scalar_comparisons=32)
    simd_cycles = model.cycles(simd_ops, 512)
    scalar_cycles = model.cycles(scalar_ops, 512)
    assert simd_cycles * 4 < scalar_cycles


def test_batch_probe_backends():
    """The two bulk membership probe paths agree.

    A full 32-slot filter's key array is probed with a 10K-key batch
    (hit-heavy, with a miss tail), through the per-key python lane
    emulation (``simd_find_index``) and the vectorised numpy kernel.
    Both must return identical slot answers.  Their rates depend on the
    host, so the bench keeps no record of them.
    """
    rng = np.random.default_rng(7)
    capacity = 32
    monitored = rng.choice(np.arange(100, 4096), size=capacity, replace=False)
    stored = monitored.astype(np.int64)
    batch = np.concatenate(
        [
            rng.choice(monitored, size=8_000),  # hits
            rng.integers(10_000, 20_000, size=2_000),  # misses
        ]
    ).astype(np.int64)
    rng.shuffle(batch)
    lanes = np.array(
        [
            simd_find_index(stored.astype(np.int32), int(key))
            for key in batch.tolist()
        ],
        dtype=np.int64,
    )
    assert np.array_equal(active_backend().membership_probe(stored, batch), lanes)
