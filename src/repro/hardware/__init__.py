"""Hardware substrate: cost model, pipeline and SPMD parallel simulators.

The paper's throughput results (Figures 5, 10, 12, 13, 14, 15a and Table 1)
were measured on a 2.27 GHz Xeon L5520 running hand-tuned C with SSE2
intrinsics.  Absolute items/ms are not reproducible from Python, so this
package provides the machinery for *modeled* throughput:

* every data structure in the library counts its abstract operations into an
  :class:`~repro.hardware.costs.OpCounters` record (hash evaluations, SIMD
  probe blocks, sketch cells touched, heap fix-ups, pointer dereferences,
  exchanges, ...);
* :class:`~repro.hardware.costs.CostModel` converts an operation record into
  cycles using per-operation costs with a cache-residency term, calibrated
  so that the Count-Min baseline lands near the paper's reported
  ~6 500 items/ms;
* :class:`~repro.hardware.pipeline.PipelineSimulator` models the two-core
  filter/sketch decomposition of §6.2 (Figure 12);
* :class:`~repro.hardware.spmd.SpmdModel` models the multi-kernel SPMD
  scaling of §6.3 (Figure 13).

Wall-clock Python throughput is additionally measured by the pytest-benchmark
suite; the experiments report both.
"""

from repro.hardware.cache import CacheStats, SetAssociativeCache, simulate_sketch_hit_ratios
from repro.hardware.costs import CacheLevel, CostModel, OpCounters
from repro.hardware.pipeline import PipelineResult, PipelineSimulator
from repro.hardware.spmd import SpmdModel, SpmdResult

__all__ = [
    "CacheLevel",
    "CacheStats",
    "CostModel",
    "OpCounters",
    "PipelineResult",
    "PipelineSimulator",
    "SetAssociativeCache",
    "SpmdModel",
    "SpmdResult",
    "simulate_sketch_hit_ratios",
]
