"""The paper's primary contribution: ASketch and its filter stage.

* :class:`~repro.core.asketch.ASketch` — Algorithms 1 & 2 of the paper
  (stream processing with filter/sketch exchange, query processing) plus
  the Appendix A deletion support and top-k queries.
* :mod:`repro.core.filters` — the four filter implementations compared in
  §6.1/§7.5: Vector, Strict-Heap, Relaxed-Heap, Stream-Summary.
* :mod:`repro.core.staged` — the staged-synopsis core the ASketch is
  built on: a pluggable front stage and back stage joined by the
  paper's exchange step.
* :mod:`repro.core.analysis` — the closed-form model of §4 (Table 2,
  Theorem 1, Zipf filter selectivity) and Appendix C.2's exchange bounds.
"""

from repro.core.asketch import ASketch
from repro.core.kernel_group import KernelGroup
from repro.core.staged import StagedSynopsis
from repro.core.filters import (
    Filter,
    RelaxedHeapFilter,
    StreamSummaryFilter,
    StrictHeapFilter,
    VectorFilter,
    make_filter,
)

__all__ = [
    "ASketch",
    "Filter",
    "KernelGroup",
    "StagedSynopsis",
    "RelaxedHeapFilter",
    "StreamSummaryFilter",
    "StrictHeapFilter",
    "VectorFilter",
    "make_filter",
]
