"""Counter-based stream summaries.

Counter algorithms track approximate counts for *only* the frequent items,
in contrast to sketches which count everything.  The paper uses:

* :class:`~repro.counters.space_saving.SpaceSaving` [27] — the top-k
  baseline of Figure 11, built on the Stream-Summary structure;
* :class:`~repro.counters.misra_gries.MisraGries` [28] — the classifier
  inside Frequency-Aware Counting;
* :class:`~repro.counters.stream_summary.StreamSummary` — the bucket-list
  structure shared by Space Saving and the Stream-Summary filter;
* :class:`~repro.counters.exact.ExactCounter` — the ground truth used by
  every error metric.
"""

from repro.counters.exact import ExactCounter
from repro.counters.misra_gries import MisraGries
from repro.counters.space_saving import SpaceSaving
from repro.counters.stream_summary import StreamSummary

__all__ = [
    "ExactCounter",
    "MisraGries",
    "SpaceSaving",
    "StreamSummary",
]
