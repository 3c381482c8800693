"""Stream datasets: synthetic Zipf/uniform plus the paper's real-data surrogates.

The paper evaluates on (§7.1):

* a **synthetic** Zipf stream — 32M tuples over 8M distinct items, skew
  varied 0..3 (:func:`~repro.streams.zipf.zipf_stream`);
* the **IP-trace** network stream — 461M tuples, 13M distinct edges,
  max frequency 17 978 588, Zipf-like skew 0.9.  Proprietary, so
  :func:`~repro.streams.ip_trace.ip_trace_stream` synthesises an edge
  stream with those published statistics (see DESIGN.md substitution 3);
* the **Kosarak** click stream — 8M clicks, 40 270 distinct items,
  max frequency 601 374, Zipf-like skew 1.0; same treatment
  (:func:`~repro.streams.kosarak.kosarak_stream`).

All generators return a :class:`~repro.streams.base.Stream` with integer
keys, a cached exact counter, and provenance metadata; they are
deterministic in their ``seed``.
"""

from repro.streams.base import Stream
from repro.streams.ip_trace import decode_edge, encode_edge, ip_trace_stream
from repro.streams.kosarak import kosarak_stream
from repro.streams.uniform import uniform_stream
from repro.streams.zipf import zipf_stream

__all__ = [
    "Stream",
    "decode_edge",
    "encode_edge",
    "ip_trace_stream",
    "kosarak_stream",
    "uniform_stream",
    "zipf_stream",
]
