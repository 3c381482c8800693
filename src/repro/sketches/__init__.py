"""Sketch synopses: Count-Min, Count Sketch, FCM, Holistic UDAFs.

All sketches implement the :class:`~repro.sketches.base.FrequencySketch`
interface (point updates returning the post-update estimate, point queries,
batch forms, byte-accurate sizing, operation counting) so that
:class:`~repro.core.asketch.ASketch` can sit on top of any of them —
the paper demonstrates Count-Min (§7.2) and FCM ("ASketch-FCM", Figure 8)
backends, both of which are reproduced here.
"""

from repro.sketches.base import FrequencySketch, row_width_for_bytes
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.fcm import FrequencyAwareCountMin
from repro.sketches.holistic_udaf import HolisticUDAF

__all__ = [
    "CountMinSketch",
    "CountSketch",
    "FrequencyAwareCountMin",
    "FrequencySketch",
    "HolisticUDAF",
    "row_width_for_bytes",
]
