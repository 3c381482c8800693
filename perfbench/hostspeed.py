"""Host-speed probe: puts timings taken on a shared host on one scale.

A small VM on a shared host does not run at one speed.  Identical
CPU-bound work (a pure-Python loop, a numpy sort, ``query_batch``) takes
up to twice as long in some seconds as in others, and the slow and fast
phases last from under a second to tens of seconds.  A run's wall-clock
figures are then set mostly by how much of the run fell into slow
phases, not by the program.

The probe is a fixed piece of work that calls nothing of the program:
a pure-Python integer loop, then a list of Python ints built from a
fixed numpy array, about 2 ms in all.  The loop follows the host's CPU
speed; the list follows what slows allocation-heavy numpy-to-Python
code further (the program's ``query_batch`` returns such a list).  In
a two-minute check interleaving both with the program, the spread of
``query_batch`` time over 20-sample windows was 0.22-0.25 raw, 0.10-0.11
scaled by the loop alone and 0.06-0.08 scaled by loop and list.  It is timed right before
and right after each piece of measured work, and that work's time is
rescaled by ``REFERENCE_S / probe time``, the mean of the two probes
bracketing it.  The result reads as the time the work would take at
the reference speed: in seconds, close to the raw figure on a typical
phase.  The probe itself is never inside a measured interval.

The work measured before a probe barely moves its time: the array is
read once, untimed, before the timed part, and a probe taken right
after 15 chunks of ``flat-checkpointed`` ingest read 0.3% slower than
one taken right after another probe.  A probe that ran ``np.unique``
over a cold 64 KB array read 4.2% slower there, which would have let a
change to the program's memory footprint move the scale.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe duration taken as the reference speed (about a typical phase of
#: a 2-vCPU Xeon VM).  Any constant works: both sides of a comparison
#: are scaled by it alike.
REFERENCE_S = 2.5e-3
_LOOP = 12_500
_INTS = 10_000


class SpeedProbe:
    """Times the fixed probe; :meth:`scale` converts raw seconds."""

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).integers(0, 1 << 40, _INTS)
        #: Every probe duration taken, in order.
        self.samples: list[float] = []

    def __call__(self) -> float:
        clock = time.perf_counter
        array = self._array
        array.sum()
        start = clock()
        total = 0
        for i in range(_LOOP):
            total += i * i
        ints = [int(v) for v in array]
        del ints
        duration = clock() - start
        self.samples.append(duration)
        return duration

    @staticmethod
    def scale(raw_s: float, before: float, after: float) -> float:
        """``raw_s`` at the reference speed, given the probes around it."""
        return raw_s * 2.0 * REFERENCE_S / (before + after)

    def timed(self, call) -> tuple[float, float]:
        """(raw, scaled) seconds of ``call()``, bracketed by probes."""
        before = self()
        start = time.perf_counter()
        call()
        raw = time.perf_counter() - start
        return raw, self.scale(raw, before, self())
