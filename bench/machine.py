"""Machine speed: a fixed exact-rational loop, and times scaled by it.

The speed of the machines this benchmark runs on drifts: the same loop
has taken from 1x to 2x its fastest time within minutes, and whole
minutes run 1.5x slow.  A time measured on a slow minute is therefore
scaled to a reference speed before it becomes a metric:

    scaled = measured * CALIB_REF_MS / (median loop time within
             WINDOW_S seconds of the measurement)

The loop shares no code with ``ncwords``, so a change to the program
moves the scaled times exactly as it moves the measured ones, while
machine drift cancels.  Measured (unscaled) times are printed beside
the metrics.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# The loop's time, in ms, on a 2-CPU sandbox in its fast state; a scaled
# time is the time the same work would take there.
CALIB_REF_MS = 10.0
CALIB_TERMS = 2500
# How often the loop runs during a timed run, and the half-width of the
# window whose samples scale a measurement.
EVERY_S = 0.25
WINDOW_S = 2.0


def calibrate() -> float:
    """Milliseconds for one pass of the fixed loop."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIB_TERMS):
        total += Fraction(1, i)
    return (time.perf_counter() - t0) * 1000


def scale(at: float, samples: list[tuple[float, float]]) -> float:
    """The factor for a measurement taken at ``at``: the reference over
    the median of the samples ``(time, ms)`` within ``WINDOW_S`` of it,
    or of the three nearest when the window holds fewer."""
    near = sorted(samples, key=lambda s: abs(s[0] - at))
    window = [ms for t, ms in near if abs(t - at) <= WINDOW_S]
    if len(window) < 3:
        window = [ms for _, ms in near[:3]]
    return CALIB_REF_MS / statistics.median(window)


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU.

    The CPUs of one machine can run at different speeds at the same time;
    on one CPU the calibration passes see the speed the requests see."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
