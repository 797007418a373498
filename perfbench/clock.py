"""Wall times rescaled to a fixed machine speed.

On a shared host the speed of a vCPU drifts by up to 1.6x over seconds to
minutes, as neighbours come and go, and every timing drifts with it.  Fixed
reference units, independent of circumproj, are timed in short bursts
between the timed operations.  An operation's time is then rescaled by its
reference's nominal time over the median reference time around it:

    scaled = wall * nominal / median(reference samples near it)

which is its wall time on a machine where one reference unit takes its
nominal time.  A change to the program moves the scaled time exactly as it
moves the wall time; a change of machine speed moves the reference too and
cancels out.

Kernels do not all slow down alike in a slow phase.  On a 2-vCPU x86_64 VM
interpreter-bound code and small LAPACK calls slowed by up to 1.6x together,
while a 476x500 SVD slowed about half as much, in step with a 128x128 SVD.
So there are two references, and each workload names the operations that
are timed against the large one (Workload.large_lapack).  The rescaling
removes most of the drift, not all of it: over ten seeds it cut the spread
of slow-angles' e2e_s from ~0.2-0.3 to ~0.05 of the median.
"""

import bisect
import statistics
import time

import numpy as np

# Reference samples within this many seconds of an operation give its
# speed; drift phases last several seconds.
WINDOW_S = 1.0
MIN_SAMPLES = 8

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64))
_LARGE = _rng.standard_normal((128, 128))


def small_unit():
    """Interpreter work and a small LAPACK call, in about equal parts."""
    total = 0
    for i in range(8000):
        total += i * i
    np.linalg.svd(_SMALL)
    return total


def large_unit():
    """One 128x128 SVD."""
    return np.linalg.svd(_LARGE)


# kind -> (unit, nominal seconds of one unit, units per burst).  The nominal
# times are one unit on a 2-vCPU x86_64 VM in a quiet phase.  They set the
# scale of every timing metric, so they must never change between the two
# sides of a comparison.
REFERENCES = {
    "small": (small_unit, 1.2e-3, 2),
    "large": (large_unit, 3.5e-3, 1),
}


class SpeedClock:
    """Times operations and reference bursts on one time line."""

    def __init__(self, kinds):
        # kind -> (midpoints of its samples, increasing; their durations)
        self.samples = {kind: ([], []) for kind in kinds}

    def burst(self):
        for kind, (at, seconds) in self.samples.items():
            unit, _, count = REFERENCES[kind]
            for _ in range(count):
                start = time.perf_counter()
                unit()
                end = time.perf_counter()
                at.append((start + end) / 2)
                seconds.append(end - start)

    def timed(self, call):
        """(wall seconds, start, result) of `call()`, between two bursts."""
        self.burst()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        self.burst()
        return seconds, start, result

    def speed(self, kind, start, end):
        """Median time of a `kind` reference unit around [start, end]."""
        at, seconds = self.samples[kind]
        lo = bisect.bisect_left(at, start - WINDOW_S)
        hi = bisect.bisect_right(at, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            # Widen to the nearest samples on both sides.
            mid = bisect.bisect_left(at, (start + end) / 2)
            lo = max(0, min(lo, mid - MIN_SAMPLES // 2))
            hi = min(len(at), max(hi, mid + MIN_SAMPLES // 2))
        return statistics.median(seconds[lo:hi])

    def scaled(self, seconds, start, kind):
        nominal = REFERENCES[kind][1]
        return seconds * nominal / self.speed(kind, start, start + seconds)
