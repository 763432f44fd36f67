"""Timing scaled to a reference host speed.

The benchmark host is shared: the same fixed work runs up to 1.5 times
slower for seconds at a time, and a 20-second run's wall time spreads by 15
to 25 % (quartile distance over median) across runs.  So every timed call is
bracketed by :func:`reference_loop`, a fixed interpreted loop that shares no
code with the solver, and its wall time is also reported rescaled to the
speed at which the reference takes ``REF_SECONDS``.  A change to the solver
moves the scaled time like the wall time; a slow spell of the host moves both
the call and the reference, and cancels.

The loop was chosen on a 9-minute recording of 43 passes over ``suite20``
with five candidate references timed around every solve.  Scaled by the
loop, the spread of two-pass run totals fell from 0.17 to 0.06; references
built on numpy arrays, object churn or a heap-based Dijkstra tracked the
solver's speed less closely (0.07 to 0.23).
"""

from __future__ import annotations

import time

# median reference_loop() time on the 2-vCPU Xeon (2.1 GHz) host the
# baseline was recorded on, so scaled seconds read close to wall seconds there
REF_SECONDS = 0.015
# The host's speed decorrelates within a few seconds.  A longer call spans
# spells that the two references around it cannot see (scaling a 10 s solve
# doubled its spread), so it keeps its wall time.
SCALE_LIMIT_S = 3.0


def reference_loop() -> float:
    """Wall seconds of a fixed interpreted loop."""

    start = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - start


class HostClock:
    """Times calls in wall seconds and in reference-speed seconds.

    A call shorter than ``SCALE_LIMIT_S`` is scaled by the mean of the
    reference times measured just before and just after it; consecutive
    calls share the reference between them.
    """

    def __init__(self) -> None:
        self._last_ref = reference_loop()

    def time(self, fn):
        """Run ``fn()``; return its result, wall seconds and scaled seconds."""

        before = self._last_ref
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self._last_ref = reference_loop()
        if wall >= SCALE_LIMIT_S:
            return result, wall, wall
        return result, wall, wall * REF_SECONDS / (0.5 * (before + self._last_ref))
