"""Program time in reference seconds, steadied against host speed drift.

The benchmark runs on a few cores of a shared host whose speed follows
its neighbours' load: the same loop of `discriminant` calls takes up to
±20% more or less time from one second to the next, and 30-second
averages differ by as much.  So during every timed program call a
SIGALRM timer runs a fixed reference loop every `PERIOD_S` seconds (small
dense determinants, FFTs and elementwise numpy calls, the mix that
dominates an evaluation of the discriminant), times it, and takes its
time out of the call's time.  The call's time is then scaled by
`REFERENCE_S / mean(reference times of the samples taken during it)`,
or of the `WINDOW` samples nearest to it when it took fewer: the result
is what the call would have taken on a host that runs the reference
loop in `REFERENCE_S` seconds.  Samples are only ever taken from the
handler, that is, in the middle of program work: back-to-back samples
read faster, because they find the loop's data in the caches.

A change to the program does not change the reference loop, so it shows
in full; a change in host speed moves both and cancels.  The raw wall
time is kept beside the scaled one in every result file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Seconds between reference samples during a program call.
PERIOD_S = 0.05
#: Reference samples a call is scaled by, at least: a call shorter than
#: WINDOW periods borrows the samples nearest to it in time.
WINDOW = 8
#: Reference-loop seconds of the host speed the scaled times refer to
#: (the median on a 2-vCPU Intel Xeon VM at a quiet time).
REFERENCE_S = 6.0e-4

_rng = np.random.default_rng(20210115)
_MATRIX = _rng.standard_normal((33, 33)) + 1j * _rng.standard_normal((33, 33))
_VECTOR = _rng.standard_normal(128) + 0j


def reference_loop() -> complex:
    """Fixed work: 33x33 complex determinants, FFTs and elementwise calls."""
    acc = 0j
    for i in range(12):
        acc += np.linalg.det(_MATRIX * (1.0 + 1e-3 * i))
        acc += np.fft.fft(_VECTOR)[3]
        acc += np.sum(np.exp(_VECTOR * 0.01))
    return acc


class HostClock:
    """Times program calls in wall seconds and in reference seconds.

    Outside `sampling()` it takes no samples, and reference seconds
    equal wall seconds.
    """

    def __init__(self):
        self.sample_times: list = []  # perf_counter at each sample, increasing
        self.samples: list = []       # reference-loop seconds of each sample
        self._sampling = False
        self._in_handler = 0.0        # seconds the handler took during the current call

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.sample_times.append(t0)
        self.samples.append(dt)
        self._in_handler += dt

    @contextmanager
    def sampling(self):
        """Context in which timed calls take reference samples."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sampling = True
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sampling = False

    def start(self) -> float:
        self._in_handler = 0.0
        t0 = time.perf_counter()
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return t0

    def stop(self, t0: float) -> tuple:
        """(start, end, wall seconds without the samples) of the call begun by `start`."""
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        return t0, end, end - t0 - self._in_handler

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean of the samples taken in [t0, t1], or of the WINDOW nearest."""
        lo = bisect.bisect_left(self.sample_times, t0)
        hi = bisect.bisect_right(self.sample_times, t1)
        if hi - lo < WINDOW:
            lo = max(0, min((lo + hi) // 2 - WINDOW // 2, len(self.samples) - WINDOW))
            hi = lo + WINDOW
        window = self.samples[lo:hi]
        return REFERENCE_S / statistics.fmean(window) if window else 1.0
