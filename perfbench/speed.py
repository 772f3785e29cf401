"""A machine-speed probe that takes other tenants' load out of the timings.

On a shared 2-vCPU host the same single-threaded work runs in a fast and a
slow state (about 1.4x apart) that switch every second or so, and the share
of slow time differs from one run to the next: raw wall times of identical
runs spread 20-30% (quartile distance over median).  The probe is a fixed
numpy kernel of about a millisecond, built from the same operations the
model uses (small matrix products and ``tanh``).  Its durations record how
fast the machine was at each moment.  It runs either when the benchmark
calls :meth:`SpeedProbe.sample` or, inside :meth:`SpeedProbe.ticking`, every
``PERIOD`` seconds from a ``SIGALRM`` interval timer, so where it runs does
not depend on how the program is structured.

A timing over ``[t0, t1]`` is reported as its wall time less the probes
run inside it, times ``NOMINAL_S / mean`` of the probe durations inside the
interval (or of the nearest probes on either side when none fell inside):
the time the work would have taken at the probe's nominal speed.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

PERIOD = 0.05
NOMINAL_S = 1e-3

perf = time.perf_counter


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((80, 50))
        self._w = 0.1 * rng.standard_normal((50, 50))
        self.times: list = []
        self.durations: list = []

    def sample(self) -> None:
        """Run the kernel once and record when and how long."""
        x = self._x
        start = perf()
        for _ in range(40):
            x = np.tanh(x @ self._w) + self._x
        end = perf()
        self.times.append(start)
        self.durations.append(end - start)

    @contextlib.contextmanager
    def ticking(self):
        """Sample every ``PERIOD`` seconds of wall time while the body runs.

        Python runs the handler in the main thread between bytecodes, so a
        sample never splits a call into numpy; it may fall inside any of the
        program's functions, and :meth:`within` tells how much of an
        interval it took.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, t0: float, t1: float) -> float:
        """Seconds of probe samples that started inside ``[t0, t1]``."""
        times = self.times
        if not times or times[-1] < t0:
            return 0.0
        lo = bisect.bisect_left(times, t0)
        hi = bisect.bisect_right(times, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe duration over ``[t0, t1]`` relative to the nominal."""
        if not self.durations:
            raise RuntimeError("the speed probe recorded no sample")
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            window = self.durations[lo:hi]
        else:  # no sample inside: use the neighbours on either side
            window = self.durations[max(lo - 1, 0): lo + 1]
        return sum(window) / len(window) / NOMINAL_S

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds the work in ``[t0, t1]``, less the probes inside it, would
        have taken at nominal speed."""
        return (t1 - t0 - self.within(t0, t1)) / self.factor(t0, t1)
