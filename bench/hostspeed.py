"""Host-speed probe: scales measured times to a fixed reference host speed.

On a shared host the speed of the CPU a run gets can change twofold within
seconds and drift for minutes, so raw wall times of the same work spread
more between runs than any useful regression bound.  While a probe is
active, a timer signal every INTERVAL_S runs a fixed piece of probe work
(UNITS_PER_SAMPLE units of interpreter and small-array work, like rtm's
per-term updates) and records the speed it ran at.  Intervals are measured
with `now()`, which leaves out the probe's own time, and `factor` turns
them into the times they would have taken at REFERENCE_SPEED, using the
mean speed of the whole run.  (Scaling each interval by the speeds sampled
near it instead spread more between runs, most of all for the query tail.)
`Clock` is the unscaled stand-in used when times are reported as measured.
"""

import signal
import time

import numpy as np

#: probe units per second on the reference host: one unit takes 1 ms there
REFERENCE_SPEED = 1000.0
#: seconds between speed samples; a sample runs inside whichever operation it
#: lands in, so this keeps them to far fewer than 1 in 100 sub-ms queries
INTERVAL_S = 0.5
UNITS_PER_SAMPLE = 8

_VECTOR = np.linspace(0.0, 1.0, 10)


def _unit():
    """One unit of probe work: 200 softmax updates of a 10-vector."""
    total = 0.0
    for i in range(200):
        x = np.exp(_VECTOR - _VECTOR[i % 10])
        x /= x.sum()
        total += float(x[i % 10])
    return total


class Clock:
    """Plain wall clock; intervals are reported as measured."""

    def now(self):
        return time.perf_counter()

    def factor(self):
        return 1.0


class HostProbe(Clock):
    """Wall clock without the probe's time, plus host-speed samples.

    Use as a context manager in the main thread; `factor` may be called
    once it has exited.
    """

    def __init__(self):
        self.busy = 0.0          # seconds spent in the probe so far
        self.samples = []        # units per second of every sample

    def now(self):
        return time.perf_counter() - self.busy

    def _sample(self, signum, frame):
        start = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            _unit()
        end = time.perf_counter()
        self.samples.append(UNITS_PER_SAMPLE / (end - start))
        self.busy += end - start

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_speed(self):
        return float(np.mean(self.samples))

    def factor(self):
        """Mean sampled speed over REFERENCE_SPEED."""
        return self.mean_speed() / REFERENCE_SPEED
