"""The machine's speed, sampled while a pass runs.

The hosts this benchmark runs on are shared, and their speed drifts by tens of
percent over seconds to minutes, in CPU time as much as in wall time.  A pass
of a job list takes 10 to 15 s, so raw pass times spread by as much as the
drift, and a short run of a few passes cannot average it away.

``SpeedProbe`` measures the drift where it happens: a timer signal every
``PERIOD_S`` seconds runs a fixed pure-Python loop in the main thread, between
two bytecodes of whatever the program is doing, and records the loop's CPU
time (``thread_time``, so that time the thread is descheduled, e.g. while the
``--workers 2`` processes run, is not counted as slowness).  The median of a
pass's samples over ``REF_S`` is the pass's slowdown; a time divided by it is
the time on a machine on which one loop takes ``REF_S`` of CPU time.  The
wall time spent in the handler is counted (``spent``) so that callers can take
it out of the times they measure.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

LOOP = 30_000
REF_S = 0.0029  # CPU time of one loop, roughly its median on a 2-vCPU cloud VM
PERIOD_S = 0.2
FIRST_SAMPLES = 3


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old = None

    def sample(self) -> None:
        w0, c0 = perf_counter(), thread_time()
        _loop()
        self.samples.append(thread_time() - c0)
        self.spent += perf_counter() - w0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        for _ in range(FIRST_SAMPLES):
            self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REF_S
