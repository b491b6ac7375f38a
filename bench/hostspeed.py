"""Host-speed normalisation of unit times.

On a shared host the speed of a core moves with what other tenants run on
it: on the 2-core Xeon VM this benchmark was written on, the time of a fixed
pure-Python loop moves between two levels about 1.5x apart, each lasting
from a second to over a minute, and the units' wall and CPU times follow it.
A run's median unit time then depends on how much of the run the core spent
slow, which spread ten runs' medians by up to 40%.

While a unit runs, a SpeedSampler times a fixed loop every SAMPLE_PERIOD_S
seconds from a SIGALRM handler, in thread CPU time.  The unit's normalised
time is its time (less the handler's own time) times the mean of
REF_LOOP_S / sample, that is, the seconds the unit would have taken had the
core run the loop at REF_LOOP_S throughout.  The program's work is unchanged
by this: a program that does more work still reports a longer time.

The loop mixes integer arithmetic with parsing number strings.  On that VM,
arithmetic alone under-corrected the CLI workload, whose CSV reading and
writing slows more than arithmetic on a contended core (its ten-run spread
stayed at 0.10), while parsing alone over-corrected the numpy-bound normal
study.  With the mix, the medians of ten runs of each of the three
workloads spread by 0.03-0.05 (interquartile range over median), against
0.09-0.22 as measured.  A last-level cache or memory bus shared with other
tenants is not what the loop measures, so slowdowns of that kind stay in the
normalised times.  In a unit with a
process pool only the parent is sampled, and its core speed stands in for the
workers'; the handler takes about 2% of one core.
"""

from __future__ import annotations

import signal
import time

LOOP_ITERS = 10_000
# Parsed once per sample; object allocation and number parsing, as in the
# CLI's CSV reading, slow more on a shared core than the arithmetic does.
FLOAT_TEXTS = [repr(i / 7) for i in range(1_500)]
# The loop's time on an uncontended core of the 2-core Xeon VM above; only a
# scale, so that normalised times read as seconds on that host.
REF_LOOP_S = 1.0e-3
SAMPLE_PERIOD_S = 0.05


def loop_seconds() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: integer arithmetic,
    then parsing FLOAT_TEXTS (about 0.55 ms and 0.35 ms on an uncontended
    core of that VM)."""
    t0 = time.thread_time()
    s = 0
    for i in range(LOOP_ITERS):
        s += i * i
    sum(float(t) for t in FLOAT_TEXTS)
    return time.thread_time() - t0


class SpeedSampler:
    """Samples the core's speed while its ``with`` block runs.

    The handler runs in the main thread between bytecodes, so a long call
    into native code delays a sample rather than losing it.  Pool workers
    are forked or spawned without the timer and are not sampled.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.thread_time()
        self.samples.append(loop_seconds())
        self.wall_spent += time.perf_counter() - w0
        self.cpu_spent += time.thread_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a unit that failed within one period
            self.samples = [loop_seconds() for _ in range(5)]
        return False

    def speed(self) -> float:
        """Mean of REF_LOOP_S / sample: above 1 on a faster core."""
        return sum(REF_LOOP_S / s for s in self.samples) / len(self.samples)
