"""Host time rescaled to a reference core speed.

On a shared host the core a rep runs on slows down in bursts: for half a
second at a time it may run about 1.5x slower because of other work on
the same physical core.  Those bursts, not the program, spread the raw
wall times of identical reps by 10-25 %.

A :class:`SpeedClock` measures how fast the core runs while a rep runs.
Every :data:`INTERVAL_S` of host time, ``SIGALRM`` runs a fixed
pure-Python loop twice and times the second pass (the first refills the
caches the program evicted).  ``NOMINAL_S / sample`` is the core's speed
at that moment relative to a quiet core; the samples are evenly spaced
in host time, so their mean is the core's average speed over an
interval.  Host time spent in the program, times that speed, is the time
the program would have taken on a core running at the nominal speed:
the *reference seconds* the benchmark reports every end-to-end time in.
The sampling loop's own time is taken out first.
"""

import signal
import statistics
import time

#: Iterations of one reference pass.
LOOPS = 800

#: One reference pass on a quiet core of the host the benchmark was
#: written on (2-vCPU Intel Xeon VM, python 3.11): the speed that reads 1.
NOMINAL_S = 62e-6

#: Host time between two samples.
INTERVAL_S = 0.01


def reference_pass(loops: int = LOOPS) -> float:
    """Host seconds one pass of the reference loop takes."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(loops):
        total += i * 0.5
        table[i & 63] = total
    return time.perf_counter() - start


class SpeedClock:
    """Samples the core's speed on ``SIGALRM`` between :meth:`start` and
    :meth:`stop`; :meth:`reference_s` converts a host interval that began
    at a :meth:`mark` into reference seconds."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.speeds = []
        self.probe_s = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_pass()
        self.speeds.append(NOMINAL_S / reference_pass())
        self.probe_s += time.perf_counter() - start

    def start(self) -> None:
        """Take one sample now and then one every ``interval_s``."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        """Stop sampling and put the previous ``SIGALRM`` handler back."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM,
                      signal.SIG_DFL if self._previous is None else self._previous)

    def mark(self) -> tuple:
        """Where an interval begins: samples taken and probe time so far."""
        return len(self.speeds), self.probe_s

    def reference_s(self, host_s: float, mark: tuple) -> tuple:
        """``(reference seconds, mean speed)`` of ``host_s`` host seconds
        that began at ``mark``, without the sampling loop's own time."""
        count, probe_s = mark
        speed = statistics.fmean(self.speeds[count:] or self.speeds[-1:])
        return (host_s - (self.probe_s - probe_s)) * speed, speed
