"""A reference clock, sampled on the request's own CPU while it is paused.

The host this benchmark was built on is a shared virtual machine whose
speed moves by up to 2x within tens of seconds, with CPU time tracking wall
time (the slowdown is contention on the host, not lost CPU time).  Times
read on an ordinary clock then spread by 15-40% between runs of the same
code.  So the runner also reads each request on a reference clock: every
SAMPLE_EVERY_S it stops the request process (SIGSTOP), runs one tick of a
fixed pure-Python loop on the same CPU, and lets the request go on
(SIGCONT).  The paused time is not counted as the request's.  A tick takes
about as long as the host is slow at that moment, so

    ref time = raw time * TICK_S / (mean duration of the ticks taken
                                    during the request)

``TICK_S`` is a constant near the tick's duration on that host, so a
reference time reads roughly like seconds there; on another machine it is
off by a constant factor, which cancels when two versions are compared on
the same machine.  The loop runs in the runner, not in the request process,
and never at the same time as the request, so the program's own work and
memory are untouched; the pauses add about 2% to a run's length.

Sampled this way on 5 runs of verify-24, a loop like this one tracked the
request's time with correlation 0.82 and cut the spread between runs from
0.135 to 0.073 of the median; the same loop run at the same time on the
other CPU did not track it at all (correlation -0.01 over 10 runs).  The
loop keeps a few kB of data, so the runner's peak RSS, which the kernel
hands on to each request it spawns, stays below every request's own.
"""

from __future__ import annotations

import time

# a fixed constant, never measured at run time: about a tick's duration on a
# 2-core Intel Xeon container (2.0 GHz, Python 3.11), where ticks took
# 1.0-2.5 ms as the host's speed moved
TICK_S = 0.002
SAMPLE_EVERY_S = 0.1
# a request with fewer ticks than this is read with the run's mean tick
MIN_TICKS = 10


class RefClock:
    """Ticks of the reference loop, kept for the whole run."""

    def __init__(self):
        self.ticks: list[float] = []  # durations

    def tick(self) -> None:
        """Small-int arithmetic, tuple keys in a dict and short lists of
        ints: a fixed mix of what absplit spends its time on."""
        t0 = time.monotonic()
        table: dict[tuple[int, int], int] = {}
        acc = 0
        for i in range(3000):
            key = (i % 31, i & 7)
            table[key] = table.get(key, 0) + i
            acc = (acc * 31 + key[0] * key[1] + i) % 1000003
        rows = [[(x * y + acc) % 7 for x in range(6)] for y in range(80)]
        rows.sort()
        self.ticks.append(time.monotonic() - t0)

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """TICK_S over the mean of ticks[lo:hi]; the whole run's mean when
        that slice has fewer than MIN_TICKS ticks; 1.0 with no ticks at all."""
        part = self.ticks[lo:hi]
        if len(part) < MIN_TICKS:
            part = self.ticks
        if not part:
            return 1.0
        return TICK_S * len(part) / sum(part)
