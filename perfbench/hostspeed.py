"""Host speed, sampled while an iteration runs.

On a shared host the CPU's speed changes by up to 1.8x in phases that last
from under a second to minutes, so a wall time alone says as much about the
neighbours as about the program.  ``HostSpeed`` times a fixed block of
pure-Python work (``reference_block``) every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, in the benchmark's own process, while the workload
runs.  A block that takes ``d`` seconds means the host ran ``1 / d`` blocks
per second at that moment.  The iteration's cost in blocks is its wall time
times the mean of those rates, which is the integral of the rate over the
iteration when the samples are evenly spaced.  That cost is reported in
``kref`` (thousands of blocks).  It moves much less than the wall time
when the host slows down, because the blocks slow down with the program,
and it falls in proportion when the program does less work.

The block is arithmetic and dict updates only.  Blocks that also read a
2 MiB array, or that allocate and sort objects like the workloads do,
tracked the host's slow phases no better and cost more.  The block
allocates no object that the garbage collector tracks, so it never
triggers a collection of the workload's objects.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
BLOCK_ROUNDS = 1000
_SLOTS = 17
_acc = dict.fromkeys(range(_SLOTS), 0.0)


def reference_block() -> float:
    """A fixed amount of interpreter work: integer and float arithmetic
    and dict updates on existing keys."""
    acc = _acc
    s = 0
    for i in range(BLOCK_ROUNDS):
        k = i % _SLOTS
        acc[k] = acc[k] * 0.5 + i
        s += (i * i) % 7
    return s + acc[0]


def time_block() -> float:
    t0 = time.perf_counter()
    reference_block()
    return time.perf_counter() - t0


def kref(seconds: float, block_s: list[float]) -> float:
    """Thousands of reference blocks the host could have run in ``seconds``
    at the rates ``block_s`` sampled over that time."""
    return seconds * statistics.fmean(1.0 / d for d in block_s) / 1000.0


class HostSpeed:
    """Context manager: samples ``reference_block`` while its body runs.

    One sample is taken on entry and one on exit, so even a short body has
    two.  The previous ``SIGALRM`` handler and timer are restored on exit.
    Use it from the main thread only, as ``signal`` requires.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.block_s: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.block_s.append(time_block())

    def __enter__(self) -> HostSpeed:
        self.block_s.append(time_block())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.block_s.append(time_block())

    def kref_per_s(self) -> float:
        """Mean host speed over the body, in thousands of blocks per second."""
        return kref(1.0, self.block_s)
