"""Machine-speed calibration for the reported times.

On a shared host the speed of one core drifts by up to half, in phases
of several seconds, as other tenants come and go; a run of 30 seconds
then reads fast or slow depending on the phases it happens to catch.
So every measurement is paired with a fixed calibration loop timed on
the same core right next to it, and times are reported at a reference
speed:

    reported time = measured time * loop's nominal time / loop time

encode-mix times the INTERPRETER loop before every pass, and a setup
process right before and after its imports.  Each verify process and the
bigint rounds time a short loop from a CPU-time timer while they compute
(Sampler), and their timings leave the samples' time out.  bigint uses
BIG_DIVISION, because the interpreter loop slows down more than
big-number arithmetic does when the host is busy.  The loops are the
benchmark's own code, so a change to cnskit moves a reported time by
exactly as much as the measured one.  Run records also carry the
unscaled figures.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

_DIVIDEND = 3 ** 2584  # 4096 bits


def spin(steps: int) -> int:
    # integer arithmetic and dict updates, like the library's inner
    # loops, with nothing left for the garbage collector
    table = dict.fromkeys(range(256), 0)
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 255
        table[key] = table[key] + (x >> 20)
    return x


def divide(steps: int) -> int:
    # backward division of a 4096-bit integer over X^2 + 2X + 2
    a0, a1 = _DIVIDEND, 0
    for _ in range(steps):
        u = a0 % 2
        q = (a0 - u) // 2
        a0, a1 = a1 - 2 * q, -q
    return a0


@dataclass(frozen=True)
class Loop:
    """A calibration loop and the seconds it takes at reference speed."""

    run: Callable[[int], int]
    steps: int
    nominal_s: float

    def seconds(self) -> float:
        start = time.perf_counter()
        self.run(self.steps)
        return time.perf_counter() - start

    def factor(self, seconds: float) -> float:
        """Takes a time measured next to a loop of these seconds to
        reference speed."""
        return self.nominal_s / seconds

    def now(self) -> float:
        return self.factor(self.seconds())

    def mean_factor(self, samples: list[float]) -> float | None:
        return statistics.fmean(map(self.factor, samples)) if samples else None


INTERPRETER = Loop(spin, 30_000, 0.007)
INTERPRETER_SAMPLE = Loop(spin, 8_000, 0.0019)
BIG_DIVISION = Loop(divide, 2_000, 0.0034)


def scale_times(values: dict, factor: float) -> dict:
    """Scale the times in a metric dict, named *_s, *_ms or *_us."""
    return {name: value * factor if name.endswith(("_s", "_ms", "_us")) else value
            for name, value in values.items()}


class Sampler:
    """Times a calibration loop from a timer signal after every period
    seconds of this process's CPU time.

    A CPU-time timer samples only while the process computes, on the
    core it computes on, and never while it waits, for instance for pool
    workers that the loop would compete with.  ``spent`` is the time the
    samples took, to be left out of any timing they fell into.
    """

    def __init__(self, period: float, loop: Loop):
        self.period = period
        self.loop = loop
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        seconds = self.loop.seconds()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def factor(self, since: int = 0) -> float | None:
        """Mean speed factor of the samples from index since on."""
        return self.loop.mean_factor(self.samples[since:])
