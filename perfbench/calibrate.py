"""Machine-speed calibration.

The shared virtual machines this benchmark runs on change speed while it
runs: a core runs the same Python code up to about 1.5x slower for
seconds at a time, with the load of other tenants, and each core on its
own schedule. CPU time does not remove this (the process keeps its CPU
while it runs slowly), and a loop timed on another core does not follow
it.

So each engine process times a fixed pure-Python unit of work, owned by
the benchmark and independent of the program, on its own core and
interleaved with the program's work: between simulator chunks, or every
``EVERY_S`` seconds on a service's event loop. Its duration in CPU time
follows the program's speed from second to second (correlation 0.70 to
0.98 over 1 s bins), though less than one to one: see ``EXPONENT``. A
figure measured while the unit took ``u`` seconds is reported at the
reference speed, divided (a time) or multiplied (a rate) by
:func:`slowdown` of ``u``. A program change does not move the unit, so
it moves the reported figures as much as the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import thread_time
from typing import List, Sequence, Tuple

#: Seconds of CPU one :func:`unit` takes on the reference machine: a
#: round figure near what it took on the 2-vCPU x86 VM the benchmark was
#: sized on (0.75 ms alone on a core, 0.7-1.3 ms beside a running engine).
REFERENCE_UNIT_S = 1.0e-3
#: A service's event loop runs one unit this often (about 1% of a core).
EVERY_S = 0.1
#: The program's speed follows the unit's sublinearly: over 1 s bins the
#: log-log slope of its rate against the unit's time was -0.48 to -0.58
#: on the service workloads and -0.57 to -0.77 on the simulator.
EXPONENT = 0.6
_KERNELS_PER_UNIT = 10


def _kernel(n: int = 60) -> int:
    # Dict updates, list growth and sorting, small bytes objects and
    # calls: the interpreter paths the program spends its time on.
    table: dict = {}
    out: list = []
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        out.append(bytes((i & 255,)) * 8)
        out.sort(key=len)
    return sum(table.values()) + len(b"".join(out))


def unit() -> float:
    """Run one calibration unit; its duration in this thread's CPU time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        for _ in range(_KERNELS_PER_UNIT):
            _kernel()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


def median_unit(count: int) -> float:
    return statistics.median(unit() for _ in range(count))


def slowdown(unit_s: float) -> float:
    """How much slower than the reference the program runs while the
    unit takes ``unit_s``: times are divided by it, rates multiplied."""
    return (unit_s / REFERENCE_UNIT_S) ** EXPONENT


class SpeedLog:
    """Calibration units timed during a run: ``(perf_counter, unit_s)``.

    ``perf_counter`` is the system's monotonic clock, shared by every
    process of a run, so samples from an engine process line up with the
    load client's timestamps.
    """

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        self.samples = sorted(samples)
        self._times = [t for t, _u in self.samples]

    def slowdown(self, start: float, stop: float) -> float:
        """Median unit time over ``[start, stop)`` / the reference
        (the nearest sample when none falls inside)."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, stop)
        units = [u for _t, u in self.samples[lo:hi]]
        if not units:
            if not self.samples:
                return 1.0
            nearest = min(
                self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - stop))
            )
            units = [nearest[1]]
        return slowdown(statistics.median(units))

    def per_second(self, start: float, seconds: int) -> List[float]:
        """:meth:`slowdown` of each whole second from ``start``."""
        return [self.slowdown(start + i, start + i + 1) for i in range(seconds)]
