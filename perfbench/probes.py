"""Layer timing from outside the program.

A :class:`Probe` replaces bound methods on *live instances* with timing
wrappers; it never touches a class. Only batch entry points are
wrapped, because the program picks its fast paths by looking at what
is overridden:

* an instance ``aget``/``aput`` on a backend turns ``aget_many`` /
  ``aput_many`` into per-node loops;
* an instance ``write_sealed`` on an ``AsyncBucketStore`` turns
  ``write_many_sealed`` into a per-node loop;
* a ``NullCipher`` subclass turns off the simulator's packed slab path.

Synchronous wrappers record *self* time: a span's duration minus the
wrapped spans nested inside it (``stash.add_all`` consumes a generator
that calls ``open_blocks``, for example). Synchronous calls cannot
interleave, so one stack is exact. Asynchronous wrappers record their
inclusive duration.
"""

from __future__ import annotations

import inspect
import statistics
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence


class Probe:
    """Per-name duration samples (ns) of wrapped calls."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self._stack: List[int] = []

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        keep: Optional[Callable[[object], bool]] = None,
    ) -> None:
        """Time every call of ``obj.attr`` under ``name``.

        ``keep`` filters on the call's result (e.g. only checkpoint
        calls that sealed something).
        """
        method = getattr(obj, attr)
        samples = self.samples[name]
        stack = self._stack
        if inspect.iscoroutinefunction(method):

            async def wrapper(*args, **kwargs):
                start = perf_counter_ns()
                result = await method(*args, **kwargs)
                if keep is None or keep(result):
                    samples.append(perf_counter_ns() - start)
                return result

        else:

            def wrapper(*args, **kwargs):
                stack.append(0)
                start = perf_counter_ns()
                try:
                    result = method(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if keep is None or keep(result):
                    samples.append(elapsed - nested)
                return result

        setattr(obj, attr, wrapper)

    def reset(self) -> None:
        for values in self.samples.values():
            values.clear()

    def count(self, *names: str) -> int:
        return sum(len(self.samples.get(name, ())) for name in names)

    def mean_us(self, *names: str) -> float:
        """Mean duration in µs over every sample of ``names`` (0 if none)."""
        values = [v for name in names for v in self.samples.get(name, ())]
        return statistics.fmean(values) / 1e3 if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Exact percentile of raw samples (linear interpolation; 0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Samples per block of :func:`block_percentile`: at least ten lie
#: beyond a block's p99.
BLOCK = 1000


def block_percentile(values: Sequence[float], fraction: float) -> float:
    """Median over consecutive ``BLOCK``-sample blocks of each block's
    percentile (one block when there are fewer samples).

    ``values`` must be in time order. A burst of contention from
    outside the program moves the blocks it falls in, not the median.
    """
    blocks = [
        values[i : i + BLOCK] for i in range(0, len(values) - BLOCK + 1, BLOCK)
    ] or [values]
    return statistics.median(percentile(block, fraction) for block in blocks)


def per_second_rates(times: Sequence[float], start: float, seconds: float) -> List[float]:
    """Rate of ``times`` in each whole second of ``[start, start +
    seconds)`` (one bin over the whole window when it is shorter)."""
    width = min(1.0, seconds)
    bins = [0] * max(1, int(seconds))
    for t in times:
        index = int((t - start) / width)
        if 0 <= index < len(bins):
            bins[index] += 1
    return [count / width for count in bins]
