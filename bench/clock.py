"""Timing scaled by the speed the machine has at the moment of each call.

The machine this benchmark was built on is a shared virtual machine whose
speed changes by up to a factor of two over seconds to minutes, whatever
runs inside it; process CPU time moves with wall time, so it is no way
out.  So each timed call is bracketed by a fixed pure-Python workload
(``calibrate``), and its duration is scaled by REFERENCE_S over the mean
of the two calibration times: the figure is how long the call takes on a
machine that runs the calibration in REFERENCE_S.  Where the machine's
speed is steady, scaled and raw figures differ by a constant factor.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# The calibration's median time on the reference machine: a 2-CPU Xeon
# virtual machine, Python 3.11.7.
REFERENCE_S = 0.028
# A calibration that ended less than this long ago is the next call's "before".
_FRESH_S = 0.005


def calibrate() -> float:
    """Seconds for a fixed mix of integer arithmetic, tuples and dict stores,
    a sort and a set of 40 000 ints, and small divisor lists."""
    start = perf_counter()
    table = {}
    acc = 0
    for i in range(30_000):
        pair = (i, i * i % 97)
        table[pair[1]] = pair
        acc += (i * 2654435761 % 4294967291) >> 7
    xs = sorted([(i * 7919) % 10007 for i in range(40_000)])
    set(xs)
    {x: [x] for x in xs[:5_000]}
    for n in range(2, 1_200):
        divs = [d for d in range(1, 40) if n % d == 0]
        table[n] = (tuple(divs), len(divs))
    return perf_counter() - start


class Clock:
    """Scaled samples per metric name, and the raw ones beside them."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self._last = (float("-inf"), 0.0)  # (when it ended, its seconds)

    def calibrate(self) -> float:
        ended, took = self._last
        if perf_counter() - ended > _FRESH_S:
            took = calibrate()
            self._last = (perf_counter(), took)
        return took

    def scaled(self, took: float, before: float) -> float:
        """``took`` seconds, measured after calibration ``before``, at reference speed."""
        self._last = (float("-inf"), 0.0)  # the next calibration is a new one
        return took * REFERENCE_S / ((before + self.calibrate()) / 2)

    def rate(self, key: str, ops: int, fn, *args, **kwargs):
        """Call fn; record ops per second at reference speed under ``key``."""
        before = self.calibrate()
        start = perf_counter()
        result = fn(*args, **kwargs)
        took = perf_counter() - start
        self.samples[key].append(ops / self.scaled(took, before))
        self.raw[key].append(ops / took)
        return result
