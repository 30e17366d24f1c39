"""Machine speed, measured while the benchmark runs.

The machine the benchmark was defined on is shared: the speed of the same
Python code drifts by 20% and more within seconds and from minute to minute.
The loop therefore runs a short fixed reference slice (small and big integer,
float and complex arithmetic, the kinds of work the package does) between
ops, at most every `SLICE_EVERY_S`.  An op's slowdown is the median duration of
the two slices before it and the two after it over `NOMINAL_SLICE_S`; the
end-to-end timings divide each op's latency by its slowdown, so that they
read as times on a machine running at the nominal speed.

Only stdlib modules that the package imports anyway are used here, so the
set-up probe can import this before it starts its clock.
"""

import bisect
import cmath
import math
import time

#: seconds one reference slice takes at the nominal speed (the median on the
#: 2-vCPU x86 container that defined the benchmark, Python 3.11)
NOMINAL_SLICE_S = 300e-6

#: the loop runs a slice before an op when the last one is older than this
SLICE_EVERY_S = 0.02


#: modulus of the big-integer part of the slice, so that it stays 256 bits
_M = (1 << 255) - 19


def reference_slice() -> float:
    """Run the fixed reference work once; returns the seconds it took."""
    t0 = time.perf_counter()
    acc, f, z, big = 0, 0.0, 0j, 1 << 200
    for i in range(1, 300):
        acc += i * i * i
        f += math.sqrt(i)
        z += cmath.exp(1j * f) / i
        big = (big * 1000003 + i) % _M
    return time.perf_counter() - t0


def median(xs) -> float:
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


class SpeedTrack:
    """Reference slices taken during one pass: start times and durations."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(reference_slice())

    def maybe_sample(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= SLICE_EVERY_S:
            self.sample()

    def slowdown(self, t0: float, t1: float) -> float:
        """Slowdown of the machine around an op that ran from t0 to t1."""
        i = bisect.bisect_right(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return median(self.durations[max(0, i - 2):i] + self.durations[j:j + 2]) / NOMINAL_SLICE_S

    @property
    def total_s(self) -> float:
        return sum(self.durations)
