"""Set-up time of one fresh process: import ellded from the checkout's source
tree and run the workload's warm-up ops.  Prints the seconds taken at the
nominal machine speed (see speed.py) and on the wall clock.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
import time

import speed

before = [speed.reference_slice() for _ in range(5)]
t0 = time.perf_counter()

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402  (imports ellded)

workloads.warm_up(sys.argv[1])
elapsed = time.perf_counter() - t0
after = [speed.reference_slice() for _ in range(5)]
slowdown = speed.median(before + after) / speed.NOMINAL_SLICE_S
print(elapsed / slowdown, elapsed)
