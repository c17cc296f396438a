"""Set-up time of one workload in a fresh process.

Times ``import weylsep``, then (with the clock paused) imports the benchmark's
workload definitions, then times one warm-up call of each timed operation at
each distinct dimension of the workload, which fills ``weyl_basis``'s cache.
Prints the sum of the two timed parts in seconds. Usage, with ``src`` on
``PYTHONPATH``:

    python3 bench/setup_probe.py sep-large
"""

import sys
import time

t0 = time.perf_counter()
import weylsep  # noqa: E402,F401

import_s = time.perf_counter() - t0

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]()
t0 = time.perf_counter()
workload.warm_up()
print(import_s + time.perf_counter() - t0)
