"""One fresh-interpreter set-up: import gridcap.cli, then build a workload's inputs.

Usage: PYTHONPATH=src python3 bench/setup_probe.py WORKLOAD SEED
Prints the seconds taken, from before the import to the built inputs.
"""

import sys
import time

t0 = time.perf_counter()
import gridcap.cli  # noqa: E402,F401  (the import is what is timed)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - t0)
