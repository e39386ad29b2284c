"""Time one set-up from a fresh interpreter: imports plus building round 0's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the seconds taken. The oracle is not part of set-up.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import perf_workloads  # noqa: E402

perf_workloads.build_round(sys.argv[1], int(sys.argv[2]), 0)
print(repr(time.perf_counter() - START))
