"""Print the seconds a fresh process takes to import codedgd and generate one
workload's problem (filling ``experiments._problem_cache``).

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TOY(0|1)
"""

import sys
from time import perf_counter

start = perf_counter()
import workloads  # noqa: E402  (imports codedgd and numpy)

name, seed, toy = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
workloads.experiments._problem_cache(workloads.config(workloads.WORKLOADS[name], seed, toy))
print(repr(perf_counter() - start))
