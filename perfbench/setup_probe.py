"""Print one workload's set-up time, measured in a fresh interpreter.

Set-up is ``import layerfdr`` plus building the workload's program objects.
Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path
from time import perf_counter

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

start = perf_counter()
import layerfdr  # noqa: E402,F401

import_s = perf_counter() - start

import workloads  # noqa: E402

start = perf_counter()
workloads.build_program_objects(sys.argv[1], int(sys.argv[2]))
print(import_s + perf_counter() - start)
