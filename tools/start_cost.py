"""Whole-process start cost of the commands a streaming user runs.

Times, in fresh processes, the wall time of ``python -c "import layerfdr"``,
of a ``layerfdr stream --method ml-LORD --layers 2`` that answers one line
read through a pipe, and of ``layerfdr validate`` with its defaults (both run
as ``python -m layerfdr.cli``), with ``python -c pass`` as the interpreter's
own floor.  The commands take turns, one of each per round, so a drift in the
host's speed reaches all of them alike.  Prints, as one JSON object, each
command's median and quartiles in seconds over ``RUNS`` rounds, and
``dont_write_bytecode``: whether the commands ran with
``PYTHONDONTWRITEBYTECODE`` set.  Then no command writes a bytecode cache, so
unless one was written before, each compiles the package from source and its
time grows with the size of the modules it imports.

    python tools/start_cost.py [--src DIR]

``--src`` is the directory ``layerfdr`` is imported from (default: this
checkout's ``src``), so two checkouts can be compared on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

RUNS = 15
STREAM_LINE = b'{"p": 0.004, "groups": [1, 7]}\n'
COMMANDS = {
    "interpreter": (["-c", "pass"], b""),
    "import": (["-c", "import layerfdr"], b""),
    "stream": (
        ["-m", "layerfdr.cli", "stream", "--method", "ml-LORD", "--layers", "2"],
        STREAM_LINE,
    ),
    "validate": (["-m", "layerfdr.cli", "validate"], b""),
}


def wall_s(args: list[str], stdin: bytes, env: dict) -> float:
    """Seconds from starting ``python *args`` to its exit; a failed run raises."""
    start = perf_counter()
    process = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env, timeout=120
    )
    elapsed = perf_counter() - start
    if process.returncode != 0:
        raise RuntimeError(f"{args} exited {process.returncode}: {process.stderr.decode()}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    path = os.pathsep.join(filter(None, [args.src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    times = {name: [] for name in COMMANDS}
    for _ in range(RUNS):
        for name, (command, stdin) in COMMANDS.items():
            times[name].append(wall_s(command, stdin, env))
    seconds = {}
    for name, runs in times.items():
        q1, median, q3 = statistics.quantiles(runs, n=4)
        seconds[name] = {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}
    # any non-empty value turns the bytecode cache off, as for the interpreter
    dont_write_bytecode = bool(env.get("PYTHONDONTWRITEBYTECODE"))
    print(json.dumps({"runs": RUNS, "dont_write_bytecode": dont_write_bytecode, "seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
