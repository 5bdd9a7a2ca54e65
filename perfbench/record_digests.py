"""Record the expected outputs that the sweep-grid gate checks.

Run once, from the repository root, on the commit whose outputs are the
reference (``python3 perfbench/record_digests.py``); it rewrites
``perfbench/digests.json``.  A change that is meant to keep outputs
identical must pass the gates against the recorded digests, never
re-record them.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

import workloads  # noqa: E402


def main() -> None:
    digests = {"sweep-grid": {}}
    (here / "out").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=here / "out"))
    try:
        for variant in range(workloads.INPUT_VARIANTS):
            master_seed, units = workloads.sweep_plan(variant)
            for name, spec, beta in units:
                workloads.run_sweep_unit(spec, beta, master_seed, work_dir)
                key = workloads.sweep_key(master_seed, name, beta)
                digests["sweep-grid"][key] = workloads.file_digests(work_dir)
                print(key, flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
