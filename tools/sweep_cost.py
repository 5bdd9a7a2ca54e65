"""Library cost of one sweep cell, stage by stage, per standard panel.

For each panel of ``standard_scenarios()`` at betas 1 and 4, runs the shipped
``run_sweep`` over all seven methods' cells of 100 replicates and times each
stage it calls by wrapping the names it looks up in ``harness``:
``make_streams``, ``lockstep_rejections``, ``stream_tallies`` and
``aggregate`` (both layers).  ``replicate_seeds`` is the rest of
``run_sweep``'s time, outside the wrapped stages: the replicate seeds plus the
cell loop and the wrappers themselves.  ``emit_results`` writes the panel's
rows once per repeat into a temporary directory, shared over its cells.
Prints, as one JSON object, the best of 5 repeats of each stage in
milliseconds per cell, each stage's sum over the panels, and each method's
``lockstep_rejections`` milliseconds per cell summed over the panels, read
from the wrapped call's method argument.  The repeats go round-robin over the
panels, so a slow phase of a shared host spreads over every panel instead of
landing on whole panels.

    python tools/sweep_cost.py [--src DIR]

``--src`` is the directory ``layerfdr`` is imported from (default: this
checkout's ``src``), so two checkouts can be compared on one machine.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BETAS = (1.0, 4.0)
REPLICATES = 100
REPEATS = 5
MASTER_SEED = 0
STAGES = (
    "replicate_seeds",
    "make_streams",
    "lockstep_rejections",
    "stream_tallies",
    "aggregate",
    "emit_results",
)


# the names run_sweep looks up in harness, each timed as the stage it names
WRAPPED = ("make_streams", "lockstep_rejections", "stream_tallies", "aggregate")


def panel_pass(scenario, out_dir: Path) -> tuple[dict, dict]:
    """Each stage's seconds over one ``run_sweep`` of the panel's cells, and
    each method's ``lockstep_rejections`` seconds over its cells."""
    from layerfdr import harness
    from layerfdr.procedures import METHODS

    spent = dict.fromkeys(STAGES, 0.0)
    by_method = dict.fromkeys(METHODS, 0.0)

    def timed(stage, function):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = function(*args, **kwargs)
            seconds = perf_counter() - start
            spent[stage] += seconds
            if stage == "lockstep_rejections":
                by_method[args[0]] += seconds
            return result

        return wrapper

    sweep = harness.SweepSpec(
        scenario, beta_grid=BETAS, replicates=REPLICATES, master_seed=MASTER_SEED
    )
    originals = {stage: getattr(harness, stage) for stage in WRAPPED}
    for stage, function in originals.items():
        setattr(harness, stage, timed(stage, function))
    try:
        start = perf_counter()
        rows = harness.run_sweep(sweep)
        spent["replicate_seeds"] = perf_counter() - start
    finally:
        for stage, function in originals.items():
            setattr(harness, stage, function)
    spent["replicate_seeds"] -= sum(spent[stage] for stage in WRAPPED)
    start = perf_counter()
    harness.emit_results(rows, out_dir)
    spent["emit_results"] = perf_counter() - start
    return spent, by_method


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from layerfdr.harness import standard_scenarios
    from layerfdr.procedures import METHODS

    scenarios = standard_scenarios()
    best = {name: dict.fromkeys(STAGES, math.inf) for name in scenarios}
    best_methods = {name: dict.fromkeys(METHODS, math.inf) for name in scenarios}
    with tempfile.TemporaryDirectory() as out_dir:
        # repeats go round-robin over the panels, so a slow phase of a shared
        # host spreads over every panel instead of landing on one
        for _ in range(REPEATS):
            for name, scenario in scenarios.items():
                spent, by_method = panel_pass(scenario, Path(out_dir))
                best[name] = {stage: min(best[name][stage], spent[stage]) for stage in STAGES}
                best_methods[name] = {
                    method: min(best_methods[name][method], seconds)
                    for method, seconds in by_method.items()
                }
    per_cell = len(METHODS) * len(BETAS)
    panels = {
        name: {stage: round(best[name][stage] / per_cell * 1e3, 4) for stage in STAGES}
        for name in scenarios
    }
    total = {stage: round(sum(ms[stage] for ms in panels.values()), 4) for stage in STAGES}
    lockstep = {
        method: round(sum(best_methods[name][method] for name in scenarios) / len(BETAS) * 1e3, 4)
        for method in METHODS
    }
    print(
        json.dumps(
            {"ms_per_cell": panels, "sum_over_panels": total, "lockstep_by_method": lockstep}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
