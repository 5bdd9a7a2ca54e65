"""Library cost of one sweep cell, stage by stage, per standard panel.

For each panel of ``standard_scenarios()`` at betas 1 and 4, runs all seven
methods' cells of 100 replicates as ``run_sweep`` does and times each stage
on its own: the replicate seeds, ``make_streams``, ``lockstep_rejections``,
``stream_tallies``, ``aggregate`` (both layers) and ``emit_results`` (the
panel's rows, written once per repeat into a temporary directory and shared
over its cells).  Prints, as one JSON object, the best of 5 repeats of each
stage in milliseconds per cell, each stage's sum over the panels, and each
method's ``lockstep_rejections`` milliseconds per cell summed over the panels.
The repeats go round-robin over the panels, so a slow phase of a shared host
spreads over every panel instead of landing on whole panels.

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
from dataclasses import replace
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


def panel_pass(scenario, out_dir: Path) -> tuple[dict, dict]:
    """Each stage's seconds over one pass of the panel's cells, and each
    method's ``lockstep_rejections`` seconds over its cells."""
    from layerfdr.harness import LAYER_NAMES, emit_results, replicate_seed, stream_tallies
    from layerfdr.metrics import aggregate
    from layerfdr.procedures import METHODS, lockstep_rejections
    from layerfdr.simgen import make_streams

    spent = dict.fromkeys(STAGES, 0.0)
    by_method = dict.fromkeys(METHODS, 0.0)
    rows = []
    for method, beta in [(method, beta) for method in METHODS for beta in BETAS]:
        marks = [perf_counter()]
        seeds = [replicate_seed(MASTER_SEED, method, beta, r) for r in range(REPLICATES)]
        marks.append(perf_counter())
        data = make_streams(replace(scenario, beta=beta), seeds)
        marks.append(perf_counter())
        groups = data.groups if method.startswith("ml-") else None
        rejected = lockstep_rejections(method, data.pvalues, groups, scenario.alpha, scenario.eta)
        marks.append(perf_counter())
        per_layer = stream_tallies(data, rejected)
        marks.append(perf_counter())
        for name in LAYER_NAMES:
            rows.append(
                aggregate(per_layer[name], scenario.eta, method=method, beta=beta, layer=name)
            )
        marks.append(perf_counter())
        for stage, start, end in zip(STAGES, marks, marks[1:]):
            spent[stage] += end - start
        by_method[method] += marks[3] - marks[2]
    start = perf_counter()
    emit_results(rows, out_dir)
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
