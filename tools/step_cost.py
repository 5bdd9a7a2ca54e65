"""Library cost of one online step, per rule and layer count.

For each decision rule (ml-GAI, ml-LORD, ml-LOND, ml-LOND_m) and each layer
count M, replays a seeded stream of events through a fresh
``make_procedure(method, M, 0.1)`` and prints, as one JSON object, the best
of 7 repeats over 20,000 seeded events in microseconds per step.  The
repeats go round-robin over the (rule, M) cells, so a slow phase of a
shared host spreads over every cell instead of landing on whole cells.  The
events are drawn as perfbench's stream-cli client draws them: layer 0 is the
arrival index, every further layer puts the arrival in one of 4,000 groups
drawn uniformly, and a tenth of layer 1's groups carry signal (z mean 3.5).
An alpha-investing stream that halts is replayed on through ``skip``, as
``replay`` does.  Only ``replay`` is timed; the events are built beforehand.

    python tools/step_cost.py [--src DIR]

``--src`` is the directory ``layerfdr`` is imported from (default: this
checkout's ``src``), so two checkouts can be compared on one machine.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

RULES = ("ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m")
LAYERS = (1, 2, 4, 8)
EVENTS = 20_000
REPEATS = 7
SEED = 1
GROUPS = 4000
SIGNAL_SHARE = 0.1
SIGNAL_MEAN = 3.5
ALPHA = 0.1


def stream(layers: int):
    """p-values and per-arrival group ids, shape (EVENTS, layers)."""
    rng = np.random.default_rng([SEED, layers])
    ids = np.empty((EVENTS, layers), dtype=np.int64)
    ids[:, 0] = np.arange(1, EVENTS + 1)
    ids[:, 1:] = rng.integers(0, GROUPS, (EVENTS, layers - 1))
    signal = rng.random(GROUPS) < SIGNAL_SHARE
    z = rng.standard_normal(EVENTS)
    if layers > 1:
        z += SIGNAL_MEAN * signal[ids[:, 1]]
    pvalues = [math.erfc(abs(value) / math.sqrt(2.0)) for value in z.tolist()]
    return pvalues, ids.tolist()


def replay_seconds(method: str, layers: int, stream_events) -> float:
    """Seconds to replay the events through a fresh procedure."""
    from layerfdr.procedures import make_procedure, replay

    procedure = make_procedure(method, layers, ALPHA)
    start = perf_counter()
    replay(procedure, stream_events)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from layerfdr.core import HypothesisEvent

    events = {}
    for m in LAYERS:
        pvalues, ids = stream(m)
        events[m] = [
            HypothesisEvent(t, p, tuple(groups))
            for t, (p, groups) in enumerate(zip(pvalues, ids), 1)
        ]
    best = {(method, m): math.inf for method in RULES for m in LAYERS}
    for _ in range(REPEATS):
        for method, m in best:
            best[method, m] = min(best[method, m], replay_seconds(method, m, events[m]))
    table = {
        method: {str(m): round(best[method, m] / EVENTS * 1e6, 3) for m in LAYERS}
        for method in RULES
    }
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
