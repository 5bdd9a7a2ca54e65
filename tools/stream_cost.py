"""Cost of one ``layerfdr stream`` line, per rule and layer count.

For each decision rule (ml-GAI, ml-LORD, ml-LOND, ml-LOND_m) and each layer
count M, runs whole in-process ``cli.cmd_stream`` sessions, parse to reply,
over the JSON lines of ``step_cost.py``'s 20,000 seeded events (drawn as
perfbench's stream-cli client draws them: 4,000 groups, a tenth of them
with signal), and prints, as one JSON object, the best of 5 sessions in
microseconds per line (``us_per_line``).  Each session gets a fresh
procedure, reads the lines from a list and appends its replies to one.  The
repeats go round-robin over the (rule, M) cells, so a slow phase of a
shared host spreads over every cell instead of landing on whole cells.

``threshold_repeat_share`` is the share of tested-layer thresholds in the
replies whose text equals that of one of the first 1,024 distinct
thresholds before it: the replies a per-session threshold text memo of
that size can reuse.

    python tools/stream_cost.py [--src DIR]

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

from step_cost import EVENTS as LINES
from step_cost import stream

RULES = ("ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m")
LAYERS = (1, 2, 4)
REPEATS = 5
MEMO_SIZE = 1024


def stream_lines(layers: int) -> list[str]:
    """One JSON line per event: its p-value and its group in each layer."""
    pvalues, ids = stream(layers)
    return [json.dumps({"p": p, "groups": groups}) + "\n" for p, groups in zip(pvalues, ids)]


class Replies:
    """A sink that keeps each reply as written."""

    def __init__(self):
        self.lines: list[str] = []
        self.write = self.lines.append


def repeat_share(replies: list[str]) -> float:
    """Share of reply thresholds a memo of the first ``MEMO_SIZE`` distinct
    threshold texts would hold."""
    memo: set[str] = set()
    hits = total = 0
    for reply in replies:
        for text in reply.split('"thresholds": [', 1)[1].split("]", 1)[0].split(", "):
            if not text:
                continue
            total += 1
            if text in memo:
                hits += 1
            elif len(memo) < MEMO_SIZE:
                memo.add(text)
    return hits / total if total else 0.0


def session(method: str, layers: int, lines: list[str]) -> tuple[float, list[str]]:
    """Seconds of one session over the lines, and its replies."""
    from layerfdr.cli import build_parser, cmd_stream

    args = build_parser().parse_args(["stream", "--method", method, "--layers", str(layers)])
    replies = Replies()
    start = perf_counter()
    code = cmd_stream(args, source=lines, sink=replies)
    seconds = perf_counter() - start
    if code != 0 or len(replies.lines) != LINES:
        raise RuntimeError(f"{method} M={layers}: exit {code}, {len(replies.lines)} replies")
    return seconds, replies.lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    lines = {m: stream_lines(m) for m in LAYERS}
    best = {(method, m): math.inf for method in RULES for m in LAYERS}
    share = {}
    for _ in range(REPEATS):
        for method, m in best:
            seconds, replies = session(method, m, lines[m])
            best[method, m] = min(best[method, m], seconds)
            if (method, m) not in share:
                share[method, m] = repeat_share(replies)
    cost = {
        method: {str(m): round(best[method, m] / LINES * 1e6, 3) for m in LAYERS}
        for method in RULES
    }
    shares = {method: {str(m): round(share[method, m], 3) for m in LAYERS} for method in RULES}
    print(json.dumps({"us_per_line": cost, "threshold_repeat_share": shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
