"""The benchmark workloads: inputs, timed units and correctness gates.

Every workload runs in whole *units* until its timed work is within half a
unit of ``seconds``, so each unit's output can be checked.  Checks run
outside the timed region.

* ``sweep-grid``: one unit is one criterion-1 panel at one effect size,
  all seven methods at 100 replicates, run through ``run_sweep`` and
  written by ``emit_results``.  The seed shuffles the panels and gives
  half of them weak and half strong signal; the next pass swaps the two.
  The seven CSVs of every unit are compared with SHA-256 digests recorded
  from the program before any optimisation.
* ``stream-cli``: one unit is one ``layerfdr stream --method ml-LORD
  --layers 2`` session of ``STREAM_EVENTS`` JSON lines, driven in process
  through ``cli.cmd_stream`` by a closed-loop client.  The first session's
  replies are compared with ``procedures.replay`` on the same events;
  later sessions replay the same input and must repeat it byte for byte.
  Sessions are timed in ``CHUNK``-event chunks, and each chunk position is
  scored by its fastest session: other tenants of a shared machine only
  ever slow a chunk down.

Inputs depend only on the seed.  The recorded sweep digests cover
``INPUT_VARIANTS`` master seeds (seed modulo ``INPUT_VARIANTS``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
from scipy.special import erfc

from layerfdr import cli, harness
from layerfdr.core import HypothesisEvent
from layerfdr.harness import SweepSpec, emit_results, run_sweep, standard_scenarios
from layerfdr.procedures import METHODS, make_procedure, replay

from tracing import Tracer, patched

DIGESTS_PATH = Path(__file__).with_name("digests.json")

INPUT_VARIANTS = 4
CHUNK = 5_000  # events per timed chunk of stream-cli

# sweep-grid: criterion 1 of the acceptance suite, one effect size per panel
MASTER_SEEDS = (20260808, 20260809, 20260810, 20260811)
WEAK, STRONG = 1.0, 4.0
REPLICATES = 100
SWEEP_FILES = (
    "results.csv",
    "panel_power_individual.csv",
    "panel_power_group.csv",
    "panel_fdr_individual.csv",
    "panel_fdr_group.csv",
    "panel_mfdr_individual.csv",
    "panel_mfdr_group.csv",
)

# stream-cli: individual layer = arrival index, group layer over STREAM_GROUPS
STREAM_EVENTS = 100_000
STREAM_GROUPS = 4000
STREAM_ARGV = ["stream", "--method", "ml-LORD", "--layers", "2"]
SIGNAL_SHARE = 0.1  # share of groups that carry signal
SIGNAL_MEAN = 3.5  # mean z-statistic of a hypothesis in a signal group


@dataclass
class Measurement:
    """What one run of a workload measured; the workload fills in the figures."""

    unit_s: list[float] = field(default_factory=list)  # timed seconds per unit
    units: int = 0
    reps_per_s: float = 0.0
    events_per_s: float = 0.0
    latency_p50_us: float = 0.0
    latency_samples: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(self.unit_s)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _run_units(seconds: float, units: list, run_unit, m: Measurement) -> None:
    """Run units in order, cycling, while the next one would end nearer to
    ``seconds`` of timed work than the last one did."""
    while not m.unit_s or m.timed_s + m.timed_s / m.units / 2 < seconds:
        m.unit_s.append(run_unit(units[m.units % len(units)]))
        m.units += 1


def _two_sided_p(z: np.ndarray) -> np.ndarray:
    return erfc(np.abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sweep-grid


def sweep_plan(seed: int):
    """Master seed and unit order: two passes over the panels, each panel
    weak in one pass and strong in the other, half of each pass weak."""
    panels = list(standard_scenarios().items())
    rng = random.Random(seed)
    rng.shuffle(panels)
    weak = set(rng.sample(range(len(panels)), len(panels) // 2))
    first = [(name, spec, WEAK if i in weak else STRONG) for i, (name, spec) in enumerate(panels)]
    second = [(name, spec, STRONG if beta == WEAK else WEAK) for name, spec, beta in first]
    return MASTER_SEEDS[seed % INPUT_VARIANTS], first + second


def sweep_specs(spec, beta: float, master_seed: int) -> list[SweepSpec]:
    """One single-cell sweep per method, so each cell is timed on its own."""
    return [
        SweepSpec(
            scenario=spec,
            beta_grid=(beta,),
            methods=(method,),
            replicates=REPLICATES,
            master_seed=master_seed,
        )
        for method in METHODS
    ]


def sweep_key(master_seed: int, panel: str, beta: float) -> str:
    return f"{master_seed}|{panel}|{beta!r}"


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in SWEEP_FILES
        if (out_dir / name).exists()
    }


def run_sweep_unit(spec, beta: float, master_seed: int, out_dir: Path, tracer=None):
    """Run one panel at one effect size; return (seconds per cell, emit seconds)."""
    sweep = tracer.wrap("harness.run_sweep", run_sweep) if tracer else run_sweep
    emit = tracer.wrap("harness.emit_results", emit_results) if tracer else emit_results
    rows, cell_s = [], []
    for sweep_spec in sweep_specs(spec, beta, master_seed):
        if tracer:
            tracer.context = sweep_spec.methods[0]
        start = perf_counter()
        rows.extend(sweep(sweep_spec))
        cell_s.append(perf_counter() - start)
        if tracer:
            _count_replays(tracer)
    start = perf_counter()
    emit(rows, out_dir)
    return cell_s, perf_counter() - start


def sweep_grid(seed: int, seconds: float, work_dir: Path, tracer=None) -> Measurement:
    master_seed, units = sweep_plan(seed)
    expected = load_digests()["sweep-grid"]
    m = Measurement()
    cell_us: list[float] = []  # per cell: seconds per replicate, in us
    replicates = events = 0

    def run_unit(unit):
        nonlocal replicates, events
        name, spec, beta = unit
        cell_s, emit_s = run_sweep_unit(spec, beta, master_seed, work_dir, tracer)
        cell_us.extend(s / REPLICATES * 1e6 for s in cell_s)
        reps = len(cell_s) * REPLICATES
        replicates += reps
        events += reps * spec.total
        m.attempted += reps
        want = expected.get(sweep_key(master_seed, name, beta))
        got = file_digests(work_dir)
        if got != want:
            m.fail(reps, f"{name} beta={beta}: CSV digests differ from the recorded ones")
        return sum(cell_s) + emit_s

    with _sweep_tracing(tracer):
        _run_units(seconds, units, run_unit, m)
    m.reps_per_s = replicates / m.timed_s
    m.events_per_s = events / m.timed_s
    m.latency_p50_us = float(np.median(cell_us))
    m.latency_samples = len(cell_us)
    return m


def _sweep_tracing(tracer):
    """Wrap the names ``harness`` looks up, one span per call."""
    if tracer is None:
        return contextlib.nullcontext()

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    def traced_replay(fn):
        def replay_span(procedure, events):
            index = tracer.open(f"procedures.replay.{tracer.context}")
            try:
                records = fn(procedure, events)
            finally:
                tracer.close(index)
            tracer.pending.append((procedure, records))
            return records

        return replay_span

    return patched(
        harness,
        {
            "run_cell": span("harness.run_cell"),
            "run_replicate": span("harness.run_replicate"),
            "make_stream": span("simgen.make_stream"),
            "multilayer_events": span("harness.build_events"),
            "singleton_events": span("harness.build_events"),
            "make_procedure": span("procedures.make_procedure"),
            "replay": traced_replay,
            "truth_state_from_events": span("core.truth"),
            "layer_tally": span("metrics.tally"),
            "tally_from_sets": span("metrics.tally"),
            "aggregate": span("metrics.aggregate"),
        },
    )


def _count_replays(tracer: Tracer) -> None:
    """Fold the replays of the last cell into the exact counters."""
    for procedure, records in tracer.pending:
        for record in records:
            count_record(tracer, len(record.tested_layers()))
        if records and records[-1].halted:
            tracer.count("halted")
        note_states(tracer, procedure)
    tracer.pending = []


# ---------------------------------------------------------------------------
# shared counting


def count_record(tracer: Tracer, tested_layers: int) -> None:
    tracer.count("steps")
    tracer.count("pending_layers", tested_layers)
    if tested_layers:
        tracer.count("tested_steps")


def note_states(tracer: Tracer, procedure) -> None:
    """Largest per-layer dict and set sizes seen at the end of a stream."""
    for m, state in enumerate(procedure.states):
        tracer.count_max(f"seen_per_group.layer{m}", len(getattr(state, "seen_per_group", ())))
        tracer.count_max(f"rejected_groups.layer{m}", len(getattr(state, "rejected_groups", ())))


# ---------------------------------------------------------------------------
# stream-cli


def stream_inputs(seed: int):
    """p-values, group-layer ids and the JSON lines a client sends."""
    rng = np.random.default_rng([seed, 1])
    groups = rng.integers(0, STREAM_GROUPS, STREAM_EVENTS)
    signal = rng.random(STREAM_GROUPS) < SIGNAL_SHARE
    z = rng.standard_normal(STREAM_EVENTS) + SIGNAL_MEAN * signal[groups]
    pvalues = _two_sided_p(z).tolist()
    groups = groups.tolist()
    lines = [
        json.dumps({"p": p, "groups": [t, g]}) + "\n"
        for t, (p, g) in enumerate(zip(pvalues, groups), 1)
    ]
    return pvalues, groups, lines


class ClosedLoopClient:
    """One client: the next line is sent only after the previous reply.

    ``source`` stamps each line as it is handed to the CLI and ``write``
    (the CLI's sink) stamps the reply, so latency covers parsing, the
    decision and the reply's encoding.  Every ``CHUNK``-th send is also
    kept in ``marks``, which ``close`` ends with the session's end.
    """

    def __init__(self, lines: list[str], tracer=None):
        self.lines = lines
        self.tracer = tracer
        self.replies: list[str] = []
        self.latency_ns = array("q")
        self.marks: list[int] = []
        self._sent = 0
        self._span = -1

    def source(self):
        tracer = self.tracer
        for i, line in enumerate(self.lines):
            if tracer:
                self._span = tracer.open("cli.event")
            self._sent = perf_counter_ns()
            if i % CHUNK == 0:
                self.marks.append(self._sent)
            yield line

    def close(self) -> None:
        self.marks.append(perf_counter_ns())

    def chunk_seconds(self) -> list[float]:
        """Seconds per whole chunk of ``CHUNK`` events."""
        whole = len(self.replies) // CHUNK
        return [(b - a) / 1e9 for a, b in zip(self.marks[:whole], self.marks[1 : whole + 1])]

    def write(self, text: str) -> None:
        if text == "\n":
            return
        self.latency_ns.append(perf_counter_ns() - self._sent)
        if self.tracer:
            self.tracer.close(self._span)
        self.replies.append(text)


def check_stream_replies(replies: list[str], pvalues, groups) -> list[str]:
    """Compare CLI replies with ``procedures.replay`` on the same events."""
    if len(replies) != len(pvalues):
        return [f"{len(replies)} replies for {len(pvalues)} lines"]
    args = cli.build_parser().parse_args(STREAM_ARGV)
    procedure = make_procedure(
        args.method, args.layers, args.alpha, args.eta, untested=args.untested
    )
    problems = []
    for lo in range(0, len(pvalues), CHUNK):  # chunked to bound the records held
        events = [
            HypothesisEvent(t=t, p=pvalues[t - 1], group_index=(t, groups[t - 1]))
            for t in range(lo + 1, min(lo + CHUNK, len(pvalues)) + 1)
        ]
        for event, record in zip(events, replay(procedure, events)):
            reply = json.loads(replies[event.t - 1])
            tested = record.tested_layers()
            expected = {
                "t": record.t,
                "reject": bool(record.rejected),
                "tested_layers": tested,
                "thresholds": [record.layers[m].threshold for m in tested],
                "halted": record.halted,
            }
            if "error" in reply or any(reply.get(k) != v for k, v in expected.items()):
                problems.append(f"line {event.t}: reply {reply} != replay {expected}")
                if len(problems) >= 10:
                    return problems
    return problems


def stream_cli(seed: int, seconds: float, tracer=None) -> Measurement:
    pvalues, groups, lines = stream_inputs(seed)
    args = cli.build_parser().parse_args(STREAM_ARGV)
    m = Measurement()
    sessions: list[np.ndarray] = []  # per session: chunk seconds and p50 in us
    reference: list[str] = []  # digest of the first, replay-checked session

    def run_unit(_):
        client = ClosedLoopClient(lines, tracer)
        start = perf_counter()
        code = cli.cmd_stream(args, client.source(), client)
        client.close()
        elapsed = perf_counter() - start
        chunk_s = client.chunk_seconds()
        latency_us = np.frombuffer(client.latency_ns, dtype=np.int64)[: len(chunk_s) * CHUNK]
        chunks = latency_us.reshape(len(chunk_s), CHUNK) / 1e3
        sessions.append(np.array([chunk_s, np.median(chunks, axis=1)]))
        m.attempted += len(lines)
        digest = hashlib.sha256("\n".join(client.replies).encode()).hexdigest()
        if code != 0:
            m.fail(len(lines), f"cmd_stream exited with {code}")
        elif not reference:
            problems = check_stream_replies(client.replies, pvalues, groups)
            if problems:
                m.fail(len(lines), "; ".join(problems[:3]))
            reference.append(digest)
        elif digest != reference[0]:
            m.fail(len(lines), "a repeated session answered differently from the first")
        if tracer:
            for reply in client.replies:
                record = json.loads(reply)
                count_record(tracer, len(record.get("tested_layers", ())))
            if client.replies and json.loads(client.replies[-1]).get("halted"):
                tracer.count("halted")
            note_states(tracer, tracer.procedure)
        return elapsed

    with _stream_tracing(tracer):
        _run_units(seconds, [None], run_unit, m)
    if len({s.shape for s in sessions}) == 1 and sessions[0].size:
        # per chunk position, the fastest session
        figures = np.array(sessions)
        best = np.take_along_axis(figures, figures[:, :1].argmin(axis=0)[None], 0)[0]
        m.events_per_s = best.shape[1] * CHUNK / float(best[0].sum())
        m.reps_per_s = m.events_per_s / STREAM_EVENTS
        m.latency_p50_us = float(np.median(best[1]))
        m.latency_samples = figures.shape[0] * figures.shape[2] * CHUNK
    return m


def _stream_tracing(tracer):
    """Wrap the names ``cli`` looks up; the procedure's step gets a span too."""
    if tracer is None:
        return contextlib.nullcontext()

    def traced_make_procedure(fn):
        def make(*args, **kwargs):
            procedure = tracer.wrap("procedures.make_procedure", fn)(*args, **kwargs)
            procedure.step = tracer.wrap("procedures.step", procedure.step)
            procedure.skip = tracer.wrap("procedures.step", procedure.skip)
            tracer.procedure = procedure
            return procedure

        return make

    return patched(
        cli,
        {
            "make_procedure": traced_make_procedure,
            "HypothesisEvent": lambda cls: tracer.wrap("core.event", cls),
        },
    )


def input_sizes(workload: str, seed: int) -> dict:
    """The per-workload input sizes reported with every result."""
    if workload == "sweep-grid":
        master_seed, units = sweep_plan(seed)
        return {
            "N": units[0][1].total,
            "M": "1 (GAI, LORD, LOND) or 2 (ml-*)",
            "panels": [name for name, _, _ in units[: len(units) // 2]],
            "betas_first_pass": [beta for _, _, beta in units[: len(units) // 2]],
            "methods": list(METHODS),
            "replicates_per_cell": REPLICATES,
            "master_seed": master_seed,
        }
    return {
        "N_per_session": STREAM_EVENTS,
        "M": 2,
        "groups": STREAM_GROUPS,
        "signal_share": SIGNAL_SHARE,
        "argv": STREAM_ARGV,
    }


def build_program_objects(workload: str, seed: int) -> list:
    """The program objects a run builds before its first unit (timed as set-up)."""
    if workload == "sweep-grid":
        master_seed, units = sweep_plan(seed)
        return [sweep_specs(spec, beta, master_seed) for _, spec, beta in units]
    args = cli.build_parser().parse_args(STREAM_ARGV)
    return [make_procedure(args.method, args.layers, args.alpha, args.eta, untested=args.untested)]
