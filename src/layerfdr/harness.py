"""Seeded experiment executor: replicate runs, method/effect-size grids, CSVs.

Single-layer methods (GAI, LORD, LOND) test the stream with singleton groups
only; their group-level metrics are computed post hoc from the individual
rejections.  Multi-layer methods run two layers side by side — individual
singletons plus the scenario's group structure — so their individual and
group rows always come from the same paired runs.  Both layers are tallied
by one rule into (V, TD, T) rows: V counts the discovered groups that hold
no true hypothesis, TD those that hold one and T all groups that hold one,
the individual layer's groups being the arrivals.

``run_sweep`` runs each (method, beta) cell itself: its replicates' streams
generated stacked, decided by one ``lockstep_rejections`` call and tallied
per layer.  ``run_replicate`` runs one replicate through the step engine and
gives the same tallies.

``lockstep_rejections``, the sweep's kernel, runs many streams side by side
as numpy arrays over the replicate axis, for the default configurations
only, and reaches the step engine's decisions.  Only GAI's constant level is
compared before its step loop, into one boolean table; LORD, LOND and LOND_m
compare each p-value with its threshold at its step, as the engine does.  The
level table is one numpy expression equal to ``BetaSequence.value`` bit for
bit (``_levels``).

Per-replicate seeds are split from the master seed by hashing
(master_seed, method, beta, replicate) with SHA-256, so results per method
are independent of method ordering and adding grid values never perturbs
existing cells.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import HypothesisEvent, LayerState, require_alpha, require_eta, require_integers
from .metrics import AggregateResult, LayerTally, aggregate, check_truth_labels
from .procedures import METHODS, _PI_SQUARED, _rule, make_procedure, replay, simple_choice
from .simgen import ScenarioSpec, StreamData, make_streams

LAYER_NAMES = ("individual", "group")

#: default effect-size grid for sweeps
DEFAULT_BETA_GRID = tuple(x / 2.0 for x in range(1, 11))

RESULTS_HEADER = ",".join(field.name for field in fields(AggregateResult))


@dataclass(frozen=True)
class SweepSpec:
    """A (method x beta x replicate) grid over one base scenario."""

    scenario: ScenarioSpec
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    methods: tuple[str, ...] = METHODS
    replicates: int = 100
    master_seed: int = 0

    def __post_init__(self) -> None:
        require_integers(replicates=self.replicates, master_seed=self.master_seed)
        if self.replicates < 1:
            raise ValueError("at least one replicate is required")
        if not self.beta_grid:
            raise ValueError("beta grid must be nonempty")
        if not self.methods:
            raise ValueError("method list must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method names")
        for beta in self.beta_grid:
            replace(self.scenario, beta=beta)  # the scenario's own beta check
        # replicate seeds key on float(beta), so 1 and 1.0 name one cell
        _require_distinct_labels(self.beta_grid)


@dataclass(frozen=True)
class ReplicateRun:
    """Decision log and per-layer tallies of a single replicate."""

    records: tuple
    tallies: dict[str, LayerTally]


def replicate_seed(master_seed: int, method: str, beta: float, r: int) -> int:
    """Stable 64-bit seed for one grid cell replicate."""
    # hash the float value, so 2, 2.0 and np.float64(2.0) name the same cell
    key = f"{master_seed}|{method}|{float(beta)!r}|{r}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def stream_events(data: StreamData, layers: int) -> list[HypothesisEvent]:
    """Events of one stream: the individual singleton layer first and, with
    ``layers=2``, the scenario's group layer second.  The truth labels stay
    in ``data.truths``."""
    return [
        HypothesisEvent(t=i + 1, p=float(p), group_index=(i + 1, int(g))[:layers])
        for i, (p, g) in enumerate(zip(data.pvalues, data.groups))
    ]


def lockstep_rejections(
    method: str,
    pvalues: np.ndarray,
    groups: Optional[np.ndarray],
    alpha: float,
    eta: float = 1.0,
) -> np.ndarray:
    """Rejected mask, shape (R, N), of R independent streams run in lockstep.

    Row r of ``pvalues`` is one stream of N p-values.  ``groups`` holds the
    group ids of P partitions, shape (R, N, P), or (R, N) for P = 1; None
    means P = 0.  Row r runs as ``make_procedure(method, 1 + P, alpha, eta)``,
    with simple-choice spending and inverse-square levels, on events with
    group_index (t, *groups[r, t - 1]); the mask equals replay's, row for row.

    Layer 0 is the individual layer, whose groups (the arrivals) never recur,
    so only the P partitions keep per-group tables.  Each rule keeps only the
    (1 + P, R) state it reads: discovery counts plus one for LOND, with
    per-group arrival counts for LOND_m, gaps for LORD, wealth for GAI.  After an
    alpha-investing halt a row is neither tested nor rejected.
    A method outside ``METHODS``, an alpha outside (0, 1) (NaN included), an
    eta that is not positive and finite, a p-value outside [0, 1] (NaN
    included), a ``pvalues`` that is not 2-D, or group ids that are not
    integers, are negative or exceed the int64 range raise ValueError.
    """
    rule = _rule(method)
    require_alpha(alpha)
    require_eta(eta)
    pvalues = np.asarray(pvalues, dtype=float)
    if pvalues.ndim != 2:
        raise ValueError(f"pvalues has shape {pvalues.shape}, not (R, N)")
    outside = ~((pvalues >= 0.0) & (pvalues <= 1.0))  # NaN fails both comparisons
    if outside.any():
        raise ValueError(f"p-value outside [0, 1]: {pvalues[outside][0]}")
    # one (1, R) row per step, which broadcasts cheaply against (M, R) state
    p_by_step = np.ascontiguousarray(pvalues.T)[:, None]
    steps, _, reps = p_by_step.shape
    groups = np.zeros((reps, steps, 0), np.int64) if groups is None else np.asarray(groups)
    if groups.shape[:2] != (reps, steps) or groups.ndim > 3:
        raise ValueError(f"groups has shape {groups.shape}, not ({reps}, {steps}[, P])")
    partitions = dense_ids(np.moveaxis(np.atleast_3d(groups), 2, 0))
    layers = 1 + len(partitions)
    grouped = layers > 1  # with no partitions there is no group table to read or write
    # flat (partition, replicate, group) cell of each arrival, one (P, R) block per step
    offsets = steps * np.arange((layers - 1) * reps).reshape(layers - 1, reps, 1)
    cells = np.ascontiguousarray((partitions + offsets).transpose(2, 0, 1))
    decided_groups = np.zeros(partitions.size, dtype=bool)
    # row 0 is the individual layer: its group is the arrival, never decided before
    decided = np.zeros((layers, reps), dtype=bool)
    partition_rows = decided[1:]
    rejected = np.zeros((steps, 1, reps), dtype=bool)
    # levels[j] is the j-th element of the level sequence; no index (t, an
    # effective-test count or a LORD gap) exceeds the number of steps
    levels = _levels(alpha, steps)
    # keys[t - 1] is what step t compares: for GAI whether each p-value clears
    # the constant level, for the other rules the p-value itself
    if rule == "GAI":
        # the simple-choice rules are constant, so one evaluation serves every step
        policy, snapshot = simple_choice(alpha), LayerState()
        keys = p_by_step < policy.alpha_level(1, snapshot)
        spend, reward = policy.spend(1, snapshot), policy.reward(1, snapshot)
        wealth = np.full((layers, reps), alpha * eta)
        halted = np.zeros((1, reps), dtype=bool)
    elif rule == "LORD":
        keys = p_by_step
        gap = np.ones((layers, reps), dtype=np.int64)
    else:
        keys = p_by_step
        # factor is D + 1 after D discoveries, so each threshold is the engine's
        # level * (D + 1) bit for bit.  The engine caps it at 1, which these
        # levels never reach: a tested layer has D <= index - 1 (LOND's index
        # is t, LOND_m's t - seen_in_rejected + D >= D + 1), so its threshold
        # is at most 6 alpha (D + 1) / (pi^2 (D + 1)^2) <= 6 alpha / pi^2 < 1.
        factor = np.ones((layers, reps))
        if rule == "LOND_m":
            # arrivals so far in each group, and in rejected groups beyond each group's one test
            seen = np.zeros(decided_groups.size, dtype=np.int64)
            excess = np.zeros((layers, reps), dtype=np.int64)

    for t, (key, cell, hit) in enumerate(zip(keys, cells, rejected), 1):
        if grouped:
            partition_rows[...] = decided_groups[cell]
        if rule == "GAI":
            cleared = key
        elif rule == "LORD":
            cleared = key < levels[gap]
        elif rule == "LOND":
            cleared = key < levels[t] * factor
        else:
            cleared = key < levels[t - excess] * factor
        # hit is this step's row of the mask, written in place
        (cleared | decided).all(axis=0, keepdims=True, out=hit)
        if rule == "GAI":
            hit &= ~halted
        newly = hit > decided  # rejected here and not decided before
        if grouped:
            decided_groups[cell] = partition_rows | hit
        if rule == "GAI":
            spent = np.where(decided | halted, wealth, wealth - spend)
            wealth = np.where(newly, wealth + reward - spend, spent)
            halted |= (wealth <= 0.0).any(axis=0, keepdims=True)
            if halted.all():
                break
        elif rule == "LORD":
            gap += ~decided
            np.putmask(gap, newly, 1)
        else:
            factor += newly
            if rule == "LOND_m":
                before = seen[cell]
                seen[cell] = before + 1
                excess[1:] += np.where(newly[1:], before, partition_rows)
    return rejected[:, 0].T


def _levels(alpha: float, steps: int) -> np.ndarray:
    """``BetaSequence(alpha).value(j)`` at j = 1..steps, bit for bit, after a 0 at j = 0."""
    j = np.arange(1.0, steps + 1)
    # the same operations in the same order as ``value``
    return np.concatenate([[0.0], alpha * 6.0 / (_PI_SQUARED * j * j)])


def dense_ids(ids: np.ndarray) -> np.ndarray:
    """Non-negative integer ids of shape (..., N) as int64, with every id
    below N: as they are if all are, else each row's distinct ids renumbered
    0, 1, ... in increasing order.  Arrivals in a row share an id exactly as
    before.  Ids without an integer dtype, negative or past the int64 range
    raise ValueError.  The cast comes first: uint64 ids paired with int64 row
    numbers would go through float64 and merge ids past 2**53."""
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"group ids must be integers, got dtype {ids.dtype}")
    if ids.size and ids.min() < 0:
        raise ValueError("group ids must be non-negative")
    if ids.size and int(ids.max()) > np.iinfo(np.int64).max:
        raise ValueError(f"group ids must fit in int64, got {ids.max()}")
    ids = ids.astype(np.int64, copy=False)
    steps = ids.shape[-1]
    if not ids.size or ids.max() < steps:
        return ids
    rows = ids.reshape(-1, steps)
    pairs = np.column_stack([np.repeat(np.arange(len(rows)), steps), rows.ravel()])
    pair = np.unique(pairs, axis=0, return_inverse=True)[1].reshape(rows.shape)
    return (pair - pair.min(axis=1, keepdims=True)).reshape(ids.shape)


def stream_tallies(data: StreamData, rejected: np.ndarray) -> dict[str, np.ndarray]:
    """Tallies of stacked (R, N) streams at both reporting layers, from their
    (R, N) rejected mask: one (R, 3) array of ``LayerTally`` rows per layer.

    Each layer is a pair of (R, N) masks over its groups, ``selected`` and
    ``holds_true``, and every pair is counted alike.  The individual layer's
    groups are the arrivals; the group layer's are the (row, id) bins of
    ``dense_ids``, the renumbering the sweep kernel uses, which refuses the
    ids the kernel refuses.  A mask whose shape is not ``data.truths``'s
    raises ValueError.
    """
    check_truth_labels(data.truths)
    rejected = np.asarray(rejected, dtype=bool)
    if rejected.shape != data.truths.shape:
        raise ValueError(f"rejected mask has shape {rejected.shape}, not {data.truths.shape}")
    true = data.truths == 1
    rows, total = rejected.shape
    # dense ids are below N, so row r's groups take bins r * N .. r * N + N - 1
    bins = (dense_ids(data.groups) + total * np.arange(rows)[:, None]).ravel()

    def any_in_group(mask: np.ndarray) -> np.ndarray:
        return np.bincount(bins[mask.ravel()], minlength=rows * total).reshape(rows, total) > 0

    layers = ((rejected, true), (any_in_group(rejected), any_in_group(true)))
    tallies = {}
    for name, (selected, holds_true) in zip(LAYER_NAMES, layers):
        hits = (selected & holds_true).sum(axis=1)
        tallies[name] = np.column_stack([selected.sum(axis=1) - hits, hits, holds_true.sum(axis=1)])
    return tallies


def run_replicate(scenario: ScenarioSpec, method: str, seed: int) -> ReplicateRun:
    """One seeded run of one method through the step engine (one layer for
    single-layer methods, two for ml methods), tallied at both reporting layers.

    An alpha-investing halt is recorded in the log, not raised.
    """
    layers = 2 if method.startswith("ml-") else 1
    procedure = make_procedure(method, layers, scenario.alpha, scenario.eta)
    data = make_streams(scenario, [seed])
    records = replay(procedure, stream_events(data.row(0), layers))
    rejected = np.array([[record.rejected for record in records]], dtype=bool)
    per_layer = stream_tallies(data, rejected)
    tallies = {name: LayerTally(*per_layer[name][0].tolist()) for name in LAYER_NAMES}
    return ReplicateRun(records=tuple(records), tallies=tallies)


def run_sweep(sweep: SweepSpec) -> list[AggregateResult]:
    """Aggregate every (method, beta, layer) cell of the sweep.

    Each replicate draws its stream from its own seed, as ``run_replicate``
    does; a cell's streams are generated stacked, the decisions come from all
    its replicates in lockstep, and the tallies equal ``run_replicate``'s
    replicate for replicate.  Rows come out sorted by canonical method order,
    then beta, then layer, so emission is deterministic regardless of the
    input method and beta order.  Replicate seeds key on the cell, so the
    order changes no number.
    """
    scenario = sweep.scenario
    rows: list[AggregateResult] = []
    for method in sorted(sweep.methods, key=METHODS.index):
        for beta in sorted(sweep.beta_grid):
            seeds = [
                replicate_seed(sweep.master_seed, method, beta, r)
                for r in range(sweep.replicates)
            ]
            data = make_streams(replace(scenario, beta=beta), seeds)
            rejected = lockstep_rejections(
                method,
                data.pvalues,
                data.groups if method.startswith("ml-") else None,
                scenario.alpha,
                scenario.eta,
            )
            per_layer = stream_tallies(data, rejected)
            for name in LAYER_NAMES:
                rows.append(
                    aggregate(per_layer[name], scenario.eta, method=method, beta=beta, layer=name)
                )
    return rows


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _require_distinct_labels(betas) -> None:
    """Raise ValueError if two betas print alike: the CSVs label rows to six
    significant digits, so 1 and 1.0000001 would be two rows labelled 1."""
    labels = [_fmt(beta) for beta in betas]
    if len(set(labels)) != len(labels):
        repeated = next(label for label in labels if labels.count(label) > 1)
        raise ValueError(f"duplicate beta values: two print as {repeated}")


def format_result_row(row: AggregateResult) -> str:
    # text as it is, numbers (an integer beta too) to six significant digits,
    # and the replicate count in full
    *values, replicates = astuple(row)
    return ",".join([v if isinstance(v, str) else _fmt(v) for v in values] + [str(replicates)])


def emit_results(rows: Sequence[AggregateResult], out_dir) -> list[Path]:
    """Write the results table plus one plot-data file per metric and layer.

    ``results.csv`` holds every aggregate row; the six ``panel_*.csv`` files
    hold one beta-indexed column per method for power/fdr/mfdr at each layer.
    Values carry six significant digits; repeated runs produce identical
    bytes.  The rows must fill the (method, beta, layer) grid once each, with
    methods from ``METHODS``, layers from ``LAYER_NAMES`` and finite betas,
    and no two of their betas may print alike.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("empty result table")
    for row in rows:
        if row.method not in METHODS:
            raise ValueError(f"result row has an unknown method: {row.method!r}")
        if row.layer not in LAYER_NAMES:
            raise ValueError(f"result row has an unknown layer: {row.layer!r}")
        if not math.isfinite(row.beta):
            raise ValueError(f"result row has a non-finite beta: {row.beta}")
    methods = sorted({row.method for row in rows}, key=METHODS.index)
    betas = sorted({row.beta for row in rows})
    _require_distinct_labels(betas)
    cells: dict[tuple, AggregateResult] = {}
    for row in rows:
        cell = (row.method, row.beta, row.layer)
        if cell in cells:
            raise ValueError(f"result table repeats the cell {cell}")
        cells[cell] = row
    missing = [
        (m, b, layer)
        for m in methods
        for b in betas
        for layer in LAYER_NAMES
        if (m, b, layer) not in cells
    ]
    if missing:
        raise ValueError(f"result table is not a full grid; missing {missing[:3]}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    ordered = sorted(
        rows, key=lambda r: (METHODS.index(r.method), r.beta, LAYER_NAMES.index(r.layer))
    )
    results_path = out / "results.csv"
    lines = [RESULTS_HEADER] + [format_result_row(row) for row in ordered]
    results_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(results_path)

    for metric in ("power", "fdr", "mfdr"):
        for layer in LAYER_NAMES:
            path = out / f"panel_{metric}_{layer}.csv"
            lines = ["beta," + ",".join(methods)]
            for beta in betas:
                values = [
                    _fmt(getattr(cells[(m, beta, layer)], metric)) for m in methods
                ]
                lines.append(_fmt(beta) + "," + ",".join(values))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written


def standard_scenarios() -> dict[str, ScenarioSpec]:
    """The shipped benchmark grid: every unique structure/pattern/strength
    panel at the baseline sizes (G=20 groups of n=10, s=20, alpha=0.1, eta=1)."""
    base = ScenarioSpec(G=20, n=10, s=20.0, k=100.0, alpha=0.1, eta=1.0)
    panels = {
        "block-fixed-constant": base,
        "interleaved-fixed-constant": replace(base, structure="interleaved"),
        "unbalanced-fixed-constant": replace(base, structure="unbalanced"),
        "interleaved-random-constant": replace(
            base, structure="interleaved", pattern="random"
        ),
        "interleaved-markov-constant": replace(
            base, structure="interleaved", pattern="markov"
        ),
        "block-fixed-increasing": replace(base, strength="increasing"),
        "block-fixed-decreasing": replace(base, strength="decreasing"),
        "interleaved-random-constant-k50": replace(
            base, structure="interleaved", pattern="random", k=50.0
        ),
        "interleaved-random-increasing-k50": replace(
            base, structure="interleaved", pattern="random", strength="increasing", k=50.0
        ),
        "interleaved-random-decreasing-k50": replace(
            base, structure="interleaved", pattern="random", strength="decreasing", k=50.0
        ),
    }
    return panels
