"""Independent reference implementations and diagnostic probes.

Nothing in this module shares logic with the production step machines: the
single-layer references are separate, deliberately naive transcriptions of
the per-step rules, and the counting diagnostics evaluate their defining
formulas directly from decision logs.  Agreement with the engines is
therefore evidence of correctness rather than a tautology.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from .core import DecisionRecord, HypothesisEvent, LayerOutcome, LayerState, require_integers
from .harness import stream_events
from .metrics import check_one_label_per_arrival, prefix_tallies
from .procedures import SpendingPolicy, make_procedure, replay
from .simgen import ScenarioSpec, make_streams


def single_layer_gai_reference(
    pvalues: Sequence[float], alpha: float, eta: float = 1.0
) -> tuple[list[int], int]:
    """Classic alpha-investing with the constant spend/reward schedule.

    Returns (decisions, tested_steps).  Events arriving after the wealth
    crosses zero are not tested and decided 0.
    """
    wealth = alpha * eta
    spend = alpha / (1.0 - alpha)
    reward = spend + alpha
    decisions: list[int] = []
    tested = 0
    for p in pvalues:
        if wealth <= 0.0:
            decisions.append(0)
            continue
        tested += 1
        if p < alpha:
            decisions.append(1)
            wealth = wealth + reward - spend
        else:
            decisions.append(0)
            wealth = wealth - spend
    return decisions, tested


def single_layer_lond_reference(
    pvalues: Sequence[float], alpha: float
) -> tuple[list[int], list[float]]:
    """Classic LOND: level sequence element i scaled by (discoveries + 1)."""
    decisions: list[int] = []
    thresholds: list[float] = []
    discoveries = 0
    for i, p in enumerate(pvalues, start=1):
        level = alpha * 6.0 / (math.pi ** 2 * i * i)
        threshold = min(1.0, level * (discoveries + 1))
        thresholds.append(threshold)
        if p < threshold:
            decisions.append(1)
            discoveries += 1
        else:
            decisions.append(0)
    return decisions, thresholds


def single_layer_lord_reference(
    pvalues: Sequence[float], alpha: float
) -> tuple[list[int], list[float]]:
    """Classic LORD: level sequence indexed by tests since last discovery."""
    decisions: list[int] = []
    thresholds: list[float] = []
    gap = 1
    for p in pvalues:
        threshold = alpha * 6.0 / (math.pi ** 2 * gap * gap)
        thresholds.append(threshold)
        if p < threshold:
            decisions.append(1)
            gap = 1
        else:
            decisions.append(0)
            gap += 1
    return decisions, thresholds


def multilayer_reference(
    method: str,
    events: Sequence[HypothesisEvent],
    alpha: float,
    eta: float = 1.0,
    *,
    untested: str = "literal",
    schedules: Optional[Sequence] = None,
) -> list[DecisionRecord]:
    """Records of a multi-layer run, recomputed from the whole history.

    At every step each layer's state before the arrival (discovered groups,
    arrival counts, effective-test count, LORD gap, wealth) is rebuilt by
    scanning every earlier event and decision, O(t) per step.  ``schedules``
    holds one level sequence (anything with ``value(j)``) per LOND/LORD
    layer, or one spending policy per GAI layer; None means inverse-square
    levels and simple-choice spending, written out here.  A policy is called
    with a ``LayerState`` this function builds, never with the engine's.  A
    list of the wrong length or an entry of the wrong kind raises ValueError
    before the first step, as do a method the engine does not run, an alpha
    outside (0, 1), an eta that is not positive and finite and an untested
    mode other than "literal" and "accept"; an event whose group id count
    differs from the first event's, a level sequence value outside [0, 1], a
    GAI level outside (0, 1] or a non-finite spend or reward raises at the step
    that reads it, as the engine does.
    """
    # the engine's method names, written out: a name added there runs here
    # only once this reference writes out its rule
    if method not in ("GAI", "LORD", "LOND", "ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m"):
        raise ValueError(f"unknown method name: {method!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if untested not in ("literal", "accept"):
        raise ValueError(f"unknown untested-hypothesis mode: {untested!r}")
    rule = method[3:] if method.startswith("ml-") else method
    layers = len(events[0].group_index) if events else 0
    schedules = [None] * layers if schedules is None else list(schedules)
    if events and len(schedules) != layers:
        raise ValueError(f"one schedule per layer is required, got {len(schedules)}")
    gai = rule == "GAI"
    for m, schedule in enumerate(schedules):
        if schedule is None or (
            isinstance(schedule, SpendingPolicy) if gai else hasattr(schedule, "value")
        ):
            continue
        wanted = "a SpendingPolicy" if gai else "a level sequence with value(j)"
        got = type(schedule).__name__
        raise ValueError(f"layer {m} schedule must be {wanted} under {rule}, got {got}")
    log: list[tuple] = []  # per step: groups, tested layers, rejected, charges
    records = []
    halted = False
    for t, event in enumerate(events, 1):
        groups = event.group_index
        if len(groups) != layers:
            raise ValueError(f"event carries {len(groups)} group ids, expected {layers}")
        before = [_history_state(rule, log, m, alpha * eta) for m in range(layers)]
        tested = [] if halted else [
            m for m in range(layers) if groups[m] not in before[m].rejected_groups
        ]
        thresholds, charges = {}, {}
        for m in tested:
            state, schedule = before[m], schedules[m]
            if rule == "GAI":
                if schedule is None:
                    spend = alpha / (1.0 - alpha)
                    thresholds[m], charges[m] = alpha, (spend, spend + alpha)
                else:
                    thresholds[m] = level = schedule.alpha_level(t, state)
                    if not 0.0 < level <= 1.0:
                        raise ValueError(f"significance level outside (0, 1]: {level}")
                    charges[m] = spend, reward = schedule.spend(t, state), schedule.reward(t, state)
                    if not (math.isfinite(spend) and math.isfinite(reward)):
                        raise ValueError(f"non-finite spend or reward at t={t}: {spend}, {reward}")
                continue
            if rule == "LORD":
                thresholds[m] = _level(schedule, alpha, state.since_last_discovery)
            else:
                # the effective-test count as of t, before the arrival is counted
                index = t - state.seen_in_rejected + state.rejections if rule == "LOND_m" else t
                thresholds[m] = min(1.0, _level(schedule, alpha, index) * (state.rejections + 1))
        if halted:
            rejected = False
        elif tested:
            rejected = all(event.p < thresholds[m] for m in tested)
        else:
            rejected = untested == "literal"
        log.append((groups, tested, rejected, charges))
        after = [_history_state(rule, log, m, alpha * eta) for m in range(layers)]
        halted = rule == "GAI" and min(state.wealth for state in after) <= 0.0
        outcomes = tuple(
            LayerOutcome(
                m in tested,
                thresholds.get(m),
                m in tested and rejected,
                state.wealth,
                state.rejections,
                t - state.seen_in_rejected + state.rejections,
                state.since_last_discovery,
            )
            for m, state in enumerate(after)
        )
        records.append(DecisionRecord(t, rejected, groups, outcomes, halted))
    return records


def _level(schedule, alpha: float, j: int) -> float:
    if schedule is None:
        return alpha * 6.0 / (math.pi ** 2 * j * j)
    level = schedule.value(j)
    if not 0.0 <= level <= 1.0:  # NaN included
        raise ValueError(f"level sequence value outside [0, 1]: {level}")
    return level


def _history_state(rule: str, log: Sequence[tuple], layer: int, wealth: float) -> LayerState:
    """One layer's state after the logged steps, rebuilt from the first step."""
    rejected_groups: set[int] = set()
    gap = 1
    for groups, tested, rejected, charges in log:
        if layer not in tested:
            continue
        if rule == "GAI":
            spend, reward = charges[layer]
            wealth = wealth + reward - spend if rejected else wealth - spend
        if rejected:
            rejected_groups.add(groups[layer])
        gap = 1 if rejected else gap + 1
    arrivals = [groups[layer] for groups, _, _, _ in log]
    undecided = [group for group in arrivals if group not in rejected_groups]
    return LayerState(
        wealth=wealth if rule == "GAI" else None,
        rejections=len(rejected_groups),
        since_last_discovery=gap if rule == "LORD" else None,
        rejected_groups=rejected_groups,
        seen_per_group=dict(Counter(undecided)),
        seen_in_rejected=len(arrivals) - len(undecided),
    )


def kappa_direct(records: Sequence[DecisionRecord], layer: int, i: int) -> int:
    """Effective tests in a layer by time i, straight from the definition.

    Counts i minus the number of hypotheses among the first i whose group is
    rejected as of time i, plus the number of rejected groups as of time i.
    """
    if i < 1 or i > len(records):
        raise IndexError(f"time {i} outside the log of length {len(records)}")
    rejected: set[int] = set()
    for record in records[:i]:
        if record.layers[layer].newly_rejected:
            rejected.add(record.group_index[layer])
    in_rejected = sum(
        1 for record in records[:i] if record.group_index[layer] in rejected
    )
    return i - in_rejected + len(rejected)


def kappa_direct_trajectory(
    records: Sequence[DecisionRecord], layer: int
) -> np.ndarray:
    """``kappa_direct`` for every prefix at once (same counting identity).

    A hypothesis starts counting toward the collapsed total at the later of
    its own arrival and its group's rejection time, which turns the double
    count into two cumulative histograms.
    """
    n = len(records)
    never = n + 1
    group_rejected_at: dict[int, int] = {}
    for idx, record in enumerate(records):
        if record.layers[layer].newly_rejected:
            group_rejected_at[record.group_index[layer]] = idx + 1
    event_from = np.empty(n, dtype=np.int64)
    for idx, record in enumerate(records):
        rejected_at = group_rejected_at.get(record.group_index[layer], never)
        event_from[idx] = max(idx + 1, rejected_at)
    in_rejected = np.cumsum(np.bincount(event_from, minlength=never + 1))[1 : n + 1]
    group_times = np.fromiter(group_rejected_at.values(), dtype=np.int64, count=len(group_rejected_at))
    groups_rejected = np.cumsum(np.bincount(group_times, minlength=never + 1))[1 : n + 1]
    return np.arange(1, n + 1) - in_rejected + groups_rejected


def _layer_tallies(records: Sequence[DecisionRecord], truths: Sequence[int], layer: int):
    """``prefix_tallies`` of one layer of a decision log and its truth labels."""
    ids = [record.group_index[layer] for record in records]
    return prefix_tallies(ids, truths, [record.rejected for record in records])


def per_discovery_fdp(
    records: Sequence[DecisionRecord], truths: Sequence[int], layer: int
) -> list[float]:
    """False discovery proportion of one layer at each of its discovery times.

    The k-th entry is the number of rejected-but-null groups divided by k,
    evaluated at the step of the k-th group discovery (truth accumulated
    through that same step).
    """
    false_hits, true_hits, _ = _layer_tallies(records, truths, layer).T
    discoveries = false_hits + true_hits
    grows = np.flatnonzero(np.diff(discoveries, prepend=0))
    return (false_hits[grows] / discoveries[grows]).tolist()


def balance_trajectories(
    records: Sequence[DecisionRecord],
    truths: Sequence[int],
    alpha: float,
    eta: float,
) -> np.ndarray:
    """Per-layer path of alpha*R - V + alpha*eta - W over one investing run.

    ``truths`` holds the 0/1 ground-truth label of each record's hypothesis.
    Index j of the returned (layers, N+1) array is the value after j steps;
    index 0 is exactly zero because R = V = 0 and W = alpha * eta at start.
    The path freezes once the stream halts.
    """
    check_one_label_per_arrival(len(records), len(truths), len(records))
    layers = len(records[0].layers) if records else 0
    out = np.zeros((layers, len(records) + 1))
    for m in range(layers):
        snapshots = [record.layers[m] for record in records]
        if any(snapshot.wealth is None for snapshot in snapshots):
            raise ValueError("balance trajectories require wealth snapshots")
        false_hits = _layer_tallies(records, truths, m)[:, 0]
        rejections = np.array([snapshot.rejections for snapshot in snapshots])
        wealth = np.array([snapshot.wealth for snapshot in snapshots])
        out[m, 1:] = alpha * rejections - false_hits + alpha * eta - wealth
    return out


def submartingale_probe(
    scenario: ScenarioSpec, n_rep: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo check of the investing balance process for ml-GAI.

    Runs ``n_rep`` independent two-layer streams (individual singletons plus
    the scenario's group layer) and returns per-layer means and standard
    errors of the balance path at every step count j = 0..N.  Because the
    process starts at zero and drifts upward in expectation, the caller
    asserts mean(j) >= -3 * se(j) everywhere.
    """
    require_integers(n_rep=n_rep)
    if n_rep < 1:
        raise ValueError("at least one replicate is required")
    total = scenario.total
    sums = np.zeros((2, total + 1))
    squares = np.zeros((2, total + 1))
    rep_seeds = np.random.SeedSequence(seed).generate_state(n_rep, dtype=np.uint64)
    streams = make_streams(scenario, rep_seeds)
    for r in range(n_rep):
        data = streams.row(r)
        procedure = make_procedure("ml-GAI", 2, scenario.alpha, scenario.eta)
        records = replay(procedure, stream_events(data, 2))
        paths = balance_trajectories(records, data.truths.tolist(), scenario.alpha, scenario.eta)
        sums += paths
        squares += paths ** 2
    means = sums / n_rep
    if n_rep > 1:
        variances = np.maximum(squares / n_rep - means ** 2, 0.0) * n_rep / (n_rep - 1)
        ses = np.sqrt(variances / n_rep)
    else:
        ses = np.zeros_like(means)
    return means, ses
