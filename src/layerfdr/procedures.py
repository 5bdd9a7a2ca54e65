"""Multi-layer online testing procedures and their threshold schedules.

One engine, built by ``make_procedure`` from a method name in ``METHODS``,
runs the method's decision rule, held as a value
(``"GAI"``, ``"LOND"``, ``"LOND_m"`` or ``"LORD"``), on one skeleton: each
arriving hypothesis is tested only in the layers whose group is still
undecided ("pending"), it is rejected iff its p-value clears every pending
layer's threshold, and a rejection flips every pending layer's group to
discovered.  The rules differ only in how a threshold is computed and in the
per-layer state a step updates afterwards.

* Alpha-investing: each layer holds a wealth budget, pays a spend charge for
  every test and earns a reward on discovery; the stream halts once any
  layer's wealth is exhausted.
* LOND: the threshold at step t is the t-th element of a summable level
  sequence scaled by (discoveries + 1); the modified variant indexes the
  sequence by the number of tests the layer has effectively performed
  instead of by raw time, which recovers the levels wasted on hypotheses
  whose group was already decided.
* LORD: the threshold is the sequence element indexed by the number of
  tests since the layer's most recent discovery (reset to 1 on discovery).

Rejection requires strict inequality p < threshold; ties are accepts.

A step decides first and commits after.  One decide loop, written once per
rule, walks the layers in order: a layer whose group is undecided is pending
and gets its threshold (and for GAI its charges), checked as it is computed,
in a list indexed by layer that holds None where a layer is not tested; the
decision walks that list.  All of it reads the state as it was before the
arrival.  Only then does the clock advance and one loop over the layers
commit each: it records the arrival, marks a rejected group discovered,
applies the rule's wealth or LORD-gap update and builds that layer's
outcome.  A step that raises therefore leaves the procedure unchanged.

``replay`` drives one stream event by event.  ``lockstep_rejections`` runs
many independent simulated streams side by side as numpy arrays over the
replicate axis, for the default configurations only, and reaches the same
decisions.  It takes the group ids of any number of partitions, shape
(R, N, P), and runs the individual level as one more layer whose groups, the
arrivals, never recur, so only the partitions keep per-group tables; each
rule keeps only the state it reads (discovery counts, arrival counts for the
modified LOND, LORD gaps or wealth).  Before its step loop the kernel turns
each p-value into what its rule compares: GAI's constant level into one
boolean, and LOND's thresholds min(1, levels[t] * (k + 1)), which never fall
as the discovery count k grows, into the smallest count K that clears, so a
step compares integers (``_lond_clearances``).  The level table is one numpy
expression equal to ``BetaSequence.value`` bit for bit (``_levels``).  numpy
is imported inside the array kernels, ``lockstep_rejections`` and
``dense_ids``, and their helpers, on their first call, so the step engine,
and the ``stream`` and ``validate`` commands built on it, run without loading
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core import (
    DecisionRecord,
    HypothesisEvent,
    LayerOutcome,
    LayerState,
    StreamHalted,
    require_alpha,
    require_eta,
    require_integers,
)

if TYPE_CHECKING:
    import numpy as np

_PI_SQUARED = math.pi ** 2

# _new_tuple(LayerOutcome, values) builds an outcome from its field values in
# order without the Python-level __new__ of the NamedTuple, once per layer and step
_new_tuple = tuple.__new__

#: the seven shipped method names (single-layer originals and ml variants)
METHODS = ("GAI", "LORD", "LOND", "ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m")

UNTESTED_LITERAL = "literal"
UNTESTED_ACCEPT = "accept"


@dataclass(frozen=True)
class BetaSequence:
    """The default level sequence, alpha * 6 / (pi^2 j^2), whose infinite sum
    telescopes to ``alpha`` exactly.  Any other sequence is an object with
    ``value(j)`` passed through ``schedules``."""

    alpha: float

    def __post_init__(self) -> None:
        require_alpha(self.alpha)

    def value(self, j: int) -> float:
        if j < 1:
            raise IndexError(f"beta sequence index starts at 1, got {j}")
        return self.alpha * 6.0 / (_PI_SQUARED * j * j)


PolicyRule = Callable[[int, LayerState], float]


@dataclass(frozen=True)
class SpendingPolicy:
    """Per-test level/spend/reward/power-bound rules for alpha-investing.

    Each rule receives (t, layer state) and is evaluated before the step
    commits anything: the state does not yet record the arrival at t, so
    values may depend on the layer's wealth and discovery history but never
    on the current arrival or outcome.
    """

    alpha_level: PolicyRule
    spend: PolicyRule
    reward: PolicyRule
    power_bound: PolicyRule


def simple_choice(alpha: float) -> SpendingPolicy:
    """Constant schedule: level alpha, spend alpha/(1-alpha), reward spend+alpha.

    The reward sits exactly on the admissibility bound with power bound 1,
    the most conservative choice.
    """
    require_alpha(alpha)
    spend = alpha / (1.0 - alpha)
    return constant_policy(alpha, spend, spend + alpha)


def constant_policy(
    alpha_level: float, spend: float, reward: float, power_bound: float = 1.0
) -> SpendingPolicy:
    """Wrap four constants as a SpendingPolicy."""
    return SpendingPolicy(
        alpha_level=lambda t, state: alpha_level,
        spend=lambda t, state: spend,
        reward=lambda t, state: reward,
        power_bound=lambda t, state: power_bound,
    )


@dataclass(frozen=True)
class PolicyReport:
    """Outcome of an admissibility scan; ``t`` is the first violating step."""

    ok: bool
    t: Optional[int] = None
    reward: Optional[float] = None
    power_cap: Optional[float] = None
    level_cap: Optional[float] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_policy(
    policy: SpendingPolicy, alpha: float, horizon: int
) -> PolicyReport:
    """Scan the reward-admissibility inequality over t = 1..horizon.

    At every step the reward must satisfy
    0 <= reward <= min(spend / power_bound + alpha, spend / level + alpha - 1).
    Rules are evaluated against a pristine layer snapshot (initial wealth
    alpha, no discoveries), so state-dependent rules are spot-checked at
    that snapshot only.  Returns the first violation or an ok report; an
    alpha outside (0, 1), a horizon that is not a positive integer, an
    invalid power bound or level, or a non-finite spend or reward, raises
    ValueError.
    """
    require_alpha(alpha)
    require_integers(horizon=horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    snapshot = LayerState(wealth=alpha)
    tolerance = 1e-12
    for t in range(1, horizon + 1):
        rho = policy.power_bound(t, snapshot)
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"invalid power bound at t={t}: {rho}")
        level = policy.alpha_level(t, snapshot)
        if not 0.0 < level <= 1.0:
            raise ValueError(f"invalid significance level at t={t}: {level}")
        spend = policy.spend(t, snapshot)
        reward = policy.reward(t, snapshot)
        _check_charges(t, spend, reward)
        power_cap = spend / rho + alpha
        level_cap = spend / level + alpha - 1.0
        if reward < -tolerance or reward > min(power_cap, level_cap) + tolerance:
            return PolicyReport(
                ok=False, t=t, reward=reward, power_cap=power_cap, level_cap=level_cap
            )
    return PolicyReport(ok=True)


def _check_charges(t: int, spend: float, reward: float) -> None:
    # every comparison with NaN is false, so a NaN charge would pass the
    # admissibility scan and freeze a stream's wealth at NaN, never halting
    if not (math.isfinite(spend) and math.isfinite(reward)):
        raise ValueError(f"non-finite spend or reward at t={t}: {spend}, {reward}")


class OnlineProcedure:
    """The sequential multi-layer decision engine; one instance owns one stream.

    ``method`` is one of ``METHODS``; ``rule`` keeps its decision rule,
    ``"GAI"``, ``"LORD"``, ``"LOND"`` or ``"LOND_m"``, since the ``ml-``
    prefix only documents intent: the multi-layer character comes from the
    layer count and the group ids the events carry.  It is built through
    ``make_procedure``, its public name.  ``schedules`` holds one schedule
    per layer: a level sequence (anything with ``value(j)``) for LOND and
    LORD, or a SpendingPolicy for GAI.  None, for the list or for one entry, means
    ``BetaSequence(alpha)`` or ``simple_choice(alpha)``; a list of the wrong
    length or an entry of the wrong kind raises ValueError, and so does a
    step at which a level sequence value lies outside [0, 1].

    * GAI (alpha-investing): every layer starts with wealth alpha * eta.  Each
      pending layer pays the spend charge whether or not the hypothesis is
      rejected and earns the reward only on rejection; a layer whose group is
      already decided is neither tested nor charged.  The stream halts once
      min wealth <= 0, so the final charged step may push wealth below zero.
    * LOND: the pending threshold at step t is min(1, beta(idx) * (R + 1))
      with R the layer's current discovery count; idx is the raw time t, or
      for LOND_m the layer's effective test count, which treats every
      hypothesis landing in an already-rejected group as part of that group's
      single collapsed test.
    * LORD: each layer counts tests since its last discovery (starting at 1)
      and uses the level sequence at that index.  On rejection every pending
      layer's counter resets to 1; otherwise every pending layer's counter
      advances, including layers the failing comparison short-circuited past.

    ``step`` consumes the next event and returns a DecisionRecord; after an
    alpha-investing halt further ``step`` calls raise StreamHalted while
    ``skip`` records the event as not tested.  Both run one body: decide
    from the state as it was, then commit and record each layer in one
    loop; after a halt no layer is pending and nothing is rejected.
    Replaying the same events through a freshly configured instance yields
    identical records.
    """

    def __init__(
        self, method: str, layers: int, alpha: float, eta: float = 1.0, *,
        untested: str = UNTESTED_LITERAL, schedules: Optional[Sequence] = None,
    ):
        rule = _rule(method)
        require_integers(layers=layers)
        if layers < 1:
            raise ValueError(f"at least one layer is required, got {layers}")
        require_alpha(alpha)
        require_eta(eta)
        if untested not in (UNTESTED_LITERAL, UNTESTED_ACCEPT):
            raise ValueError(f"unknown untested-hypothesis mode: {untested!r}")
        if schedules is None:
            schedules = (None,) * layers
        elif len(schedules) != layers:
            raise ValueError(f"one schedule per layer is required, got {len(schedules)}")
        gai = rule == "GAI"
        default = simple_choice(alpha) if gai else BetaSequence(alpha)
        schedules = tuple(default if schedule is None else schedule for schedule in schedules)
        for m, schedule in enumerate(schedules):
            if not (isinstance(schedule, SpendingPolicy) if gai else hasattr(schedule, "value")):
                wanted = "a SpendingPolicy" if gai else "a level sequence with value(j)"
                got = type(schedule).__name__
                raise ValueError(f"layer {m} schedule must be {wanted} under {rule}, got {got}")
        self.rule = rule
        self.layers = layers
        self.alpha = alpha
        self.eta = eta
        self.untested = untested
        self.schedules = schedules
        wealth = alpha * eta if rule == "GAI" else None
        gap = 1 if rule == "LORD" else None
        self.states = [LayerState(wealth=wealth, since_last_discovery=gap) for _ in range(layers)]
        self.t = 0
        self.halted = False

    def step(self, event: HypothesisEvent) -> DecisionRecord:
        if self.halted:
            raise StreamHalted("wealth exhausted")
        return self._step(event)

    def skip(self, event: HypothesisEvent) -> DecisionRecord:
        """Record an event arriving after a halt: not tested, never rejected."""
        if not self.halted:
            raise RuntimeError("skip() is only valid after the stream has halted")
        return self._step(event)

    def run_pvalues(self, pvalues: Sequence[float]) -> list[DecisionRecord]:
        """Feed bare p-values as fresh singleton-group events."""
        events = [
            HypothesisEvent(
                t=self.t + i + 1,
                p=float(p),
                group_index=(self.t + i + 1,) * self.layers,
            )
            for i, p in enumerate(pvalues)
        ]
        return replay(self, events)

    def _step(self, event: HypothesisEvent) -> DecisionRecord:
        # everything that can raise runs before the state is touched, so a
        # failed step leaves the stream as it was before the call
        groups = event.group_index
        layers = self.layers
        if len(groups) != layers:
            raise ValueError(f"event carries {len(groups)} group ids, expected {layers}")
        t = self.t + 1
        rule, schedules, states = self.rule, self.schedules, self.states
        # one decide loop per rule: in layer order, a layer whose group is
        # still undecided is pending and gets its threshold; None elsewhere
        thresholds = [None] * layers
        if self.halted:
            pass  # nothing is tested after a halt
        elif rule == "LORD":
            for m in range(layers):
                state = states[m]
                if groups[m] not in state.rejected_groups:
                    thresholds[m] = level = schedules[m].value(state.since_last_discovery)
                    if not 0.0 <= level <= 1.0:  # NaN included
                        raise ValueError(f"level sequence value outside [0, 1]: {level}")
        elif rule == "GAI":
            charges = [None] * layers
            for m in range(layers):
                state = states[m]
                if groups[m] not in state.rejected_groups:
                    policy = schedules[m]
                    thresholds[m] = level = policy.alpha_level(t, state)
                    if not 0.0 < level <= 1.0:
                        raise ValueError(f"significance level outside (0, 1]: {level}")
                    charges[m] = spend, reward = policy.spend(t, state), policy.reward(t, state)
                    _check_charges(t, spend, reward)
        else:
            modified = rule == "LOND_m"
            for m in range(layers):
                state = states[m]
                if groups[m] not in state.rejected_groups:
                    level = schedules[m].value(state.effective_tests(t) if modified else t)
                    if not 0.0 <= level <= 1.0:  # NaN included; min(1.0, nan) would be 1.0
                        raise ValueError(f"level sequence value outside [0, 1]: {level}")
                    thresholds[m] = min(1.0, level * (state.rejections + 1))
        p = event.p
        rejected = None
        for threshold in thresholds:
            if threshold is not None:
                if not p < threshold:
                    rejected = False
                    break
                rejected = True
        if rejected is None:
            # every layer's group is already decided, or the stream has halted
            rejected = not self.halted and self.untested == UNTESTED_LITERAL
        self.t = t
        gai, lord = rule == "GAI", rule == "LORD"
        outcomes = []
        for m in range(layers):
            state, group, threshold = states[m], groups[m], thresholds[m]
            state.observe(group)
            tested = threshold is not None
            if tested:
                if rejected:
                    state.mark_rejected(group)
                if gai:
                    # evaluate the update exactly as written (W + reward - spend) so the
                    # halt comparison is reproducible across independent implementations
                    spend, reward = charges[m]
                    state.wealth = (state.wealth + reward if rejected else state.wealth) - spend
                elif lord:
                    state.since_last_discovery = 1 if rejected else state.since_last_discovery + 1
            outcomes.append(
                _new_tuple(
                    LayerOutcome,
                    (
                        tested,
                        threshold,
                        tested and rejected,
                        state.wealth,
                        state.rejections,
                        state.effective_tests(t),
                        state.since_last_discovery,
                    ),
                )
            )
        self.halted = gai and min(state.wealth for state in states) <= 0.0
        return DecisionRecord(t, rejected, groups, tuple(outcomes), self.halted)


def _rule(method: str) -> str:
    """The decision rule a method name runs."""
    if method not in METHODS:
        raise ValueError(f"unknown method name: {method!r}")
    return method[3:] if method.startswith("ml-") else method


#: the one way in: ``make_procedure(method, layers, alpha, ...)``
make_procedure = OnlineProcedure


def replay(
    procedure: OnlineProcedure, events: Sequence[HypothesisEvent]
) -> list[DecisionRecord]:
    """Drive a procedure over a whole stream, freezing instead of erroring
    once an alpha-investing halt occurs."""
    records = []
    for event in events:
        if procedure.halted:
            records.append(procedure.skip(event))
        else:
            records.append(procedure.step(event))
    return records


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
    (1 + P, R) state it reads: discovery counts for LOND, plus per-group
    arrival counts for LOND_m, gaps for LORD, wealth for GAI.  After an
    alpha-investing halt a row is neither tested nor rejected.
    A method outside ``METHODS``, an alpha outside (0, 1) (NaN included), an
    eta that is not positive and finite, a p-value outside [0, 1] (NaN
    included), a ``pvalues`` that is not 2-D, or group ids that are not
    integers, are negative or exceed the int64 range raise ValueError.
    """
    import numpy as np

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
    if not np.issubdtype(groups.dtype, np.integer):
        raise ValueError(f"group ids must be integers, got dtype {groups.dtype}")
    if groups.size and groups.min() < 0:
        raise ValueError("group ids must be non-negative")
    if groups.size and int(groups.max()) > np.iinfo(np.int64).max:
        raise ValueError(f"group ids must fit in int64, got {groups.max()}")
    partitions = dense_ids(np.moveaxis(np.atleast_3d(groups).astype(np.int64), 2, 0))
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
    # the constant level, for LOND the discovery count it clears at, and for
    # LORD and LOND_m, whose level index differs by layer, the p-value itself
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
        rejections = np.zeros((layers, reps), dtype=np.int64)
        if rule == "LOND":
            keys = _lond_clearances(p_by_step, levels)
        else:
            keys = p_by_step
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
            cleared = rejections >= key
        else:
            cleared = key < np.minimum(1.0, levels[t - excess] * (rejections + 1))
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
            rejections += newly
            if rule == "LOND_m":
                before = seen[cell]
                seen[cell] = before + 1
                excess[1:] += np.where(newly[1:], before, partition_rows)
    return rejected[:, 0].T


def _levels(alpha: float, steps: int) -> np.ndarray:
    """``BetaSequence(alpha).value(j)`` at j = 1..steps, bit for bit, after a 0 at j = 0."""
    import numpy as np

    j = np.arange(1.0, steps + 1)
    # the same operations in the same order as ``value``
    return np.concatenate([[0.0], alpha * 6.0 / (_PI_SQUARED * j * j)])


def _lond_clearances(pvalues: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The smallest discovery count K at which each (step, ...) p-value clears
    LOND at its step t = 1, 2, ...: p < min(1, levels[t] * (k + 1)) exactly
    when k >= K, since the float product never falls as k grows.  A p-value
    that clears at no count up to the number of steps gets a larger K."""
    import numpy as np

    steps = len(levels) - 1
    level = levels[1:].reshape((steps,) + (1,) * (pvalues.ndim - 1))
    # for p < 1, floor(p / level) is K in exact arithmetic; where that is at
    # most steps + 1, the roundings of the quotient and of the products move it
    # by less than one count, so K is one of estimate - 1, estimate and
    # estimate + 1, told apart by the exact products; p = 1 clears nowhere.
    # One float buffer holds the estimate, then each product, in place.
    buffer = np.divide(pvalues, level)
    np.minimum(buffer, steps + 1, out=buffer)
    np.floor(buffer, out=buffer)
    clearances = buffer.astype(np.int64)
    np.multiply(level, buffer, out=buffer)
    np.minimum(buffer, 1.0, out=buffer)
    clears_below = pvalues < buffer
    np.add(clearances, 1.0, out=buffer)
    np.multiply(level, buffer, out=buffer)
    np.minimum(buffer, 1.0, out=buffer)
    clears_at = pvalues < buffer
    clearances += 1
    clearances -= clears_below
    clearances -= clears_at
    np.putmask(clearances, ~(pvalues < 1.0), steps + 1)
    return clearances


def dense_ids(ids: np.ndarray) -> np.ndarray:
    """Non-negative int ids of shape (..., N) with every id returned below N:
    as they are if all are, else each row's distinct ids renumbered 0, 1, ...
    in increasing order.  Arrivals in a row share an id exactly as before."""
    import numpy as np

    steps = ids.shape[-1]
    if not ids.size or ids.max() < steps:
        return ids
    rows = ids.reshape(-1, steps)
    pairs = np.column_stack([np.repeat(np.arange(len(rows)), steps), rows.ravel()])
    pair = np.unique(pairs, axis=0, return_inverse=True)[1].reshape(rows.shape)
    return (pair - pair.min(axis=1, keepdims=True)).reshape(ids.shape)
