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

``replay`` drives one stream event by event.  The module is pure Python, so
the ``stream`` and ``validate`` commands built on it run without numpy; the
sweep's array kernel, which reaches the same decisions for many streams at
once, is ``harness.lockstep_rejections``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
