"""Multi-layer online testing procedures and their threshold schedules.

Three decision rules share one skeleton: each arriving hypothesis is tested
only in the layers whose group is still undecided ("pending"), it is rejected
iff its p-value clears every pending layer's threshold, and a rejection flips
every pending layer's group to discovered.

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

A step computes first and commits after: the pending layers, their
thresholds and charges and the decision are worked out from the state as it
was before the arrival, and only then are the clock, the arrival counts, the
discovered groups and the per-rule state updated.  A step that raises
therefore leaves the procedure unchanged.

``replay`` drives one stream event by event.  ``lockstep_rejections`` runs
many independent simulated streams side by side as numpy arrays over the
replicate axis, for the default configurations only, and reaches the same
decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DecisionRecord,
    HypothesisEvent,
    LayerConfig,
    LayerOutcome,
    LayerState,
    StreamHalted,
)

_PI_SQUARED = math.pi ** 2

#: the seven shipped method names (single-layer originals and ml variants)
METHODS = ("GAI", "LORD", "LOND", "ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m")

UNTESTED_LITERAL = "literal"
UNTESTED_ACCEPT = "accept"


@dataclass(frozen=True)
class BetaSequence:
    """Positive level sequence whose infinite sum equals ``alpha``.

    ``inverse-square`` is the default family, alpha * 6 / (pi^2 j^2), chosen
    because its sum telescopes to alpha exactly.  ``geometric`` with ratio
    r in (0, 1) gives alpha * (1 - r) * r^(j-1), which also sums to alpha.
    """

    alpha: float
    kind: str = "inverse-square"
    ratio: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.kind == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ValueError(f"geometric ratio must lie in (0, 1), got {self.ratio}")
        if self.kind not in ("inverse-square", "geometric"):
            raise ValueError(f"unknown beta sequence kind: {self.kind!r}")

    def value(self, j: int) -> float:
        if j < 1:
            raise IndexError(f"beta sequence index starts at 1, got {j}")
        if self.kind == "inverse-square":
            return self.alpha * 6.0 / (_PI_SQUARED * j * j)
        return self.alpha * (1.0 - self.ratio) * self.ratio ** (j - 1)


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
    0 <= reward <= min(spend / power_bound + alpha, spend / level + alpha + 1).
    Rules are evaluated against a pristine layer snapshot (initial wealth
    alpha, no discoveries), so state-dependent rules are spot-checked at
    that snapshot only.  Returns the first violation or an ok report.
    """
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
        power_cap = spend / rho + alpha
        level_cap = spend / level + alpha + 1.0
        if reward < -tolerance or reward > min(power_cap, level_cap) + tolerance:
            return PolicyReport(
                ok=False, t=t, reward=reward, power_cap=power_cap, level_cap=level_cap
            )
    return PolicyReport(ok=True)


class OnlineProcedure:
    """Shared skeleton of the sequential multi-layer decision engines.

    One instance owns one stream.  ``step`` consumes the next event and
    returns a DecisionRecord; after an alpha-investing halt further ``step``
    calls raise StreamHalted while ``skip`` records the event as not tested.
    Replaying the same events through a freshly configured instance yields
    identical records.
    """

    def __init__(
        self,
        layers: int,
        alpha: float,
        eta: float = 1.0,
        untested: str = UNTESTED_LITERAL,
    ):
        if layers < 1:
            raise ValueError(f"at least one layer is required, got {layers}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if not (math.isfinite(eta) and eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {eta}")
        if untested not in (UNTESTED_LITERAL, UNTESTED_ACCEPT):
            raise ValueError(f"unknown untested-hypothesis mode: {untested!r}")
        self.layers = layers
        self.alpha = alpha
        self.eta = eta
        self.untested = untested
        self.states = [LayerState() for _ in range(layers)]
        self.t = 0
        self.halted = False

    # -- method-specific hooks -------------------------------------------

    def _thresholds(self, t: int, pending: list[int]):
        """Return (thresholds by pending layer, charges handed to ``_settle``).

        Runs before anything is committed and must not change the state.
        """
        raise NotImplementedError

    def _settle(self, t: int, pending: list[int], rejected: bool, charges) -> None:
        pass

    def _exhausted(self) -> bool:
        return False

    # -- stream driving ---------------------------------------------------

    def step(self, event: HypothesisEvent) -> DecisionRecord:
        # everything that can raise runs before the state is touched, so a
        # failed step leaves the stream as it was before the call
        if self.halted:
            raise StreamHalted("wealth exhausted")
        self._check_event(event)
        t = self.t + 1
        groups = event.group_index
        pending = [
            m
            for m, state in enumerate(self.states)
            if groups[m] not in state.rejected_groups
        ]
        if pending:
            thresholds, charges = self._thresholds(t, pending)
            rejected = all(event.p < thresholds[m] for m in pending)
        else:
            # every layer's group is already decided; nothing to test or charge
            thresholds, charges = {}, None
            rejected = self.untested == UNTESTED_LITERAL
        self.t = t
        for m, state in enumerate(self.states):
            state.observe(groups[m])
        if rejected:
            for m in pending:
                self.states[m].mark_rejected(groups[m])
        self._settle(t, pending, rejected, charges)
        return self._finish(t, event, rejected, thresholds)

    def skip(self, event: HypothesisEvent) -> DecisionRecord:
        """Record an event arriving after a halt: not tested, never rejected."""
        if not self.halted:
            raise RuntimeError("skip() is only valid after the stream has halted")
        self._check_event(event)
        self.t += 1
        for m, state in enumerate(self.states):
            state.observe(event.group_index[m])
        return self._finish(self.t, event, False, {})

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

    # -- internals ---------------------------------------------------------

    def _check_event(self, event: HypothesisEvent) -> None:
        if len(event.group_index) != self.layers:
            raise ValueError(
                f"event carries {len(event.group_index)} group ids, "
                f"expected {self.layers}"
            )

    def _finish(
        self,
        t: int,
        event: HypothesisEvent,
        rejected: bool,
        thresholds: dict[int, float],
    ) -> DecisionRecord:
        halted = self._exhausted()
        outcomes = []
        for m, state in enumerate(self.states):
            tested = m in thresholds
            outcomes.append(
                LayerOutcome(
                    tested=tested,
                    threshold=thresholds.get(m),
                    newly_rejected=tested and rejected,
                    wealth=state.wealth,
                    rejections=state.rejections,
                    effective_tests=state.effective_tests(t),
                    since_last_discovery=state.since_last_discovery,
                )
            )
        self.halted = halted
        return DecisionRecord(
            t=t,
            rejected=rejected,
            group_index=event.group_index,
            layers=tuple(outcomes),
            halted=halted,
        )


class AlphaInvesting(OnlineProcedure):
    """Multi-layer alpha-investing.

    Every layer starts with wealth alpha * eta.  Each pending layer pays the
    spend charge whether or not the hypothesis is rejected and earns the
    reward only on rejection; a layer whose group is already decided is
    neither tested nor charged.  The stream halts once min wealth <= 0 —
    the final charged step may push wealth below zero.
    """

    def __init__(
        self,
        layers: int,
        alpha: float,
        eta: float = 1.0,
        policies: Optional[Sequence[SpendingPolicy]] = None,
        **kwargs,
    ):
        super().__init__(layers, alpha, eta, **kwargs)
        if policies is None:
            policies = (simple_choice(alpha),) * layers
        if len(policies) != layers:
            raise ValueError("one spending policy per layer is required")
        self.policies = tuple(policies)
        for state in self.states:
            state.wealth = alpha * eta

    def _thresholds(self, t: int, pending: list[int]):
        levels, charges = {}, {}
        for m in pending:
            policy, state = self.policies[m], self.states[m]
            level = policy.alpha_level(t, state)
            if not 0.0 < level <= 1.0:
                raise ValueError(f"significance level outside (0, 1]: {level}")
            levels[m] = level
            charges[m] = (policy.spend(t, state), policy.reward(t, state))
        return levels, charges

    def _settle(self, t: int, pending: list[int], rejected: bool, charges) -> None:
        # evaluate the update exactly as written (W + reward - spend) so the
        # halt comparison is reproducible across independent implementations
        for m in pending:
            spend, reward = charges[m]
            state = self.states[m]
            if rejected:
                state.wealth = state.wealth + reward - spend
            else:
                state.wealth = state.wealth - spend

    def _exhausted(self) -> bool:
        return min(state.wealth for state in self.states) <= 0.0


class Lond(OnlineProcedure):
    """Multi-layer LOND, optionally indexed by effective test counts.

    The pending threshold at step t is min(1, beta(idx) * (R + 1)) with R the
    layer's current discovery count; idx is the raw time t, or with
    ``modified=True`` the layer's effective test count, which treats every
    hypothesis landing in an already-rejected group as part of that group's
    single collapsed test.
    """

    def __init__(
        self,
        layers: int,
        alpha: float,
        eta: float = 1.0,
        betas: Optional[Sequence[BetaSequence]] = None,
        modified: bool = False,
        **kwargs,
    ):
        super().__init__(layers, alpha, eta, **kwargs)
        self.betas = _layer_betas(betas, layers, alpha)
        self.modified = modified

    def _thresholds(self, t: int, pending: list[int]):
        out = {}
        for m in pending:
            state = self.states[m]
            index = state.effective_tests(t) if self.modified else t
            out[m] = min(1.0, self.betas[m].value(index) * (state.rejections + 1))
        return out, None


class Lord(OnlineProcedure):
    """Multi-layer LORD: thresholds reset on each discovery.

    Each layer counts tests since its last discovery (starting at 1) and uses
    the level sequence at that index.  On rejection every pending layer's
    counter resets to 1; otherwise every pending layer's counter advances,
    including layers the failing comparison short-circuited past.
    """

    def __init__(
        self,
        layers: int,
        alpha: float,
        eta: float = 1.0,
        betas: Optional[Sequence[BetaSequence]] = None,
        **kwargs,
    ):
        super().__init__(layers, alpha, eta, **kwargs)
        self.betas = _layer_betas(betas, layers, alpha)
        for state in self.states:
            state.since_last_discovery = 1

    def _thresholds(self, t: int, pending: list[int]):
        return {
            m: self.betas[m].value(self.states[m].since_last_discovery)
            for m in pending
        }, None

    def _settle(self, t: int, pending: list[int], rejected: bool, charges) -> None:
        if rejected:
            for m in pending:
                self.states[m].since_last_discovery = 1
        else:
            for m in pending:
                self.states[m].since_last_discovery += 1


def _layer_betas(
    betas: Optional[Sequence[BetaSequence]], layers: int, alpha: float
) -> tuple[BetaSequence, ...]:
    if betas is None:
        return (BetaSequence(alpha),) * layers
    if len(betas) != layers:
        raise ValueError("one beta sequence per layer is required")
    return tuple(betas)


def make_procedure(
    method: str,
    layers: int,
    alpha: float,
    eta: float = 1.0,
    *,
    untested: str = UNTESTED_LITERAL,
    policy: Optional[SpendingPolicy] = None,
    layer_configs: Optional[Sequence[LayerConfig]] = None,
) -> OnlineProcedure:
    """Instantiate a procedure by method name.

    The ``ml-`` prefix only documents intent — the engine is the same; the
    multi-layer character comes from the layer count and the group ids the
    events carry.  ``layer_configs`` optionally customizes individual layers
    (level sequence, spending policy); unset entries fall back to the shared
    defaults.
    """
    name = method[3:] if method.startswith("ml-") else method
    shared_policy = policy if policy is not None else simple_choice(alpha)
    default_beta = BetaSequence(alpha)
    if layer_configs is None:
        layer_configs = (LayerConfig(),) * layers
    elif len(layer_configs) != layers:
        raise ValueError("one layer config per layer is required")
    betas = tuple(
        config.beta_sequence if config.beta_sequence is not None else default_beta
        for config in layer_configs
    )
    policies = tuple(
        config.spending_policy if config.spending_policy is not None else shared_policy
        for config in layer_configs
    )
    if name == "GAI":
        return AlphaInvesting(layers, alpha, eta, policies=policies, untested=untested)
    if name == "LOND":
        return Lond(layers, alpha, eta, betas=betas, modified=False, untested=untested)
    if name == "LOND_m":
        return Lond(layers, alpha, eta, betas=betas, modified=True, untested=untested)
    if name == "LORD":
        return Lord(layers, alpha, eta, betas=betas, untested=untested)
    raise ValueError(f"unknown method name: {method!r}")


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

    Row r of ``pvalues`` is one stream of N p-values.  Without ``groups`` the
    rows run as ``make_procedure(method, 1, alpha, eta)`` on events with
    group_index (t,); with ``groups`` of shape (R, N) they run as
    ``make_procedure(method, 2, alpha, eta)`` on events with group_index
    (t, groups[r, t - 1]).  Only the defaults are covered: the simple-choice
    spending policy and the inverse-square level sequence.

    The individual layer has singleton groups, so it is always pending and
    its effective-test count is t; only the group layer keeps per-group
    arrays, of R x (largest id + 1) cells, or of R x N cells once the
    largest id is N or more.  Every threshold and wealth update is the step
    engine's float64 arithmetic, so the mask equals
    ``[r.rejected for r in replay(...)]`` row for row.  After an
    alpha-investing halt a row is neither tested nor rejected.
    """
    rule = method[3:] if method.startswith("ml-") else method
    if rule not in ("GAI", "LOND", "LOND_m", "LORD"):
        raise ValueError(f"unknown method name: {method!r}")
    p_by_step = np.ascontiguousarray(np.asarray(pvalues, dtype=float).T)
    steps, reps = p_by_step.shape
    rejected = np.zeros((steps, reps), dtype=bool)
    # levels[j] is the j-th element of the level sequence; no index (t, an
    # effective-test count or a LORD gap) exceeds the number of steps
    sequence = BetaSequence(alpha)
    levels = np.array([0.0] + [sequence.value(j) for j in range(1, steps + 1)])
    rejections = np.zeros(reps, dtype=np.int64)
    gap = np.ones(reps, dtype=np.int64)
    grouped = groups is not None
    if grouped:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (reps, steps):
            raise ValueError(
                f"groups has shape {groups.shape}, expected {(reps, steps)}"
            )
        if reps and groups.min() < 0:
            raise ValueError("group ids must be non-negative")
        width = int(groups.max()) + 1 if reps else 1
        if width > steps:
            # decisions only compare ids within a row: number each row's
            # distinct ids densely so the tables stay R x N
            rows = np.repeat(np.arange(reps), steps)
            pairs = np.column_stack([rows, groups.ravel()])
            _, pair = np.unique(pairs, axis=0, return_inverse=True)
            pair = pair.reshape(reps, steps)
            groups, width = pair - pair.min(axis=1, keepdims=True), steps
        # flat (replicate, group) cell of each arrival, one row per step
        cells = np.ascontiguousarray((groups + width * np.arange(reps)[:, None]).T)
        group_rejected = np.zeros(reps * width, dtype=bool)
        seen = np.zeros(reps * width, dtype=np.int64)
        seen_in_rejected = np.zeros(reps, dtype=np.int64)
        group_rejections = np.zeros(reps, dtype=np.int64)
        group_gap = np.ones(reps, dtype=np.int64)
    if rule == "GAI":
        # the simple-choice rules are constant, so one evaluation serves every step
        policy = simple_choice(alpha)
        snapshot = LayerState()
        level = policy.alpha_level(1, snapshot)
        spend = policy.spend(1, snapshot)
        reward = policy.reward(1, snapshot)
        wealth = np.full(reps, alpha * eta)
        group_wealth = np.full(reps, alpha * eta)
        halted = np.zeros(reps, dtype=bool)

    for i in range(steps):
        t = i + 1
        p = p_by_step[i]
        if grouped:
            cell = cells[i]
            pending = ~group_rejected[cell]
            seen[cell] += 1
            seen_in_rejected += ~pending
        if rule == "GAI":
            threshold = group_threshold = level
        elif rule == "LORD":
            threshold = levels[gap]
            if grouped:
                group_threshold = levels[group_gap]
        else:
            threshold = np.minimum(1.0, levels[t] * (rejections + 1))
            if grouped:
                index = t - seen_in_rejected + group_rejections if rule == "LOND_m" else t
                group_threshold = np.minimum(1.0, levels[index] * (group_rejections + 1))
        hit = p < threshold
        if grouped:
            hit &= (p < group_threshold) | ~pending
        if rule == "GAI":
            hit &= ~halted
        rejected[i] = hit
        rejections += hit
        if grouped:
            newly = hit & pending
            group_rejected[cell[newly]] = True
            group_rejections += newly
            # the group's arrivals so far collapse into its one test
            seen_in_rejected += np.where(newly, seen[cell], 0)
        if rule == "LORD":
            gap = np.where(hit, 1, gap + 1)
            if grouped:
                group_gap = np.where(newly, 1, group_gap + pending)
        elif rule == "GAI":
            live = ~halted
            wealth = np.where(
                hit, wealth + reward - spend, np.where(live, wealth - spend, wealth)
            )
            if grouped:
                group_wealth = np.where(
                    newly,
                    group_wealth + reward - spend,
                    np.where(live & pending, group_wealth - spend, group_wealth),
                )
                halted |= np.minimum(wealth, group_wealth) <= 0.0
            else:
                halted |= wealth <= 0.0
            if halted.all():
                break
    return rejected.T
