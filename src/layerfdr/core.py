"""Core domain types for streaming multi-layer hypothesis testing.

A stream presents one hypothesis per time step together with the id of the
group it belongs to in each of M partition layers.  Individual reject/accept
decisions induce group-level decisions: a group counts as discovered the
first time any hypothesis inside it is rejected, and the flag never reverts.
The individual level itself is just a layer whose groups are singletons
(group id equal to the arrival index), so every layer is handled uniformly.

Time is implicit in arrival order; events carry a ``t`` field for audit
output only.  One stream is one strictly sequential state machine — distinct
streams are independent and safe to process in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .procedures import BetaSequence, SpendingPolicy


class StreamHalted(RuntimeError):
    """A step was requested on a stream whose alpha-wealth is exhausted."""


@dataclass(frozen=True)
class HypothesisEvent:
    """One element of the hypothesis stream.

    ``group_index[m]`` is the group of this hypothesis in layer m.  ``truth``
    is the 0/1 ground-truth label, present only in simulation or replay.
    """

    t: int
    p: float
    group_index: tuple[int, ...]
    truth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"time index must be >= 1, got {self.t}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {self.p}")
        if any(g < 0 for g in self.group_index):
            raise ValueError("group ids must be non-negative")
        if self.truth not in (None, 0, 1):
            raise ValueError(f"truth label must be 0 or 1, got {self.truth}")


@dataclass(frozen=True)
class LayerConfig:
    """Declarative configuration for one layer of a procedure.

    ``beta_sequence`` drives threshold schedules (LOND/LORD layers) and
    ``spending_policy`` drives wealth dynamics (alpha-investing layers);
    whichever the chosen method ignores may be left unset.  ``statistic``
    optionally maps the incoming event to a layer-specific p-value; by
    default every layer tests the event's own p.
    """

    layer_id: int
    beta_sequence: Optional["BetaSequence"] = None
    spending_policy: Optional["SpendingPolicy"] = None
    statistic: Optional[Callable[[HypothesisEvent], float]] = None


@dataclass
class LayerState:
    """Mutable per-layer bookkeeping for one stream.

    ``seen_in_rejected`` counts hypotheses seen so far whose group is
    currently rejected; together with ``rejections`` it supports the O(1)
    effective-test count (each rejected group collapses to one test).
    ``since_last_discovery`` is the LORD counter and starts at 1.
    """

    wealth: Optional[float] = None
    rejections: int = 0
    since_last_discovery: int = 1
    last_discovery_time: Optional[int] = None
    rejected_groups: set[int] = field(default_factory=set)
    seen_per_group: dict[int, int] = field(default_factory=dict)
    seen_in_rejected: int = 0

    def group_decision(self, group: int) -> int:
        return 1 if group in self.rejected_groups else 0

    def observe(self, group: int) -> bool:
        """Record an arrival in ``group``; return True if the layer is pending."""
        self.seen_per_group[group] = self.seen_per_group.get(group, 0) + 1
        if group in self.rejected_groups:
            self.seen_in_rejected += 1
            return False
        return True

    def unobserve(self, group: int) -> None:
        """Undo the latest ``observe(group)``, for a step that failed."""
        count = self.seen_per_group[group] - 1
        if count:
            self.seen_per_group[group] = count
        else:
            del self.seen_per_group[group]
        if group in self.rejected_groups:
            self.seen_in_rejected -= 1

    def mark_rejected(self, group: int, t: int) -> None:
        """Flip the group decision to rejected (irrevocable)."""
        self.rejected_groups.add(group)
        self.rejections += 1
        # all hypotheses already seen in this group collapse into one test
        self.seen_in_rejected += self.seen_per_group.get(group, 0)
        self.last_discovery_time = t

    def effective_tests(self, t: int) -> int:
        """Number of tests actually performed in this layer by time t."""
        return t - self.seen_in_rejected + self.rejections


@dataclass(frozen=True)
class LayerOutcome:
    """Post-step snapshot of one layer inside a DecisionRecord."""

    tested: bool
    threshold: Optional[float]
    newly_rejected: bool
    wealth: Optional[float]
    rejections: int
    effective_tests: int
    since_last_discovery: Optional[int]


@dataclass(frozen=True)
class DecisionRecord:
    """The full outcome of one time step."""

    t: int
    rejected: bool
    group_index: tuple[int, ...]
    layers: tuple[LayerOutcome, ...]
    halted: bool

    def tested_layers(self) -> list[int]:
        return [m for m, out in enumerate(self.layers) if out.tested]


class TruthState:
    """Monotone group-level truth per layer, accumulated from labeled events.

    A group is true as soon as one true hypothesis inside it has been seen;
    the flag never reverts.
    """

    def __init__(self, layers: int):
        if layers < 1:
            raise ValueError("at least one layer is required")
        self.true_groups: list[set[int]] = [set() for _ in range(layers)]
        self.individual_truths: list[int] = []

    @property
    def layers(self) -> int:
        return len(self.true_groups)

    def group_truth(self, layer: int, group: int) -> int:
        return 1 if group in self.true_groups[layer] else 0


def update_group_truth(state: TruthState, event: HypothesisEvent) -> TruthState:
    """Fold one labeled event into the group-level truth state (in place)."""
    if event.truth is None:
        raise ValueError("truth required")
    if len(event.group_index) != state.layers:
        raise ValueError(
            f"event carries {len(event.group_index)} group ids, "
            f"expected {state.layers}"
        )
    state.individual_truths.append(event.truth)
    if event.truth == 1:
        for m, group in enumerate(event.group_index):
            state.true_groups[m].add(group)
    return state


def group_selection_sets(
    decisions: Sequence[DecisionRecord], layers: int
) -> list[set[int]]:
    """Per-layer sets of groups containing at least one rejected hypothesis."""
    selected: list[set[int]] = [set() for _ in range(layers)]
    for record in decisions:
        if len(record.group_index) < layers:
            raise ValueError(
                f"record at t={record.t} carries {len(record.group_index)} "
                f"group ids, expected at least {layers}"
            )
        if record.rejected:
            for m in range(layers):
                selected[m].add(record.group_index[m])
    return selected


def truth_state_from_events(events: Iterable[HypothesisEvent], layers: int) -> TruthState:
    """Build the end-of-stream truth state from labeled events."""
    state = TruthState(layers)
    for event in events:
        update_group_truth(state, event)
    return state
