"""Core domain types for streaming multi-layer hypothesis testing.

A stream presents one hypothesis per time step together with the id of the
group it belongs to in each of M partition layers.  Individual reject/accept
decisions induce group-level decisions: a group counts as discovered the
first time any hypothesis inside it is rejected, and the flag never reverts.
The individual level itself is just a layer whose groups are singletons
(group id equal to the arrival index), so every layer is handled uniformly.

Time is implicit in arrival order; events carry a ``t`` field for audit
output only.  An event carries no ground-truth label: only a simulation
knows which hypotheses are true, and the tallies take those labels beside
the decision records.  One stream is one strictly sequential state
machine — distinct streams are independent and safe to process in parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


def require_integers(**values) -> None:
    """Refuse a size, count or seed that is not an integer; numpy integers
    pass, and a bool, which ``operator.index`` would read as 0 or 1, does not."""
    for name, value in values.items():
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value}") from None


def require_alpha(alpha: float) -> None:
    """Refuse a target level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def require_eta(eta: float) -> None:
    """Refuse a discovery-count offset that is not positive and finite."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta}")


class StreamHalted(RuntimeError):
    """A step was requested on a stream whose alpha-wealth is exhausted."""


@dataclass(frozen=True, init=False)
class HypothesisEvent:
    """One element of the hypothesis stream.

    ``group_index[m]`` is the group of this hypothesis in layer m.
    """

    t: int
    p: float
    group_index: tuple[int, ...]

    def __init__(self, t: int, p: float, group_index: tuple[int, ...]) -> None:
        # the fields go straight into the instance dict, not through the
        # three object.__setattr__ calls of a frozen dataclass __init__;
        # repr, ==, hash, pickle and replace are unchanged
        if t < 1:
            raise ValueError(f"time index must be >= 1, got {t}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {p}")
        if group_index and min(group_index) < 0:
            raise ValueError("group ids must be non-negative")
        fields = self.__dict__
        fields["t"] = t
        fields["p"] = p
        fields["group_index"] = group_index


@dataclass
class LayerState:
    """Mutable per-layer bookkeeping for one stream.

    ``seen_in_rejected`` counts hypotheses seen so far whose group is
    currently rejected; together with ``rejections`` it supports the O(1)
    effective-test count (each rejected group collapses to one test).
    ``seen_per_group`` counts arrivals in undecided groups only: a rejected
    group's count moves into ``seen_in_rejected`` and its entry is dropped.
    ``wealth`` is set on alpha-investing layers only and
    ``since_last_discovery``, the LORD counter starting at 1, on LORD layers
    only; both stay None elsewhere.
    """

    wealth: Optional[float] = None
    rejections: int = 0
    since_last_discovery: Optional[int] = None
    rejected_groups: set[int] = field(default_factory=set)
    seen_per_group: dict[int, int] = field(default_factory=dict)
    seen_in_rejected: int = 0

    def observe(self, group: int) -> None:
        """Record an arrival in ``group``."""
        if group in self.rejected_groups:
            self.seen_in_rejected += 1
        else:
            self.seen_per_group[group] = self.seen_per_group.get(group, 0) + 1

    def mark_rejected(self, group: int) -> None:
        """Flip the group decision to rejected (irrevocable)."""
        self.rejected_groups.add(group)
        self.rejections += 1
        # all hypotheses already seen in this group collapse into one test
        self.seen_in_rejected += self.seen_per_group.pop(group, 0)

    def effective_tests(self, t: int) -> int:
        """Number of tests actually performed in this layer by time t."""
        return t - self.seen_in_rejected + self.rejections


class LayerOutcome(NamedTuple):
    """Post-step snapshot of one layer inside a DecisionRecord.

    A NamedTuple because one is built per layer on every step, at about a
    third of a frozen dataclass's cost; its fields read by name.
    """

    tested: bool
    threshold: Optional[float]
    newly_rejected: bool
    wealth: Optional[float]
    rejections: int
    effective_tests: int
    since_last_discovery: Optional[int]


@dataclass(frozen=True, init=False)
class DecisionRecord:
    """The full outcome of one time step."""

    t: int
    rejected: bool
    group_index: tuple[int, ...]
    layers: tuple[LayerOutcome, ...]
    halted: bool

    def __init__(
        self,
        t: int,
        rejected: bool,
        group_index: tuple[int, ...],
        layers: tuple[LayerOutcome, ...],
        halted: bool,
    ) -> None:
        # the fields go straight into the instance dict, as in HypothesisEvent:
        # one record is built per step
        fields = self.__dict__
        fields["t"] = t
        fields["rejected"] = rejected
        fields["group_index"] = group_index
        fields["layers"] = layers
        fields["halted"] = halted

    def tested_layers(self) -> list[int]:
        return [m for m, out in enumerate(self.layers) if out.tested]
