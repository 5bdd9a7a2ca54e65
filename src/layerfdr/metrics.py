"""Per-layer discovery accounting and replicate aggregation.

A discovery is a group containing at least one rejected hypothesis; it is
false while the group contains no true hypothesis seen so far.  FDP is the
realized false fraction V / max(R, 1) of a single run; FDR averages FDP over
replicates, while mFDR is the ratio of mean false discoveries to mean
discoveries plus eta.  Group-level power is reported as the mean of
per-replicate ratios TD / max(T, 1).

Ground truth comes from the simulation as 0/1 labels passed beside the
decisions; events do not carry it.  ``tally_from_sets`` and
``TallyTracker`` count one stream from Python sets, at the end or record by
record.  They are the references the tests hold the harness's stacked tally
route to, and are not among the package's top-level names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DecisionRecord


@dataclass(frozen=True)
class LayerTally:
    """End-of-stream discovery counts for one layer of one run."""

    false_discoveries: int
    true_discoveries: int
    true_groups: int

    def __post_init__(self) -> None:
        if min(self.false_discoveries, self.true_discoveries, self.true_groups) < 0:
            raise ValueError("tally counts must be non-negative")
        if self.true_discoveries > self.true_groups:
            raise ValueError(
                f"true discoveries ({self.true_discoveries}) cannot exceed "
                f"true groups seen ({self.true_groups})"
            )

    @property
    def discoveries(self) -> int:
        return self.false_discoveries + self.true_discoveries

    @property
    def fdp(self) -> float:
        return self.false_discoveries / max(self.discoveries, 1)

    @property
    def power(self) -> float:
        return self.true_discoveries / max(self.true_groups, 1)


def tally_from_sets(selected: set[int], true_groups: set[int]) -> LayerTally:
    """Tally a selection set against the set of true groups seen."""
    hits = len(selected & true_groups)
    return LayerTally(
        false_discoveries=len(selected) - hits,
        true_discoveries=hits,
        true_groups=len(true_groups),
    )


class TallyTracker:
    """Incrementally maintained tallies across a stream.

    Feeding each decision record with its hypothesis's 0/1 ground-truth
    label keeps per-layer counts identical to ``tally_from_sets`` over the
    selected and true groups of every prefix.  A group discovered while null
    is reclassified as true the moment a true hypothesis inside it arrives.
    """

    def __init__(self, layers: int):
        if layers < 1:
            raise ValueError("at least one layer is required")
        self._selected: list[set[int]] = [set() for _ in range(layers)]
        self._true: list[set[int]] = [set() for _ in range(layers)]
        self._false_count = [0] * layers
        self.layers = layers

    def update(self, record: DecisionRecord, truth: int) -> None:
        if truth not in (0, 1):
            raise ValueError(f"truth label must be 0 or 1, got {truth!r}")
        for m in range(self.layers):
            group = record.group_index[m]
            if truth == 1 and group not in self._true[m]:
                self._true[m].add(group)
                if group in self._selected[m]:
                    self._false_count[m] -= 1
            if record.rejected and group not in self._selected[m]:
                self._selected[m].add(group)
                if group not in self._true[m]:
                    self._false_count[m] += 1

    def tally(self, layer: int) -> LayerTally:
        selected = self._selected[layer]
        return LayerTally(
            false_discoveries=self._false_count[layer],
            true_discoveries=len(selected) - self._false_count[layer],
            true_groups=len(self._true[layer]),
        )


@dataclass(frozen=True)
class AggregateResult:
    """Replicate-averaged error and power estimates for one (method, beta, layer)."""

    method: str
    beta: float
    layer: str
    fdr: float
    fdr_se: float
    mfdr: float
    mfdr_se: float
    power: float
    power_se: float
    replicates: int


def _mean_se(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


#: resamples and seed of the mFDR bootstrap
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_SEED = 0


@lru_cache(maxsize=4)
def _bootstrap_counts(n: int) -> np.ndarray:
    """How often each replicate appears in each of the seeded resamples, a
    (resamples, n) matrix shared read-only: every cell of a sweep has the same
    replicate count, so it is drawn once."""
    idx = np.random.default_rng(BOOTSTRAP_SEED).integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    idx += n * np.arange(BOOTSTRAP_RESAMPLES)[:, None]
    counts = np.bincount(idx.ravel(), minlength=idx.size).reshape(idx.shape).astype(float)
    counts.flags.writeable = False
    return counts


def _bootstrap_ratio_se(v: np.ndarray, r: np.ndarray, eta: float) -> float:
    """Nonparametric bootstrap SE of mean(V) / (mean(R) + eta) over replicates.

    Each resample's sums are one product with its count matrix; tallies are
    integers, so every partial sum is exact and the means equal the gathered
    ``v[idx].mean(axis=1)`` bit for bit.
    """
    n = len(v)
    if n < 2:
        return 0.0
    sums = _bootstrap_counts(n) @ np.column_stack([v, r])
    ratios = (sums[:, 0] / n) / (sums[:, 1] / n + eta)
    return float(ratios.std(ddof=1))


def aggregate(
    tallies: Sequence[LayerTally],
    eta: float,
    *,
    method: str = "",
    beta: float = 0.0,
    layer: str = "",
) -> AggregateResult:
    """Aggregate replicate tallies sharing one (method, beta, layer) cell.

    FDR and power are means of per-replicate ratios with plain standard
    errors; mFDR is a ratio of means, so its SE comes from a seeded
    nonparametric bootstrap over replicates (ratio-of-means has no clean
    closed form) with ``BOOTSTRAP_RESAMPLES`` resamples drawn from
    ``BOOTSTRAP_SEED``.

    The tallies are read once into an (R, 3) array of counts and every ratio
    is taken from it in numpy.  While V + TD stays below 2**53 every count is
    exact as a float and float division rounds correctly, so each FDP and
    power equals ``LayerTally.fdp`` and ``.power`` bit for bit.
    """
    if not tallies:
        raise ValueError("at least one replicate is required")
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    counts = np.array(
        [(t.false_discoveries, t.true_discoveries, t.true_groups) for t in tallies], dtype=float
    )
    v, true_hits, true_groups = counts.T
    r = v + true_hits
    fdps = v / np.maximum(r, 1.0)
    powers = true_hits / np.maximum(true_groups, 1.0)
    return AggregateResult(
        method=method,
        beta=beta,
        layer=layer,
        fdr=float(fdps.mean()),
        fdr_se=_mean_se(fdps),
        mfdr=float(v.mean() / (r.mean() + eta)),
        mfdr_se=_bootstrap_ratio_se(v, r, eta),
        power=float(powers.mean()),
        power_se=_mean_se(powers),
        replicates=len(tallies),
    )
