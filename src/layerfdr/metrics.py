"""Per-layer discovery accounting and replicate aggregation.

A discovery is a group containing at least one rejected hypothesis; it is
false while the group contains no true hypothesis seen so far.  A run's
tally is one row (V, TD, T), and ``aggregate`` alone checks rows and turns
them into estimates: FDR averages the FDP V / max(V + TD, 1) over
replicates, mFDR is mean V / (mean (V + TD) + eta), and power
averages TD / max(T, 1).

Ground truth comes from the simulation as 0/1 labels passed beside the
decisions; events do not carry it.  ``prefix_tallies`` counts one layer of
one stream after every prefix, in numpy, for the oracle's along-the-stream
checks; it is not among the package's top-level names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import require_eta


class LayerTally(NamedTuple):
    """(V, TD, T) of one layer of one run; the fields name every tally array's columns."""

    false_discoveries: int
    true_discoveries: int
    true_groups: int


def check_one_label_per_arrival(arrivals: int, labels: int, decisions: int) -> None:
    """Raise ValueError unless there is one truth label and one decision per arrival."""
    if not arrivals == labels == decisions:
        raise ValueError(
            f"one truth label and decision per arrival is required, got {arrivals} "
            f"arrivals, {labels} labels and {decisions} decisions"
        )


def check_truth_labels(truths: np.ndarray) -> None:
    """Raise ValueError unless every truth label is 0 or 1."""
    labelled = (truths == 0) | (truths == 1)
    if not labelled.all():
        raise ValueError(f"truth label must be 0 or 1, got {truths[~labelled].tolist()[0]!r}")


def prefix_tallies(ids, truths, rejected) -> np.ndarray:
    """Tallies of one layer of one stream after every prefix, an (N, 3) array.

    ``ids`` holds each arrival's group in the layer, ``truths`` its 0/1
    label and ``rejected`` its decision.  A group is discovered at its first
    rejected arrival and holds a true hypothesis from its first true one, so
    R, T and TD are cumulative histograms of those two times and of the later
    of the two: a group discovered while null becomes a true discovery once a
    true member arrives.  Row t counts the selected and true groups of the
    first t + 1 arrivals.
    """
    ids, truths, rejected = np.asarray(ids), np.asarray(truths), np.asarray(rejected, dtype=bool)
    check_one_label_per_arrival(len(ids), len(truths), len(rejected))
    check_truth_labels(truths)
    n = len(ids)
    # stable sorts, so return_index gives each group's first position in the mask
    rejected_at = np.flatnonzero(rejected)
    true_at = np.flatnonzero(truths == 1)
    rejected_groups, first_rejected = np.unique(ids[rejected_at], return_index=True)
    true_groups, first_true = np.unique(ids[true_at], return_index=True)
    first_rejected, first_true = rejected_at[first_rejected], true_at[first_true]
    _, in_rejected, in_true = np.intersect1d(
        rejected_groups, true_groups, assume_unique=True, return_indices=True
    )
    true_from = np.maximum(first_rejected[in_rejected], first_true[in_true])

    def by_prefix(times: np.ndarray) -> np.ndarray:
        return np.cumsum(np.bincount(times, minlength=n))

    true_hits = by_prefix(true_from)
    return np.column_stack(
        [by_prefix(first_rejected) - true_hits, true_hits, by_prefix(first_true)]
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


@lru_cache(maxsize=1)
def _bootstrap_counts(n: int) -> np.ndarray:
    """How often each replicate appears in each of the seeded resamples, a
    (resamples, n) matrix shared read-only: every cell of a sweep has the same
    replicate count, so it is drawn once and no other is kept."""
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
    tallies: np.ndarray | Sequence[LayerTally],
    eta: float,
    *,
    method: str = "",
    beta: float = 0.0,
    layer: str = "",
) -> AggregateResult:
    """Aggregate replicate tallies sharing one (method, beta, layer) cell.

    ``tallies`` is an (R, 3) integer array or a list of ``LayerTally``.  FDR
    and power are means of per-replicate ratios with plain standard errors;
    mFDR is a ratio of means, so its SE comes from a seeded nonparametric
    bootstrap over replicates (ratio-of-means has no clean closed form) with
    ``BOOTSTRAP_RESAMPLES`` resamples drawn from ``BOOTSTRAP_SEED``.

    While V + TD stays below 2**53 every count is exact as a float and float
    division rounds correctly, so each FDP and power equals the per-row
    Python ratio bit for bit.
    """
    counts = np.asarray(tallies)
    if len(counts) == 0:
        raise ValueError("at least one replicate is required")
    if counts.ndim != 2 or counts.shape[1] != len(LayerTally._fields):
        raise ValueError(f"tallies must be rows of (V, TD, T) counts, got shape {counts.shape}")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"tally counts must be integers, got {counts.dtype}")
    if (counts < 0).any():
        raise ValueError("tally counts must be non-negative")
    over = counts[:, 1] > counts[:, 2]
    if over.any():
        _, true_hits, true_groups = counts[over][0].tolist()
        raise ValueError(
            f"true discoveries ({true_hits}) cannot exceed true groups seen ({true_groups})"
        )
    require_eta(eta)
    v, true_hits, true_groups = counts.astype(float).T
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
        replicates=len(counts),
    )
