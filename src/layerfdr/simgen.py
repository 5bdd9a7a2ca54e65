"""Seeded generators for synthetic grouped hypothesis streams.

Every scenario is a pure function of its spec (including the seed): the same
spec always produces the same (group ids, truth labels, p-values) triple.
Null hypotheses draw z from the standard normal, so their two-sided p-values
are exactly Uniform(0, 1); true hypotheses draw z from a unit-variance normal
whose mean is set by the strength profile.

``make_streams`` realizes one scenario under many seeds at once, as arrays
stacked (R, N); ``make_stream`` is its single-seed case.  Work that draws no
randomness (balanced structures, fixed-pattern truths, group layouts) is done
once per call, and the per-arrival loops of the unbalanced structure and the
markov pattern are replaced by block draws that reproduce numpy's PCG64
stream bit for bit, leaving each generator in the state the loops would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfc as _erfc

STRUCTURES = ("block", "interleaved", "unbalanced")
PATTERNS = ("fixed", "random", "markov")
STRENGTHS = ("constant", "increasing", "decreasing")

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete generative description of one simulated stream.

    Args:
        structure: group arrival order — "block" (group by group),
            "interleaved" (cycling 1..G), or "unbalanced" (Markov chain with
            stay probability 1 - p1 and uniform jumps).
        pattern: which hypotheses are true — "fixed" (first s% of groups,
            first k% of features inside each), "random" (uniformly sampled
            groups and features of the same sizes), or "markov" (two-state
            hidden chain emitting labels, ignoring group structure).
        strength: mean profile of true z-statistics — "constant" (1.5 * beta),
            "increasing" (beta * (1 + t / total)) or "decreasing"
            (beta * (2 - t / total)), t being the running count of true
            signals.
        G: number of groups in the group layer.
        n: hypotheses per group (balanced structures).
        s: percent of groups that are true.
        k: percent of true features within each true group.
        beta: effect-size parameter.
        alpha: target FDR level carried along for the procedures.
        eta: discovery-count offset carried along for mFDR and wealth.
        seed: 64-bit generator seed.
        p1: jump probability of the unbalanced chain.
        N: total stream length; defaults to n * G and must equal it for
            balanced structures.
    """

    structure: str = "block"
    pattern: str = "fixed"
    strength: str = "constant"
    G: int = 20
    n: int = 10
    s: float = 20.0
    k: float = 100.0
    beta: float = 2.0
    alpha: float = 0.1
    eta: float = 1.0
    seed: int = 0
    p1: float = 0.5
    N: Optional[int] = None

    def __post_init__(self) -> None:
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure: {self.structure!r}")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern: {self.pattern!r}")
        if self.strength not in STRENGTHS:
            raise ValueError(f"unknown strength: {self.strength!r}")
        if self.G < 1 or self.n < 1:
            raise ValueError("G and n must be positive")
        if not 0.0 <= self.s <= 100.0 or not 0.0 <= self.k <= 100.0:
            raise ValueError("s and k are percentages in [0, 100]")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1}")
        if self.N is not None:
            if self.N < 1:
                raise ValueError("N must be positive")
            if self.structure != "unbalanced" and self.N != self.n * self.G:
                raise ValueError(
                    f"balanced structures require N = n * G, "
                    f"got N={self.N} with n={self.n}, G={self.G}"
                )

    @property
    def total(self) -> int:
        return self.N if self.N is not None else self.n * self.G


@dataclass(frozen=True)
class StreamData:
    """Realized arrays of a scenario: group ids, truth labels, p-values.

    Each array is (N,) for one stream, or (R, N) for R streams stacked by
    ``make_streams``.
    """

    groups: np.ndarray
    truths: np.ndarray
    pvalues: np.ndarray

    def row(self, r: int) -> "StreamData":
        """Stream ``r`` of a stacked (R, N) batch."""
        return StreamData(groups=self.groups[r], truths=self.truths[r], pvalues=self.pvalues[r])


def _percent_count(percent: float, total: int) -> int:
    # round up so any positive percentage yields at least one pick;
    # snap near-integers first to keep float noise out of the ceiling
    return min(total, math.ceil(round(percent * total / 100.0, 9)))


def gen_structure(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Generate the group id (1-based) of each arrival in the group layer.

    block repeats each group id n times in order; interleaved cycles 1..G
    n times; unbalanced walks a Markov chain over {1..G} starting at group 1
    with stay probability 1 - p1 and a uniform jump otherwise, exactly as::

        current = 1
        for i in range(N):
            if i > 0 and rng.random() < p1:
                current = (current - 1 + int(rng.integers(1, G))) % G + 1
            groups[i] = current

    The unbalanced walk replays numpy's PCG64 stream from raw words, so it
    needs a PCG64 generator and raises TypeError for any other.
    """
    return _structures(spec, [rng])[0]


def gen_truth(
    spec: ScenarioSpec, structure: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Generate 0/1 truth labels for each arrival.

    The fixed pattern is deterministic given the structure and consumes no
    randomness.  The markov pattern assigns labels from a hidden two-state
    chain (stationary: independent fair coin; eruption: sticky labels with
    persistence 0.9) and ignores the group structure entirely; each arrival
    draws two uniforms, one for its label and one for switching the chain.
    """
    return _truths(spec, np.asarray(structure)[None, :], [rng])[0]


def _structures(spec: ScenarioSpec, rngs: list) -> np.ndarray:
    """Group ids of every generator's stream, stacked (R, N)."""
    if spec.structure == "block":
        return np.tile(np.repeat(np.arange(1, spec.G + 1), spec.n), (len(rngs), 1))
    if spec.structure == "interleaved":
        return np.tile(np.arange(1, spec.G + 1), (len(rngs), spec.n))
    if spec.G < 2:
        raise ValueError("unbalanced structure requires at least two groups")
    return _unbalanced_structures(spec, rngs)


# The unbalanced walk reads, for each arrival after the first, one double
# (the jump test, from one 64-bit word) and, on a jump, one bounded integer.
# numpy draws ``integers(1, G)`` by Lemire's method on 32-bit half-words
# (low half first, the high half kept in a buffer for the next draw) when
# G - 1 <= 2**32, and on whole words otherwise; G = 2 draws nothing.  Between
# two words the walk is in one of four states: the half-word buffer is empty,
# holds a half-word Lemire accepts, holds one it rejects, or a jump is still
# drawing and the next word feeds it.  Each word maps state to state by its
# own bits, so the states of a whole block of words follow from a prefix
# scan over these maps, each packed as one byte (two bits per state).
_EMPTY, _HELD_OK, _HELD_BAD, _DRAWING = range(4)
_M32 = np.uint64(0xFFFFFFFF)


def _pack(next_states) -> int:
    return sum(state << (2 * s) for s, state in enumerate(next_states))


_NO_DRAW_MAP = _pack((_EMPTY, _HELD_OK, _HELD_BAD, _DRAWING))
# half-word draws, by word class jump + 2 * low_ok + 4 * high_ok
_HALF_MAPS = np.array(
    [
        _pack(
            (
                _DRAWING if c & 1 else _EMPTY,
                _EMPTY if c & 1 else _HELD_OK,
                _DRAWING if c & 1 else _HELD_BAD,
                (_HELD_OK if c & 4 else _HELD_BAD) if c & 2 else (_EMPTY if c & 4 else _DRAWING),
            )
        )
        for c in range(8)
    ],
    dtype=np.uint8,
)
# whole-word draws leave the buffer alone, by word class jump + 2 * ok
_FULL_MAPS = np.array(
    [
        _pack((_DRAWING if c & 1 else _EMPTY, _HELD_OK, _HELD_BAD, _EMPTY if c & 2 else _DRAWING))
        for c in range(4)
    ],
    dtype=np.uint8,
)


def _compose_table() -> np.ndarray:
    digits = (np.arange(256, dtype=np.uint8)[:, None] >> (2 * np.arange(4, dtype=np.uint8))) & 3
    table = np.zeros((256, 256), dtype=np.uint8)
    for s in range(4):
        # later's image of earlier's image of s, for every (later, earlier)
        table |= digits[:, digits[:, s]] << (2 * s)
    return table.ravel()


#: ``_COMPOSE[(later << 8) | earlier]`` is the map applying earlier, then later
_COMPOSE = _compose_table()


def _scan(maps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """States before each word and after the last, from (R, K) word maps."""
    prefix = maps.copy()
    shift = 1
    while shift < prefix.shape[1]:
        pairs = (prefix[:, shift:].astype(np.uint16) << 8) | prefix[:, :-shift]
        prefix[:, shift:] = _COMPOSE[pairs]
        shift *= 2
    states = np.empty((len(start), prefix.shape[1] + 1), dtype=np.uint8)
    states[:, 0] = start
    states[:, 1:] = (prefix >> (2 * start)[:, None]) & 3
    return states


def _word_class(*flags: np.ndarray) -> np.ndarray:
    """Per-word class: flag i sets bit i."""
    return sum(flag.view(np.uint8) << i for i, flag in enumerate(flags))


def _mul_64(words: np.ndarray, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of each word times ``factor`` < 2**64."""
    f_lo, f_hi = np.uint64(factor & 0xFFFFFFFF), np.uint64(factor >> 32)
    w_lo, w_hi = words & _M32, words >> 32
    ll, lh, hl = w_lo * f_lo, w_lo * f_hi, w_hi * f_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return w_hi * f_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), (ll & _M32) | (mid << 32)


def _lemire(words: np.ndarray, bound: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Lemire draw of [0, bound) from each ``bits``-bit word: the
    value and whether the word is accepted.  A 32-bit bound of 2**32 accepts
    every word and returns it unchanged, which is numpy's raw half-word draw
    for that range."""
    if bits == 32:
        product = words * np.uint64(bound)  # < 2**64: words < 2**32, bound <= 2**32
        high = product >> 32
        product &= _M32
        return high, product >= (2**32 - bound) % bound
    high, low = _mul_64(words, bound)
    return high, low >= np.uint64((2**64 - bound) % bound)


def _cumsum_mod(values: np.ndarray, modulus: int) -> np.ndarray:
    """Running sums along each row modulo ``modulus``, for entries below it;
    summed pairwise so nothing overflows for any int64 modulus."""
    sums = values.copy()
    modulus = np.uint64(modulus)
    shift = 1
    while shift < sums.shape[1]:
        step = sums[:, shift:] + sums[:, :-shift]
        # step - modulus wraps above 2**63 when step < modulus, so the minimum
        # is the reduced sum either way
        sums[:, shift:] = np.minimum(step, step - modulus)
        shift *= 2
    return sums


def _walk(spec: ScenarioSpec, bit_gens: list, start: np.ndarray) -> tuple:
    """Read blocks of raw words until every stream's walk has ended.

    Returns the word pool (R, K), the walk's state before each word and
    after the last (R, K + 1), and the number of words each stream used.
    """
    steps, bound = spec.total - 1, spec.G - 1
    pool = np.empty((len(bit_gens), 0), dtype=np.uint64)
    while True:
        # without rejections a jump takes at most one fresh word in two
        block = [bit_gen.random_raw(steps + steps // 2 + 2) for bit_gen in bit_gens]
        pool = np.concatenate([pool, np.stack(block)], axis=1)
        jump = (pool >> 11) * 2.0**-53 < spec.p1  # numpy's double from one word
        if bound == 1:
            maps = np.full(pool.shape, _NO_DRAW_MAP, dtype=np.uint8)
        elif bound <= 2**32:
            low_ok = _lemire(pool & _M32, bound, 32)[1]
            high_ok = _lemire(pool >> 32, bound, 32)[1]
            maps = _HALF_MAPS[_word_class(jump, low_ok, high_ok)]
        else:
            maps = _FULL_MAPS[_word_class(jump, _lemire(pool, bound, 64)[1])]
        states = _scan(maps, start)
        tests_before = np.zeros(states.shape, dtype=np.intp)
        np.cumsum(states[:, :-1] != _DRAWING, axis=1, out=tests_before[:, 1:])
        # the walk ends once every jump test is read and no draw is pending
        done = (tests_before >= steps) & (states != _DRAWING)
        if done.any(axis=1).all():
            return pool, states, done.argmax(axis=1)
        # rejections used the block up: draw the next block and scan again


def _unbalanced_structures(spec: ScenarioSpec, rngs: list) -> np.ndarray:
    bit_gens = [rng.bit_generator for rng in rngs]
    for bit_gen in bit_gens:
        if not isinstance(bit_gen, np.random.PCG64):
            raise TypeError(
                "the unbalanced structure replays numpy's PCG64 stream; "
                f"got a {type(bit_gen).__name__} bit generator"
            )
    rows, steps = len(bit_gens), spec.total - 1
    bound = spec.G - 1  # integers(1, G) is 1 + a draw from [0, G - 1)
    half = bound <= 2**32
    saved = [bit_gen.state for bit_gen in bit_gens]
    held = np.array([state["has_uint32"] for state in saved], dtype=bool)
    held_word = np.array([state["uinteger"] for state in saved], dtype=np.uint64)
    start = np.full(rows, _EMPTY, dtype=np.uint8)
    if half and bound > 1:
        start[held] = np.where(_lemire(held_word[held], bound, 32)[1], _HELD_OK, _HELD_BAD)

    pool, states, used = _walk(spec, bit_gens, start)
    consumed = np.arange(pool.shape[1]) < used[:, None]
    tested = (states[:, :-1] != _DRAWING) & consumed
    fed = consumed & ~tested
    jumps = ((pool[tested] >> 11) * 2.0**-53 < spec.p1).reshape(rows, steps)

    if bound == 1:
        draws = np.zeros(np.count_nonzero(jumps), dtype=np.uint64)
    else:
        owner, words = np.nonzero(fed)[0], pool[fed]
        if half:
            # half-words in the order draws read them: each row's held one,
            # then low and high of each word fed to a draw
            owner = np.concatenate([np.flatnonzero(held), np.repeat(owner, 2)])
            halves = np.column_stack([words & _M32, words >> 32]).ravel()
            words = np.concatenate([held_word[held], halves])
            by_row = np.argsort(owner, kind="stable")
            owner, words = owner[by_row], words[by_row]
        values, ok = _lemire(words, bound, 32 if half else 64)
        owner, values = owner[ok], values[ok]
        # the n-th jump of a row takes the row's n-th accepted draw
        rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        draws = values[rank < np.count_nonzero(jumps, axis=1)[owner]]
    offsets = np.zeros((rows, steps), dtype=np.uint64)
    offsets[jumps] = draws + 1

    has, word = held, held_word
    if half and bound > 1:
        has = states[np.arange(rows), used] != _EMPTY
        last = fed.shape[1] - 1 - fed[:, ::-1].argmax(axis=1)
        word = np.where(fed.any(axis=1), pool[np.arange(rows), last] >> 32, held_word)
    for bit_gen, state, h, w, n in zip(bit_gens, saved, has, word, used):
        state["has_uint32"], state["uinteger"] = int(h), int(w)
        bit_gen.state = state
        # advance() would clear the half-word buffer just restored
        bit_gen.random_raw(int(n))

    groups = np.ones((rows, spec.total), dtype=np.int64)
    groups[:, 1:] += _cumsum_mod(offsets, spec.G).astype(np.int64)
    return groups


def _truths(spec: ScenarioSpec, groups: np.ndarray, rngs: list) -> np.ndarray:
    """Truth labels of every generator's stream over its (R, N) structure."""
    rows, total = groups.shape
    if spec.pattern == "markov":
        uniforms = np.empty((rows, 2 * total))
        for rng, out in zip(rngs, uniforms):
            rng.random(out=out)
        return _markov_truths(uniforms)
    truths = np.zeros(groups.shape, dtype=np.int8)
    count = _percent_count(spec.s, spec.G)
    if count == 0:
        return truths
    # balanced structures give every stream the same layout
    layout = groups if spec.structure == "unbalanced" else groups[:1]
    order = np.argsort(layout, axis=1, kind="stable")
    ordered = np.take_along_axis(layout, order, axis=1).ravel()
    order = order.ravel()
    # one run per (row, group) in the flat sorted arrays, its arrivals ascending
    head = np.ones(ordered.shape, dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    head[::total] = True
    starts = np.flatnonzero(head)
    sizes = np.diff(starts, append=len(ordered))
    run_row = starts // total
    # runs row by row, each row's in the order its groups first appear
    appearance = np.lexsort((order[starts], run_row))
    row_start = np.searchsorted(run_row, np.arange(len(layout) + 1))
    if spec.pattern == "fixed":
        rank = np.empty(len(starts), dtype=np.intp)
        rank[appearance] = np.arange(len(starts)) - row_start[run_row[appearance]]
        unique_sizes, inverse = np.unique(sizes, return_inverse=True)
        picks = np.array([_percent_count(spec.k, int(n)) for n in unique_sizes])[inverse]
        limit = np.where(rank < count, picks.reshape(sizes.shape), 0)
        hit = np.arange(len(ordered)) - np.repeat(starts, sizes) < np.repeat(limit, sizes)
        fixed = np.zeros(layout.shape, dtype=np.int8)
        np.put_along_axis(fixed, order.reshape(layout.shape), hit.reshape(layout.shape), axis=1)
        truths[:] = fixed
        return truths
    for r, rng in enumerate(rngs):
        lr = r if len(layout) > 1 else 0
        runs = appearance[row_start[lr] : row_start[lr + 1]]
        present = ordered[starts[runs]]
        chosen = rng.choice(present, size=min(count, len(runs)), replace=False)
        chosen = set(chosen.tolist())
        for run, group in zip(runs, present):
            if group not in chosen:
                continue
            picks = _percent_count(spec.k, int(sizes[run]))
            if picks == 0:
                continue
            positions = order[starts[run] : starts[run] + sizes[run]]
            truths[r, rng.choice(positions, size=picks, replace=False)] = 1
    return truths


def _markov_truths(uniforms: np.ndarray) -> np.ndarray:
    """Labels of the two-state chain from two uniforms per arrival, as::

        stationary, previous = True, None
        for i in range(N):
            if stationary or previous is None:
                truths[i] = 1 if rng.random() < 0.5 else 0
            else:
                truths[i] = previous if rng.random() < 0.9 else 1 - previous
            previous = truths[i]
            if rng.random() < 0.1:
                stationary = not stationary
    """
    label_u, switch_u = uniforms[:, 0::2], uniforms[:, 1::2]
    switches = switch_u < 0.1
    stationary = (np.cumsum(switches, axis=1) - switches) % 2 == 0
    # a stationary arrival draws a fresh label; an eruption arrival flips it
    bits = np.where(stationary, label_u < 0.5, label_u >= 0.9)
    flips = np.cumsum(bits, axis=1)
    last = np.maximum.accumulate(np.where(stationary, np.arange(bits.shape[1]), 0), axis=1)
    since = flips - np.take_along_axis(flips - bits, last, axis=1)
    return (since % 2).astype(np.int8)


def signal_means(theta, strength: str, beta: float) -> np.ndarray:
    """Mean of the z-statistic for each arrival under a strength profile.

    Nulls have mean 0.  For the increasing/decreasing profiles the t-th true
    signal (t = running count, 1-based) gets mean beta * (1 + t / total) or
    beta * (2 - t / total); with no true signals the profile is irrelevant.
    ``theta`` may be one stream or a stack of them along the first axis.
    """
    theta = np.asarray(theta)
    means = np.zeros(theta.shape, dtype=float)
    mask = theta == 1
    if not mask.any():
        return means
    if strength == "constant":
        means[mask] = 1.5 * beta
        return means
    total = theta.sum(axis=-1, keepdims=True)
    ranks = (np.cumsum(theta, axis=-1) / np.maximum(total, 1))[mask]
    if strength == "increasing":
        means[mask] = beta * (1.0 + ranks)
    elif strength == "decreasing":
        means[mask] = beta * (2.0 - ranks)
    else:
        raise ValueError(f"unknown strength: {strength!r}")
    return means


def gen_pvalues(
    theta, strength: str, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw z ~ N(mean, 1) per arrival and convert to two-sided p-values."""
    means = signal_means(theta, strength, beta)
    z = means + rng.standard_normal(len(means))
    return two_sided_p_array(z)


def two_sided_p(z: float) -> float:
    """Two-sided standard-normal p-value, 2 * (1 - Phi(|z|)).

    Computed as erfc(|z| / sqrt(2)), accurate to well below 1e-12 absolute.
    """
    if not math.isfinite(z):
        raise ValueError(f"non-finite z-statistic: {z}")
    return math.erfc(abs(z) / _SQRT2)


def two_sided_p_array(z) -> np.ndarray:
    """Vectorized two-sided standard-normal p-values."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite z-statistic in input")
    return _erfc(np.abs(z) / _SQRT2)


def make_streams(spec: ScenarioSpec, seeds) -> StreamData:
    """Realize a scenario once per seed, as (R, N) arrays stacked in seed order.

    Row r equals ``make_stream(replace(spec, seed=seeds[r]))`` bit for bit
    (``spec.seed`` itself is not used): each seed's generator draws the
    structure, then the truths, then the p-values.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if not rngs:
        raise ValueError("at least one seed is required")
    groups = _structures(spec, rngs)
    truths = _truths(spec, groups, rngs)
    noise = np.empty(groups.shape)
    for rng, out in zip(rngs, noise):
        rng.standard_normal(out=out)
    pvalues = two_sided_p_array(signal_means(truths, spec.strength, spec.beta) + noise)
    return StreamData(groups=groups, truths=truths, pvalues=pvalues)


def make_stream(spec: ScenarioSpec) -> StreamData:
    """Realize a scenario: structure, then truth, then p-values, one seed."""
    return make_streams(spec, [spec.seed]).row(0)
