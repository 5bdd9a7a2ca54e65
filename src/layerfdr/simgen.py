"""Seeded generators for synthetic grouped hypothesis streams.

Every scenario is a pure function of its spec (including the seed): the same
spec always produces the same (group ids, truth labels, p-values) triple.
Null hypotheses draw z from the standard normal, so their two-sided p-values
are exactly Uniform(0, 1); true hypotheses draw z from a unit-variance normal
whose mean is set by the strength profile.

``make_streams`` realizes one scenario under many seeds at once, as arrays
stacked (R, N); ``make_stream`` is its single-seed case.  Work that draws no
randomness (balanced structures, fixed-pattern truths, group layouts) is done
once per call.  The markov pattern draws one block per stream.  The unbalanced
walk is replayed for all streams at once from raw PCG64 words, as a four-state
automaton that reads one word of every stream per step; the random pattern's
``choice`` calls are replayed from the same words' halves for all streams at
once.  Each reproduces numpy's stream bit for bit and leaves the generators
where it would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import require_alpha, require_eta, require_integers

STRUCTURES = ("block", "interleaved", "unbalanced")
PATTERNS = ("fixed", "random", "markov")
STRENGTHS = ("constant", "increasing", "decreasing")

_SQRT2 = math.sqrt(2.0)
_MAX_GROUPS = 2**63 - 1


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
        # total is n * G when N is unset, an integer once G and n are
        require_integers(G=self.G, n=self.n, N=self.total, seed=self.seed)
        if self.G < 1 or self.n < 1:
            raise ValueError("G and n must be positive")
        if self.G > _MAX_GROUPS:
            # group ids are int64, and numpy's integers(1, G) refuses a larger G
            raise ValueError(f"G must be at most 2**63 - 1, got {self.G}")
        if self.structure == "unbalanced" and self.G < 2:
            raise ValueError("unbalanced structure requires at least two groups")
        if not 0.0 <= self.s <= 100.0 or not 0.0 <= self.k <= 100.0:
            raise ValueError("s and k are percentages in [0, 100]")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")
        require_alpha(self.alpha)
        require_eta(self.eta)
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


def _structures(spec: ScenarioSpec, rngs: list) -> np.ndarray:
    """Group ids (1-based) of every generator's stream, stacked (R, N).

    block repeats each group id n times in order; interleaved cycles 1..G
    n times; unbalanced walks a Markov chain over {1..G} starting at group 1
    with stay probability 1 - p1 and a uniform jump otherwise, exactly as::

        current = 1
        for i in range(N):
            if i > 0 and rng.random() < p1:
                current = (current - 1 + int(rng.integers(1, G))) % G + 1
            groups[i] = current

    The unbalanced walk replays raw PCG64 words; other bit generators raise TypeError.
    """
    if spec.structure == "block":
        return np.tile(np.repeat(np.arange(1, spec.G + 1), spec.n), (len(rngs), 1))
    if spec.structure == "interleaved":
        return np.tile(np.arange(1, spec.G + 1), (len(rngs), spec.n))
    return _walks(spec, _pcg64(rngs)) + 1


def _pcg64(rngs: list) -> list:
    """The generators' bit generators, which the replays need to be PCG64."""
    bit_gens = [rng.bit_generator for rng in rngs]
    other = [type(b).__name__ for b in bit_gens if not isinstance(b, np.random.PCG64)]
    if other:
        raise TypeError(f"the replay reads numpy's PCG64 stream; got a {other[0]} bit generator")
    return bit_gens


def _settle(bit_gen: np.random.PCG64, state: dict, words: int, held: int, half: int) -> None:
    """Put ``bit_gen`` ``words`` raw words past ``state``, holding ``half`` if ``held``."""
    state["has_uint32"], state["uinteger"] = held, half
    bit_gen.state = state
    # advance() would clear the half-word buffer just restored
    bit_gen.random_raw(words)


_MASK32 = 0xFFFFFFFF

# The walk's words are parsed by a four-state automaton.  Before each word it
# expects a jump test with no half-word held, with a held half Lemire accepts,
# with a held half Lemire rejects, or a word drawn for a jump.
_FREE, _HELD_OK, _HELD_BAD, _DRAW = range(4)
# where a completed jump's draw comes from: none, the low or high half of a
# draw word (or the whole word), or the held half
_NONE, _LOW, _HIGH, _HELD = range(4)


def _transitions() -> np.ndarray:
    """Read-only (8, 4) table of the parse state after a word of each class,
    jump | low accepted << 1 | high accepted << 2, from each state before it."""
    table = np.empty((8, 4), dtype=np.uint8)
    for kind in range(8):
        jump, low, high = kind & 1, kind >> 1 & 1, kind >> 2 & 1
        drawn = (_HELD_OK if high else _HELD_BAD) if low else (_FREE if high else _DRAW)
        table[kind] = (
            _DRAW if jump else _FREE,
            _FREE if jump else _HELD_OK,  # the held half is the draw
            _DRAW if jump else _HELD_BAD,  # the held half is drawn and rejected
            drawn,
        )
    table.flags.writeable = False
    return table


def _sources() -> np.ndarray:
    """The draw source of each parse transition, coded before << 2 | after."""
    sources = np.full(16, _NONE, dtype=np.uint8)
    for after in (_FREE, _HELD_OK, _HELD_BAD):
        # a draw word that lets the parse test again completes its jump
        sources[_DRAW << 2 | after] = _HIGH if after == _FREE else _LOW
    sources[_HELD_OK << 2 | _FREE] = _HELD  # a jump that draws the held half
    sources.flags.writeable = False
    return sources


_TRANSITIONS, _SOURCES = _transitions(), _sources()


def _high_products(words: np.ndarray, factor: int) -> np.ndarray:
    """The high 64 bits of each uint64 word times ``factor`` < 2**64."""
    low, high = words & _MASK32, words >> 32
    f_low, f_high = np.uint64(factor & _MASK32), np.uint64(factor >> 32)
    middle = high * f_low + (low * f_low >> 32)
    carry = (middle & _MASK32) + low * f_high
    return high * f_high + (middle >> 32) + (carry >> 32)


def _walks(spec: ScenarioSpec, bit_gens: list) -> np.ndarray:
    """Every generator's unbalanced walk (0-based group ids), stacked (R, N),
    parsed from its raw words.

    Each arrival after the first reads one word for its jump test, numpy's
    double ``(word >> 11) * 2**-53 < p1``.  A jump then draws
    ``integers(1, G)`` as numpy does, by Lemire's method on 32-bit half-words
    (low half first, the high half held in the generator's buffer for the
    next draw) when G - 1 <= 2**32 and on whole words otherwise; G = 2 draws
    nothing.  Whether a word is a jump test or a draw depends on the words
    before it only through the parse state (``_FREE`` .. ``_DRAW``), so the
    parse moves every row one word forward at a time, the next state read
    from ``_TRANSITIONS`` by the word's class and the current state.  A group id
    is the sum of the completed jumps' steps, mod G.  Each generator is left
    where the scalar loop leaves it.
    """
    total, G = spec.total, spec.G
    rows = len(bit_gens)
    steps = np.zeros((rows, total), dtype=np.int64)
    if total == 1:
        return steps
    bound = G - 1  # integers(1, G) is 1 + a draw from [0, G - 1)
    halves = bound <= 2**32
    threshold = ((1 << (32 if halves else 64)) - bound) % bound
    # (word >> 11) * 2**-53 < p1 is exact in doubles, so for integer words it
    # is word >> 11 < ceil(p1 * 2**53)
    cut = math.ceil(spec.p1 * 2.0**53)
    states = [bit_gen.state for bit_gen in bit_gens]
    held = np.array([state["has_uint32"] for state in states])
    half = np.array([state["uinteger"] for state in states], dtype=np.uint64)
    # a block holds about the words a walk at p1 = 0.5 reads; a row that runs
    # out reads another
    block = total + total // 2 + 2
    raw = np.array([bit_gen.random_raw(block) for bit_gen in bit_gens], dtype=np.uint64)
    start = np.full(rows, _FREE, dtype=np.uint8)
    if halves and bound > 1:
        held_ok = half * np.uint64(bound) & _MASK32 >= threshold
        start[held == 1] = np.where(held_ok, _HELD_OK, _HELD_BAD)[held == 1]
    rows_at = np.arange(rows)
    while True:
        jump = raw >> 11 < cut
        if bound == 1:
            before = after = np.full(raw.shape, _FREE, dtype=np.uint8)
        else:
            if halves:
                # the uint16 of a word's two accepted flags is low + 256 * high
                accepted = raw.view(np.uint32) * np.uint32(bound & _MASK32) >= threshold
                accepted = accepted.view(np.uint16)
                accepted = (accepted | accepted >> 7).astype(np.uint8) & 3
            else:
                accepted = (raw * np.uint64(bound) >= threshold).view(np.uint8) << 1
            kinds = jump.view(np.uint8) | accepted << 1
            # one row per word column; class << 2 | state indexes _TRANSITIONS
            codes = np.ascontiguousarray(kinds.T << 2)
            # parse[c] holds every row's state before word c
            parse = np.empty((len(codes) + 1, rows), dtype=np.uint8)
            parse[0] = start
            index = np.empty(rows, dtype=np.uint8)
            for code, state, out in zip(codes, parse, parse[1:]):
                np.add(code, state, out=index)
                # every index is below 32; "clip" skips the copy "raise" makes
                _TRANSITIONS.take(index, out=out, mode="clip")
            before, after = parse[:-1].T, parse[1:].T
        arrival = np.cumsum(before != _DRAW, axis=1, dtype=np.int32)
        # the walk ends after arrival N - 1's test word and any draws of its jump
        used = np.count_nonzero(arrival < total, axis=1)
        last = (rows_at, used - 1)
        finished = (arrival[last] == total - 1) & (after[last] != _DRAW)
        if finished.all():
            break
        # every row that ran out reads another block; the zeros a finished
        # row gets lie past its end
        more = np.zeros((rows, block), dtype=np.uint64)
        for r in np.flatnonzero(~finished).tolist():
            more[r] = bit_gens[r].random_raw(block)
        raw = np.hstack([raw, more])
    width = raw.shape[1]
    if bound == 1:
        source = jump.view(np.uint8)  # a jump completes at its test word
    else:
        source = _SOURCES.take(before << 2 | after)
    # the words that complete a jump, flat (row, column), up to each row's end
    flat = np.flatnonzero(source != _NONE)
    at = arrival.ravel()[flat]
    kept = at < total
    flat, at = flat[kept], at[kept]
    row, source = flat // width, source.ravel()[flat]
    if bound == 1:
        offsets = np.zeros(len(flat), dtype=np.uint64)
    elif not halves:
        offsets = _high_products(raw.ravel()[flat], bound)
    else:
        word = raw.ravel()[flat]
        high = word >> 32
        value = np.where(source == _LOW, word & _MASK32, high)
        # a jump that draws the held half draws the high half of the row's
        # previous completing word (only jump tests that draw nothing lie
        # between them), or the half the generator held at the start
        taken = np.flatnonzero(source == _HELD)
        previous = np.maximum(taken - 1, 0)
        same_row = (taken > 0) & (row[previous] == row[taken])
        value[taken] = np.where(same_row, high[previous], half[row[taken]])
        offsets = value * np.uint64(bound) >> 32
        # numpy's buffer keeps the high half of the last word drawn, which is
        # the row's last completing draw word; it is held while the parse holds it
        drawn = np.flatnonzero(source != _HELD)
        final = drawn[np.diff(row[drawn], append=rows) != 0]
        half[row[final]] = high[final]
        held = (after[last] == _HELD_OK) | (after[last] == _HELD_BAD)
    steps.ravel()[row * total + at] = offsets.astype(np.int64) + 1
    buffers = zip(held.tolist(), half.tolist())
    for bit_gen, state, words, (held_now, half_now) in zip(bit_gens, states, used.tolist(), buffers):
        _settle(bit_gen, state, words, int(held_now), half_now)
    # steps are below G, so an int64 sum overflows only for G beyond 2**63 / N
    ids = np.cumsum(steps, axis=1, dtype=np.int64 if (G - 1) * total < 2**63 else object)
    ids %= G
    return ids.astype(np.int64, copy=False)


def _truths(spec: ScenarioSpec, groups: np.ndarray, rngs: list) -> np.ndarray:
    """0/1 truth labels of every generator's stream over its (R, N) structure.

    The fixed pattern is deterministic given the structure and consumes no
    randomness.  The markov pattern assigns labels from a hidden two-state
    chain (stationary: independent fair coin; eruption: sticky labels with
    persistence 0.9) and ignores the group structure entirely; each arrival
    draws two uniforms, one for its label and one for switching the chain.  The
    random pattern's ``choice`` calls are replayed from raw PCG64 words.
    """
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
    unique_sizes, inverse = np.unique(sizes, return_inverse=True)
    picks = np.array([_percent_count(spec.k, int(n)) for n in unique_sizes])[inverse]
    if spec.pattern == "fixed":
        rank = np.empty(len(starts), dtype=np.intp)
        rank[appearance] = np.arange(len(starts)) - row_start[run_row[appearance]]
        limit = np.where(rank < count, picks, 0)
        hit = np.arange(len(ordered)) - np.repeat(starts, sizes) < np.repeat(limit, sizes)
        fixed = np.zeros(layout.shape, dtype=np.int8)
        np.put_along_axis(fixed, order.reshape(layout.shape), hit.reshape(layout.shape), axis=1)
        truths[:] = fixed
        return truths
    # random: choice(groups by first appearance, count), then choice(positions,
    # picks) per chosen group in that order; grid holds each row's chosen runs
    present = np.diff(row_start)[np.arange(rows) % len(layout)]
    count = np.minimum(count, present)
    words = _HalfWords(_pcg64(rngs))
    row, rank = np.nonzero(_choices(words, present[:, None], count[:, None]))
    slot = np.arange(len(row)) - np.searchsorted(row, row)
    grid = np.full((rows, slot.max() + 1), len(sizes))  # run len(sizes) is empty
    grid[row, slot] = appearance[row_start[row % len(layout)] + rank]
    call, index = np.nonzero(_choices(words, np.append(sizes, 0)[grid], np.append(picks, 0)[grid]))
    truths[call // grid.shape[1], order[starts[grid.ravel()[call]] + index]] = 1
    words.settle()
    return truths


class _HalfWords:
    """R PCG64 streams' 32-bit half-words, drawn from by Lemire's method as numpy does:
    column 0 holds each buffered half (read first if held), then raw words, low half first."""

    def __init__(self, bit_gens: list):
        self.bit_gens, self.states = bit_gens, [bit_gen.state for bit_gen in bit_gens]
        self.halves = np.array([[state["uinteger"]] for state in self.states], dtype=np.uint64)
        self.at = np.array([1 - state["has_uint32"] for state in self.states])

    def draw(self, bounds: np.ndarray) -> np.ndarray:
        """Draws from [0, bound] for each row of (R, D) bounds in turn; 0 reads nothing."""
        span = bounds.astype(np.uint64) + 1
        draws, threshold = bounds > 0, (2**32 - span) % span
        index = self.at[:, None] - 1 + np.cumsum(draws, axis=1)
        while True:
            while index.max() >= self.halves.shape[1]:  # read D more words per row
                raw = np.array([b.random_raw(bounds.shape[1]) for b in self.bit_gens], "<u8")
                self.halves = np.hstack([self.halves, raw.view("<u4")])
            product = np.take_along_axis(self.halves, index, axis=1) * span
            rejected = draws & (product & 0xFFFFFFFF < threshold)
            if not rejected.any():
                self.at = index[:, -1] + 1
                return np.where(draws, product >> 32, 0).astype(np.int64)
            # redraw each row's first rejection from its next half, and shift the rest
            index += np.cumsum(rejected & (np.cumsum(rejected, axis=1) == 1), axis=1)

    def settle(self) -> None:
        held = self.halves[np.arange(len(self.at)), self.at // 2 * 2].tolist()
        for bit_gen, state, at, half in zip(self.bit_gens, self.states, self.at.tolist(), held):
            _settle(bit_gen, state, at // 2, 1 - at % 2, half)


def _choices(words: _HalfWords, pops: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sets numpy's ``choice(pop, size, replace=False)`` picks for (R, K) calls, as a
    (R * K, max pop) mask; row r's calls draw in turn from stream r.  For pop <= 10000 or
    size <= pop // 50 that is Floyd's algorithm over the bounds pop - size .. pop - 1, then a
    shuffle over size - 1 .. 1 (draws consumed, order unused); otherwise a shuffle of the
    tail of range(pop) over pop - 1 .. max(pop - size, 1)."""
    pops, sizes = pops.ravel(), sizes.ravel()
    tail, first = (pops > 10000) & (sizes > pops // 50), pops - sizes
    lengths = np.where(tail, np.minimum(sizes, pops - 1), 2 * sizes - 1)
    col, pop, size = np.arange(max(lengths.max(), 1)), pops[:, None], sizes[:, None]
    bounds = np.where(col < size, pop - size + col, 2 * size - 1 - col)
    bounds = np.where(col < lengths[:, None], np.where(tail[:, None], pop - 1 - col, bounds), 0)
    values = words.draw(bounds.reshape(len(words.at), -1)).reshape(bounds.shape)
    chosen, calls = np.zeros((len(pops), pops.max()), dtype=bool), np.arange(len(pops))
    for c in range(np.where(tail, 0, sizes).max()):
        # Floyd: j = first + c joins the set when its draw is already in it
        pick = np.where(chosen[calls, values[:, c]], first + c, values[:, c])
        live = (c < sizes) & ~tail
        chosen[calls[live], pick[live]] = True
    for call in np.flatnonzero(tail):
        deck = list(range(pops[call]))
        for i, j in zip(range(pops[call] - 1, 0, -1), values[call, : lengths[call]].tolist()):
            deck[i], deck[j] = deck[j], deck[i]
        chosen[call, deck[first[call] :]] = True
    return chosen


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


def two_sided_p_array(z) -> np.ndarray:
    """Vectorized two-sided standard-normal p-values, erfc(|z| / sqrt(2)).

    ``scipy.special`` is imported on the first call, not with the package, so
    ``import layerfdr`` and the ``stream`` and ``validate`` commands, which draw
    no p-values, start without loading scipy.
    """
    from scipy.special import erfc

    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite z-statistic in input")
    return erfc(np.abs(z) / _SQRT2)


def make_streams(spec: ScenarioSpec, seeds) -> StreamData:
    """Realize a scenario once per seed, as (R, N) arrays stacked in seed order.

    Row r equals ``make_stream(replace(spec, seed=seeds[r]))`` bit for bit
    (``spec.seed`` itself is not used): each seed's generator draws the
    structure, then the truths, then the p-values.  The generators start as
    ``np.random.default_rng(seed)`` does; their seed words are hashed for all
    seeds at once (``_seeding``), which loads ``numpy.random`` on first use.
    """
    from ._seeding import generators

    rngs = generators(seeds)
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
