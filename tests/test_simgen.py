import hashlib
import math
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import erfc

from layerfdr import _seeding
from layerfdr.harness import standard_scenarios
from layerfdr.simgen import (
    ScenarioSpec,
    _HalfWords,
    _structures,
    _truths,
    gen_pvalues,
    make_stream,
    make_streams,
    signal_means,
    two_sided_p_array,
)


class TestScenarioSpec:
    def test_defaults_give_the_baseline_sizes(self):
        spec = ScenarioSpec()
        assert spec.total == 200

    def test_balanced_total_must_match(self):
        with pytest.raises(ValueError, match="N = n"):
            ScenarioSpec(structure="block", G=4, n=5, N=19)

    def test_unbalanced_total_is_free(self):
        assert ScenarioSpec(structure="unbalanced", G=4, n=5, N=37).total == 37

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"structure": "ring"},
            {"pattern": "bursty"},
            {"strength": "bimodal"},
            {"s": 120.0},
            {"k": -1.0},
            {"beta": -0.5},
            {"alpha": 1.0},
            {"eta": 0.0},
            {"p1": 1.5},
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"eta": float("nan")},
            {"eta": float("inf")},
            {"G": 20.5},
            {"G": 4, "n": 2.5},
            {"N": 200.0},
            {"structure": "unbalanced", "G": 4.5},
            {"structure": "unbalanced", "N": 37.5},
            {"seed": 1.5},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("field", ["G", "n", "seed", "N"])
    def test_a_bool_count_or_seed_is_refused(self, field):
        sizes = {"structure": "unbalanced", "G": 2, "n": 5, field: True}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
            ScenarioSpec(**sizes)

    def test_a_negative_seed_is_a_valid_field(self):
        # a config's seed = -1 is valid: it may serve as the fallback master seed
        assert ScenarioSpec(seed=-1).seed == -1

    @pytest.mark.parametrize("G", [2**63, 2**63 + 5, 2**64 + 1, 2**70])
    def test_group_counts_beyond_int64_are_refused(self, G):
        # numpy's integers(1, G) refuses such a G, and id G would not fit the int64 ids
        with pytest.raises(ValueError, match=r"G must be at most 2\*\*63 - 1"):
            ScenarioSpec(structure="unbalanced", G=G, N=8, s=0.0)

    @pytest.mark.parametrize("N", [8, 300])
    def test_the_largest_group_count_walks_as_numpy_does(self, N):
        spec = ScenarioSpec(structure="unbalanced", G=2**63 - 1, N=N, s=0.0)
        seeds = list(range(8))
        groups = make_streams(spec, seeds).groups
        for r, seed in enumerate(seeds):
            expected = reference_structure(spec, np.random.default_rng(seed))
            assert groups.dtype == expected.dtype and np.array_equal(groups[r], expected)

    @pytest.mark.parametrize("structure", ["block", "unbalanced"])
    def test_numpy_integer_sizes_give_the_same_stream(self, structure):
        sizes = {"G": 4, "n": 5, "N": 20}
        spec = ScenarioSpec(structure=structure, pattern="random", seed=3, **sizes)
        numpy_sizes = {key: np.int64(value) for key, value in sizes.items()}
        numpy_spec = ScenarioSpec(structure=structure, pattern="random", seed=3, **numpy_sizes)
        plain, numpy = make_stream(spec), make_stream(numpy_spec)
        for name in ("groups", "truths", "pvalues"):
            assert getattr(numpy, name).tobytes() == getattr(plain, name).tobytes()


class TestStructures:
    def test_block(self):
        spec = ScenarioSpec(structure="block", G=2, n=3)
        groups = make_streams(spec, [0]).groups[0]
        assert groups.tolist() == [1, 1, 1, 2, 2, 2]

    def test_interleaved(self):
        spec = ScenarioSpec(structure="interleaved", G=3, n=2)
        groups = make_streams(spec, [0]).groups[0]
        assert groups.tolist() == [1, 2, 3, 1, 2, 3]

    def test_unbalanced_never_jumps_at_zero_probability(self):
        spec = ScenarioSpec(structure="unbalanced", G=5, n=8, p1=0.0)
        groups = make_streams(spec, [3]).groups[0]
        assert set(groups.tolist()) == {1}

    def test_unbalanced_always_jumps_at_probability_one(self):
        spec = ScenarioSpec(structure="unbalanced", G=5, n=8, p1=1.0)
        groups = make_streams(spec, [3]).groups[0]
        assert all(a != b for a, b in zip(groups, groups[1:]))
        assert set(groups.tolist()) <= set(range(1, 6))

    def test_unbalanced_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            ScenarioSpec(structure="unbalanced", G=1, n=8)

    @pytest.mark.parametrize("structure", ["block", "interleaved"])
    def test_balanced_group_counts(self, structure):
        spec = ScenarioSpec(structure=structure, G=7, n=4)
        groups = make_streams(spec, [0]).groups[0]
        values, counts = np.unique(groups, return_counts=True)
        assert values.tolist() == list(range(1, 8))
        assert all(counts == 4)


class TestTruthPatterns:
    def test_fixed_block_baseline_marks_first_forty(self):
        spec = ScenarioSpec(structure="block", pattern="fixed", G=20, n=10, s=20, k=100)
        truths = make_streams(spec, [0]).truths[0]
        assert truths[:40].tolist() == [1] * 40
        assert truths[40:].sum() == 0

    def test_fixed_half_features_within_true_groups(self):
        spec = ScenarioSpec(structure="block", pattern="fixed", G=4, n=10, s=50, k=50)
        truths = make_streams(spec, [0]).truths[0]
        # first two groups true, first five features of each
        assert truths.reshape(4, 10).sum(axis=1).tolist() == [5, 5, 0, 0]
        assert truths[:5].tolist() == [1] * 5 and truths[5:10].tolist() == [0] * 5

    def test_no_true_groups_when_s_is_zero(self):
        spec = ScenarioSpec(pattern="fixed", s=0)
        assert make_streams(spec, [0]).truths[0].sum() == 0

    def test_random_saturates_at_full_percentages(self):
        spec = ScenarioSpec(pattern="random", s=100, k=100)
        truths = make_streams(spec, [0]).truths[0]
        assert truths.sum() == spec.total

    def test_fixed_pattern_consumes_no_randomness(self):
        spec = ScenarioSpec(pattern="fixed")
        groups = make_streams(spec, [0]).groups[0]
        rng = np.random.default_rng(123)
        _truths(spec, groups[None], [rng])
        assert rng.bit_generator.state == np.random.default_rng(123).bit_generator.state

    def test_random_pattern_respects_sizes(self):
        spec = ScenarioSpec(structure="interleaved", pattern="random", G=20, n=10, s=20, k=50)
        data = make_streams(spec, [5])
        groups, truths = data.groups[0], data.truths[0]
        per_group = {
            g: int(truths[groups == g].sum()) for g in range(1, 21)
        }
        true_groups = [g for g, c in per_group.items() if c > 0]
        assert len(true_groups) == 4
        assert all(per_group[g] == 5 for g in true_groups)

    def test_markov_is_seeded_and_binary(self):
        spec = ScenarioSpec(structure="block", pattern="markov", G=20, n=100, N=2000)
        # the block structure draws nothing, so seed 7 drives the labels alone
        a = make_streams(spec, [7]).truths[0]
        b = make_streams(spec, [7]).truths[0]
        assert np.array_equal(a, b)
        assert set(np.unique(a).tolist()) <= {0, 1}
        assert 0.2 < a.mean() < 0.8


class TestSignalStrengths:
    def test_constant_mean(self):
        theta = np.array([0, 1, 0, 1])
        means = signal_means(theta, "constant", 2.0)
        assert means.tolist() == [0.0, 3.0, 0.0, 3.0]

    def test_increasing_profile(self):
        theta = np.array([1, 0, 1, 1, 0, 1])
        means = signal_means(theta, "increasing", 2.0)
        # four true signals: 2 * (1 + t/4) for t = 1..4
        assert means[theta == 1].tolist() == pytest.approx([2.5, 3.0, 3.5, 4.0])
        assert means[theta == 0].tolist() == [0.0, 0.0]

    def test_decreasing_profile_mirrors_increasing(self):
        theta = np.array([1, 1, 1, 1])
        means = signal_means(theta, "decreasing", 2.0)
        assert means.tolist() == pytest.approx([3.5, 3.0, 2.5, 2.0])

    def test_all_null_ignores_profile(self):
        theta = np.zeros(10, dtype=int)
        for strength in ("constant", "increasing", "decreasing"):
            assert signal_means(theta, strength, 3.0).sum() == 0.0


class TestTwoSidedP:
    def test_center_maps_to_one(self):
        assert two_sided_p_array(0.0) == 1.0

    def test_five_percent_quantile(self):
        assert two_sided_p_array(1.959964) == pytest.approx(0.05, abs=1e-5)

    def test_symmetry(self):
        assert two_sided_p_array(-1.959964) == two_sided_p_array(1.959964)

    @pytest.mark.parametrize("z", [float("inf"), float("nan")])
    def test_nonfinite_rejected(self, z):
        with pytest.raises(ValueError):
            two_sided_p_array(z)
        with pytest.raises(ValueError):
            two_sided_p_array([0.0, z])

    def test_agrees_with_survival_function(self):
        zs = np.array([0.5, 1.0, 2.5, 4.0])
        assert two_sided_p_array(zs) == pytest.approx(2 * stats.norm.sf(zs), rel=1e-12)


class TestPvalues:
    def test_null_pvalues_are_roughly_uniform(self):
        theta = np.zeros(20000, dtype=int)
        p = gen_pvalues(theta, "constant", 2.0, np.random.default_rng(42))
        d = stats.kstest(p, "uniform").statistic
        assert d < 0.02
        assert abs(p.mean() - 0.5) < 0.02

    def test_signals_concentrate_near_zero(self):
        theta = np.ones(2000, dtype=int)
        p = gen_pvalues(theta, "constant", 3.0, np.random.default_rng(42))
        assert np.median(p) < 1e-3


class TestDeterminism:
    def test_same_seed_same_triple(self):
        spec = ScenarioSpec(structure="unbalanced", pattern="random", seed=909)
        a = make_stream(spec)
        b = make_stream(spec)
        assert np.array_equal(a.groups, b.groups)
        assert np.array_equal(a.truths, b.truths)
        assert np.array_equal(a.pvalues, b.pvalues)

    def test_different_seed_differs(self):
        spec = ScenarioSpec(pattern="random", seed=1)
        other = ScenarioSpec(pattern="random", seed=2)
        assert not np.array_equal(make_stream(spec).pvalues, make_stream(other).pvalues)


# ---------------------------------------------------------------------------
# naive reference: the per-arrival scalar loops the batched generator replaces,
# kept verbatim


def reference_structure(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Generate the group id (1-based) of each arrival in the group layer.

    block repeats each group id n times in order; interleaved cycles 1..G
    n times; unbalanced walks a Markov chain over {1..G} starting at group 1
    with stay probability 1 - p1 and a uniform jump otherwise.
    """
    if spec.structure == "block":
        return np.repeat(np.arange(1, spec.G + 1), spec.n)
    if spec.structure == "interleaved":
        return np.tile(np.arange(1, spec.G + 1), spec.n)
    if spec.G < 2:
        raise ValueError("unbalanced structure requires at least two groups")
    groups = np.empty(spec.total, dtype=np.int64)
    current = 1
    for i in range(spec.total):
        if i > 0 and rng.random() < spec.p1:
            offset = int(rng.integers(1, spec.G))
            current = (current - 1 + offset) % spec.G + 1
        groups[i] = current
    return groups


def reference_truth(
    spec: ScenarioSpec, structure: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Generate 0/1 truth labels for each arrival.

    The fixed pattern is deterministic given the structure and consumes no
    randomness.  The markov pattern assigns labels from a hidden two-state
    chain (stationary: independent fair coin; eruption: sticky labels with
    persistence 0.9) and ignores the group structure entirely.
    """
    total = len(structure)
    truths = np.zeros(total, dtype=np.int8)
    if spec.pattern == "markov":
        stationary = True
        previous: Optional[int] = None
        for i in range(total):
            if stationary or previous is None:
                truths[i] = 1 if rng.random() < 0.5 else 0
            else:
                truths[i] = previous if rng.random() < 0.9 else 1 - previous
            previous = int(truths[i])
            if rng.random() < 0.1:
                stationary = not stationary
        return truths

    order = _first_appearance_order(structure)
    count = _percent_count(spec.s, spec.G)
    count = min(count, len(order))
    if count == 0:
        return truths
    if spec.pattern == "fixed":
        chosen = order[:count]
    else:
        chosen = list(rng.choice(np.asarray(order), size=count, replace=False))
    chosen_set = set(int(g) for g in chosen)
    for group in order:
        if group not in chosen_set:
            continue
        positions = np.flatnonzero(structure == group)
        picks = _percent_count(spec.k, len(positions))
        if picks == 0:
            continue
        if spec.pattern == "fixed":
            truths[positions[:picks]] = 1
        else:
            truths[rng.choice(positions, size=picks, replace=False)] = 1
    return truths


def _first_appearance_order(structure: np.ndarray) -> list[int]:
    seen: set[int] = set()
    order: list[int] = []
    for g in structure:
        g = int(g)
        if g not in seen:
            seen.add(g)
            order.append(g)
    return order


def reference_means(theta, strength: str, beta: float) -> np.ndarray:
    """Mean of the z-statistic for each arrival under a strength profile.

    Nulls have mean 0.  For the increasing/decreasing profiles the t-th true
    signal (t = running count, 1-based) gets mean beta * (1 + t / total) or
    beta * (2 - t / total); with no true signals the profile is irrelevant.
    """
    theta = np.asarray(theta)
    means = np.zeros(len(theta), dtype=float)
    total = int(theta.sum())
    if total == 0:
        return means
    mask = theta == 1
    if strength == "constant":
        means[mask] = 1.5 * beta
        return means
    ranks = np.cumsum(theta)[mask] / total
    if strength == "increasing":
        means[mask] = beta * (1.0 + ranks)
    elif strength == "decreasing":
        means[mask] = beta * (2.0 - ranks)
    else:
        raise ValueError(f"unknown strength: {strength!r}")
    return means


def reference_stream(spec: ScenarioSpec):
    """Structure, truths and p-values of one seed through the scalar loops."""
    rng = np.random.default_rng(spec.seed)
    groups = reference_structure(spec, rng)
    truths = reference_truth(spec, groups, rng)
    z = reference_means(truths, spec.strength, spec.beta) + rng.standard_normal(len(truths))
    return groups, truths, erfc(np.abs(z) / math.sqrt(2.0))


def _percent_count(percent: float, total: int) -> int:
    # round up so any positive percentage yields at least one pick;
    # snap near-integers first to keep float noise out of the ceiling
    return min(total, math.ceil(round(percent * total / 100.0, 9)))


def assert_same_stream(data, expected):
    arrays = (data.groups, data.truths, data.pvalues)
    for name, got, want in zip(("groups", "truths", "pvalues"), arrays, expected):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("beta", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("panel", sorted(standard_scenarios()))
def test_standard_panels_match_the_scalar_loops(panel, beta):
    spec = replace(standard_scenarios()[panel], beta=beta)
    seeds = list(range(50)) + [2**63, 2**64 - 1]
    batch = make_streams(spec, seeds)
    for r, seed in enumerate(seeds):
        expected = reference_stream(replace(spec, seed=seed))
        assert_same_stream(batch.row(r), expected)
        assert_same_stream(make_stream(replace(spec, seed=seed)), expected)


UNBALANCED = ScenarioSpec(structure="unbalanced")

EDGE_CASES = {
    # integers(1, 2) draws nothing
    "G=2": replace(UNBALANCED, G=2, N=300),
    "G=3": replace(UNBALANCED, G=3, N=300),
    # Lemire rejects about half of all half-words
    "G=2**31+2": replace(UNBALANCED, G=2**31 + 2, N=400),
    # one raw half-word per jump, never rejected
    "G=2**32+1": replace(UNBALANCED, G=2**32 + 1, N=300),
    # whole-word draws
    "G=2**33": replace(UNBALANCED, G=2**33, N=300),
    # whole-word draws, a quarter of them rejected
    "G=2**62+2": replace(UNBALANCED, G=2**62 + 2, N=300),
    "G=2**33-random": replace(UNBALANCED, G=2**33, N=300, pattern="random", s=50.0, k=50.0),
    "p1=0": replace(UNBALANCED, p1=0.0, N=77),
    "p1=1": replace(UNBALANCED, p1=1.0, N=77),
    "unbalanced-random": replace(UNBALANCED, pattern="random", k=50.0, N=137),
    "unbalanced-markov": replace(UNBALANCED, pattern="markov", strength="increasing", N=137),
    "unbalanced-N=1": replace(UNBALANCED, N=1),
    "s=0": ScenarioSpec(s=0.0),
    "k=0": ScenarioSpec(k=0.0),
    "k=0-random": ScenarioSpec(structure="interleaved", pattern="random", k=0.0),
    "unbalanced-s=0": replace(UNBALANCED, s=0.0, N=90),
    "unbalanced-k=0": replace(UNBALANCED, k=0.0, N=90),
    # choice over every group or every position: Floyd's first bound is 0
    "interleaved-random": ScenarioSpec(structure="interleaved", pattern="random"),
    "interleaved-random-s=100": ScenarioSpec(
        structure="interleaved", pattern="random", s=100.0, k=30.0
    ),
    "block-random-k50": ScenarioSpec(pattern="random", s=50.0, k=50.0),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_the_scalar_loops(case):
    spec = EDGE_CASES[case]
    seeds = list(range(50))
    batch = make_streams(spec, seeds)
    for r, seed in enumerate(seeds):
        expected = reference_stream(replace(spec, seed=seed))
        assert_same_stream(batch.row(r), expected)


@pytest.mark.parametrize("buffered", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "case",
    [
        "G=2",
        "G=3",
        "G=2**31+2",
        "G=2**32+1",
        "G=2**33",
        "G=2**62+2",
        "unbalanced-random",
        "unbalanced-markov",
        "interleaved-random",
        "interleaved-random-s=100",
        "block-random-k50",
        "k=0-random",
    ],
)
def test_generator_is_left_where_the_scalar_loops_leave_it(case, buffered):
    spec = EDGE_CASES[case]
    for seed in range(12):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, theirs):
            # an odd count leaves a half-word in the generator's buffer
            rng.integers(1, 7, buffered)
        groups = _structures(spec, [ours])[0]
        truths = _truths(spec, groups[None], [ours])[0]
        expected_groups = reference_structure(spec, theirs)
        expected_truths = reference_truth(spec, expected_groups, theirs)
        assert groups.dtype == expected_groups.dtype and np.array_equal(groups, expected_groups)
        assert truths.dtype == expected_truths.dtype and np.array_equal(truths, expected_truths)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(ours.standard_normal(9), theirs.standard_normal(9))
        assert np.array_equal(ours.integers(1, 7, 5), theirs.integers(1, 7, 5))


CHOICE_BRANCHES = {
    # numpy's choice(pop, size, replace=False) shuffles the tail of range(pop)
    # when pop > 10000 and size > pop // 50: for the groups ...
    "tail-groups": ScenarioSpec(structure="interleaved", pattern="random", G=10050, n=1, s=50.0),
    # ... and for the positions inside a group
    "tail-positions": ScenarioSpec(structure="block", pattern="random", G=2, n=10050, k=50.0),
    # at size == pop // 50 it keeps Floyd's algorithm
    "floyd-edge-groups": ScenarioSpec(
        structure="interleaved", pattern="random", G=10050, n=1, s=2.0
    ),
    "floyd-edge-positions": ScenarioSpec(
        structure="block", pattern="random", G=2, n=10050, k=2.0
    ),
    # every stream has groups of just over and just under 10000 arrivals, so
    # one round of position draws mixes the tail shuffle and Floyd's algorithm
    "unbalanced-tail": ScenarioSpec(
        structure="unbalanced", pattern="random", G=3, N=30000, s=70.0
    ),
}


@pytest.mark.parametrize("case", sorted(CHOICE_BRANCHES))
def test_both_choice_branches_match_the_scalar_loops(case):
    spec = CHOICE_BRANCHES[case]
    # with no half-word held, seed 50's tail-groups draw meets a Lemire rejection
    seeds = (0, 1, 50, 67)
    ours = [np.random.default_rng(seed) for seed in seeds]
    theirs = [np.random.default_rng(seed) for seed in seeds]
    for r, (mine, reference) in enumerate(zip(ours, theirs)):
        # odd rows start with a half-word held in the generator's buffer
        mine.integers(1, 7, r % 2)
        reference.integers(1, 7, r % 2)
    groups = _structures(spec, ours)
    truths = _truths(spec, groups, ours)
    for r, (mine, reference) in enumerate(zip(ours, theirs)):
        expected_groups = reference_structure(spec, reference)
        expected_truths = reference_truth(spec, expected_groups, reference)
        assert np.array_equal(groups[r], expected_groups)
        assert truths.dtype == expected_truths.dtype and np.array_equal(truths[r], expected_truths)
        assert mine.bit_generator.state == reference.bit_generator.state
    batch = make_streams(spec, seeds[:2])
    for r, seed in enumerate(seeds[:2]):
        assert_same_stream(batch.row(r), reference_stream(replace(spec, seed=seed)))


MASK32 = 0xFFFFFFFF


class CraftedWords:
    """Stands in for a PCG64 bit generator, handing out the raw words given."""

    def __init__(self, words, held=0, half=0):
        self.words = list(words)
        self.state = {"has_uint32": held, "uinteger": half}
        self.reads = []

    def random_raw(self, size):
        self.reads.append(size)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def scalar_draws(bounds, words, held, half):
    """numpy's bounded draws from [0, bound], one at a time, off a word list;
    returns the values, the rejections, the words read and the buffer left."""
    values, words, rejected, read = [], iter(words), 0, 0
    for bound in bounds:
        span, value = bound + 1, 0
        while bound:
            if held:
                half32, held = half, 0
            else:
                word = next(words)
                read += 1
                half32, half, held = word & MASK32, word >> 32, 1
            product = half32 * span
            if product & MASK32 >= (2**32 - span) % span:
                value = product >> 32
                break
            rejected += 1
        values.append(value)
    return values, rejected, read, held, half


def test_crafted_words_force_rejections_and_a_second_read():
    rng = np.random.default_rng(8)
    bounds = np.array([[2, 0, 6, 2**31, 9, 0, 2], [2, 2, 0, 0, 2**31 + 5, 1, 3], [6] * 7])
    words = [rng.integers(0, 2**64, 40, dtype=np.uint64).tolist() for _ in range(3)]
    # a low half of 0 is rejected at every bound whose span is not a power of two
    words[0][0] &= ~MASK32
    words[0][2] = 0
    # row 1 starts from a held half of 0; row 2's first nine words are 0, so
    # it reads past its first block of len(bounds[2]) words
    words[2][:9] = [0] * 9
    buffers = [(0, 0), (1, 0), (0, 77)]
    gens = [CraftedWords(raw, *buffer) for raw, buffer in zip(words, buffers)]
    halves = _HalfWords(gens)
    values = halves.draw(bounds)
    halves.settle()
    for r, (row, gen, raw, buffer) in enumerate(zip(bounds.tolist(), gens, words, buffers)):
        want, rejected, read, held, half = scalar_draws(row, raw, *buffer)
        assert rejected > 0
        assert values[r].tolist() == want
        # settling advances each generator past exactly the words its draws used
        assert gen.reads[-1] == read
        assert (gen.state["has_uint32"], gen.state["uinteger"]) == (held, half)
    assert len(gens[2].reads) > 2


def test_a_row_that_rejects_its_last_half_word_reads_its_next_word():
    # row 0's two draws fit in its first word, whose high half of 0 is rejected,
    # while row 1 draws three times, so the rows reach different depths
    bounds = np.array([[2, 2, 0], [2, 2, 2]])
    rng = np.random.default_rng(5)
    words = [rng.integers(0, 2**64, 12, dtype=np.uint64).tolist() for _ in range(2)]
    words[0][0] = words[0][0] & MASK32 | 1
    gens = [CraftedWords(raw) for raw in words]
    halves = _HalfWords(gens)
    values = halves.draw(bounds)
    halves.settle()
    for r, (row, gen, raw) in enumerate(zip(bounds.tolist(), gens, words)):
        want, rejected, read, held, half = scalar_draws(row, raw, 0, 0)
        assert rejected == (r == 0)
        assert values[r].tolist() == want
        assert gen.reads[-1] == read
        assert (gen.state["has_uint32"], gen.state["uinteger"]) == (held, half)


class CountingPCG64(np.random.PCG64):
    """PCG64 that counts its raw-word reads."""

    reads = 0

    def random_raw(self, size=None, output=True):
        self.reads += 1
        return super().random_raw(size, output)


@pytest.mark.parametrize("case", ["G=2**31+2", "G=2**33", "G=2**62+2"])
def test_walks_that_use_a_block_up_read_the_next(case):
    spec = EDGE_CASES[case]
    refills = 0
    for seed in range(20):
        bit_gen = CountingPCG64(seed)
        groups = _structures(spec, [np.random.Generator(bit_gen)])[0]
        # one block, then one read to advance past the words used
        refills += bit_gen.reads > 2
        assert np.array_equal(groups, reference_structure(spec, np.random.default_rng(seed)))
    assert refills > 0


WALK_GROUP_COUNTS = (2, 3, 20, 2**31 + 2, 2**32 + 1, 2**33, 2**62 + 2, 2**63 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    G=st.sampled_from(WALK_GROUP_COUNTS),
    p1=st.floats(0.0, 1.0),
    N=st.integers(1, 400),
    seed=st.integers(0, 2**64 - 2),
    buffered=st.integers(0, 3),
)
@example(G=3, p1=0.0, N=400, seed=0, buffered=1)
@example(G=2**31 + 2, p1=1.0, N=400, seed=5, buffered=3)
def test_the_walk_automaton_replays_the_scalar_loop(G, p1, N, seed, buffered):
    spec = ScenarioSpec(structure="unbalanced", G=G, N=N, p1=p1, s=0.0)
    # two streams, one holding a half-word the other may not, parsed side by side
    seeds, held = (seed, seed + 1), (buffered, 3 - buffered)
    ours = [np.random.default_rng(s) for s in seeds]
    theirs = [np.random.default_rng(s) for s in seeds]
    for mine, reference, count in zip(ours, theirs, held):
        mine.integers(1, 7, count)
        reference.integers(1, 7, count)
    groups = _structures(spec, ours)
    for r, (mine, reference) in enumerate(zip(ours, theirs)):
        assert np.array_equal(groups[r], reference_structure(spec, reference))
        assert mine.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
def test_a_tie_at_the_jump_test_stays_put(seed, above):
    word = int(np.random.PCG64(seed).random_raw(1)[0])
    p1 = (word >> 11) * 2.0**-53  # the double of the first jump test's word
    if above:
        p1 = float(np.nextafter(p1, 2.0))
    spec = replace(UNBALANCED, p1=p1, N=60, seed=seed)
    expected = reference_structure(spec, np.random.default_rng(seed))
    groups = make_streams(spec, [seed]).groups[0]
    assert groups.dtype == expected.dtype and np.array_equal(groups, expected)
    # the jump test is strict: a tie stays put, the next double up jumps
    assert (groups[1] != 1) == above


def test_unbalanced_structure_needs_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        _structures(UNBALANCED, [rng])


def test_make_streams_needs_a_seed():
    with pytest.raises(ValueError, match="seed"):
        make_streams(ScenarioSpec(), [])


#: seeds of one to five 32-bit digits, at the edges of each digit count
WORD_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**127, 2**128 + 5, 2**130)


def test_seed_words_equal_numpy_seed_sequences():
    seeds = [*WORD_SEEDS, np.uint64(2**64 - 1), np.int64(2**63 - 1), np.uint8(0), np.int32(7)]
    expected = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
    # a generator expression is read once
    words = _seeding.seed_words(seed for seed in seeds)
    assert words.dtype == np.uint64 and np.array_equal(words, expected)
    for seed, want in zip(seeds, expected):
        assert np.array_equal(_seeding.seed_words([seed]), [want])


def test_make_streams_reads_a_generator_expression_of_seeds():
    spec = standard_scenarios()["interleaved-random-constant"]
    batch = make_streams(spec, (seed for seed in WORD_SEEDS))
    assert batch.groups.shape == (len(WORD_SEEDS), spec.total)
    for r, seed in enumerate(WORD_SEEDS):
        assert_same_stream(batch.row(r), reference_stream(replace(spec, seed=seed)))


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (-1, ValueError, "expected non-negative integer"),
        (np.int64(-3), ValueError, "expected non-negative integer"),
        (1.5, TypeError, "SeedSequence expects int or sequence of ints for entropy not 1.5"),
    ],
)
def test_a_seed_numpy_refuses_is_refused_alike(seed, error, message):
    with pytest.raises(error) as refused:
        np.random.default_rng(seed)
    assert str(refused.value) == message
    with pytest.raises(error) as ours:
        make_streams(ScenarioSpec(), [3, seed])
    assert str(ours.value) == message


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=6),
    panel=st.sampled_from(sorted(standard_scenarios())),
)
def test_generators_start_and_end_as_default_rng(seeds, panel):
    spec = standard_scenarios()[panel]
    generators, made = _seeding.generators, []

    def recorded(seeds):
        made.extend(generators(seeds))
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_seeding, "generators", recorded)
        batch = make_streams(spec, seeds)
    assert len(made) == len(seeds)
    for r, (seed, rng) in enumerate(zip(seeds, made)):
        reference = np.random.default_rng(seed)
        groups = reference_structure(spec, reference)
        truths = reference_truth(spec, groups, reference)
        noise = reference.standard_normal(len(truths))
        z = reference_means(truths, spec.strength, spec.beta) + noise
        assert_same_stream(batch.row(r), (groups, truths, erfc(np.abs(z) / math.sqrt(2.0))))
        assert rng.bit_generator.state == reference.bit_generator.state


GOLDEN_SEEDS = (7, 20260808, 2**64 - 1)

#: SHA-256 over the dtype string and bytes of the groups, truths and
#: p-values of make_streams(panel at beta, GOLDEN_SEEDS), recorded from the
#: scalar generator with numpy 2.4.  A numpy release that changes the PCG64
#: stream, or the Lemire, ziggurat or choice algorithms, fails here.
GOLDEN = {
    ("block-fixed-constant", 1.0):
        "c855f3d56ad1b5e979441cfc1f261958fe88c1157cf72a16f3bd0264fc952a6e",
    ("block-fixed-constant", 4.0):
        "341b5691947edb59318346a334b2f0054db9a447c944d7045a5523e995d69f59",
    ("interleaved-fixed-constant", 1.0):
        "caf05891f5ba2c63d2243cbd96ab1c79fa1d3741d822f22f75978ebec0c38478",
    ("interleaved-fixed-constant", 4.0):
        "b0ebd8f9cde3c99ae329c8eea2a6e9ebe5f35fbbeae5a4fc3a9a067e5d72f78a",
    ("unbalanced-fixed-constant", 1.0):
        "6b54828f4546eafd2b74a75c39b1b472f4ff5fd4c753466b734080823e18abfb",
    ("unbalanced-fixed-constant", 4.0):
        "38f4cb15897f1953dafff09f01b83e7a5d0e7d9b503a6ae15b4effe3b8986d91",
    ("interleaved-random-constant", 1.0):
        "a733d28dec20bd707cef4171d2d96f494bce8a050042c2206b667a1ec7faa63c",
    ("interleaved-random-constant", 4.0):
        "1093bfa9c901c87cca8a00209ea69cfb09638c4c35439b1d24286de61ed64a19",
    ("interleaved-markov-constant", 1.0):
        "470f3067c6b1be9b2151cb8634654fbbc6d4fb5c1fb6925088cd11268e643f27",
    ("interleaved-markov-constant", 4.0):
        "1fcac7d645329da2c39158c7d9e8552263b8e025286c69c193fb32a67c35013e",
    ("block-fixed-increasing", 1.0):
        "e5287b7ab03e4bdf5523a71fdaa9ab3fef938892dd4e211606d9df0113ddde46",
    ("block-fixed-increasing", 4.0):
        "78b9c1ea02278a568d8bde4f013e7eef45e4b6859ddd9bad799116d6f10d7a62",
    ("block-fixed-decreasing", 1.0):
        "eb752e3be82bd679a7212d2b6e40d2945c02da89351c03401fbaa58d573b136f",
    ("block-fixed-decreasing", 4.0):
        "c19503e6416c2d8c537e8c77a8a03317b30dfdd2ac4147fac6c832f2f7a27df1",
    ("interleaved-random-constant-k50", 1.0):
        "d7680f2d11a9e0f00d7d25971155acbb69253ee4eee9d3c135ba412e7f4a32a3",
    ("interleaved-random-constant-k50", 4.0):
        "cf42ee9d3fd90384372c2dead2c9475e5f6e5cd3c1cda05e249d0f2b9782cc5b",
    ("interleaved-random-increasing-k50", 1.0):
        "5cf74605ad52bc1fdd690b535933fc2ad76541723c94780e6c6c7870a12e12cf",
    ("interleaved-random-increasing-k50", 4.0):
        "c76c90875ef2d497e0ef04dc2836efc63e09b867437c4ea34fd5e3304872e902",
    ("interleaved-random-decreasing-k50", 1.0):
        "e72b307e51fa0b7c0660d1f7d6a05349854e8dfd52e408d9c5a33f05a3745bf6",
    ("interleaved-random-decreasing-k50", 4.0):
        "574ed715c3ce4e074f066bfbe13a6e13d577612510f055e5303ccc77dd572081",
}


@pytest.mark.parametrize("panel, beta", sorted(GOLDEN))
def test_golden_stream_digests(panel, beta):
    data = make_streams(replace(standard_scenarios()[panel], beta=beta), GOLDEN_SEEDS)
    digest = hashlib.sha256()
    for array in (data.groups, data.truths, data.pvalues):
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == GOLDEN[(panel, beta)]
