"""The replicate-lockstep kernel against the step engine, decision for decision."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from layerfdr.core import HypothesisEvent
from layerfdr.harness import (
    LAYER_NAMES,
    SweepSpec,
    emit_results,
    replicate_seed,
    run_replicate,
    run_sweep,
    standard_scenarios,
    stream_tallies,
)
from layerfdr.metrics import aggregate
from layerfdr.procedures import (
    METHODS,
    BetaSequence,
    _levels,
    _lond_clearances,
    lockstep_rejections,
    make_procedure,
    replay,
)
from layerfdr.simgen import make_stream, make_streams

ALPHA = 0.1


def reference_mask(method, pvalues, groups, alpha=ALPHA, eta=1.0):
    """Rejections of each row replayed through the step engine.

    ``groups`` holds P partitions, shape (R, N, P), or one, shape (R, N), and
    None means none: row r runs on events (t, g1, ..., gP) with 1 + P layers.
    """
    shape = np.shape(pvalues)
    groups = np.zeros(shape + (0,), int) if groups is None else np.atleast_3d(groups)
    rows = []
    for r, row in enumerate(pvalues):
        events = [
            HypothesisEvent(t=t, p=float(p), group_index=(t, *map(int, ids)))
            for t, (p, ids) in enumerate(zip(row, groups[r]), 1)
        ]
        procedure = make_procedure(method, 1 + groups.shape[2], alpha, eta)
        rows.append([record.rejected for record in replay(procedure, events)])
    return np.array(rows, dtype=bool).reshape(shape)


def assert_matches_replay(method, pvalues, groups=None, alpha=ALPHA, eta=1.0):
    pvalues = np.asarray(pvalues, dtype=float)
    got = lockstep_rejections(method, pvalues, groups, alpha, eta)
    want = reference_mask(method, pvalues, groups, alpha, eta)
    assert got.shape == pvalues.shape
    assert np.array_equal(got, want)
    return got


def grouped(method):
    return method.startswith("ml-")


def partition_counts(method):
    """The single-layer rules run alone; the ml rules with one partition, as
    run_sweep passes it, and with two."""
    return (1, 2) if grouped(method) else (0,)


def partitioned(partitions, first, second):
    """Group ids of ``partitions`` partitions: None, ``first`` of shape
    (R, N), or ``first`` and ``second`` stacked to shape (R, N, 2)."""
    if partitions < 2:
        return first if partitions else None
    return np.stack([first, second], axis=-1)


@pytest.mark.parametrize("panel", sorted(standard_scenarios()))
@pytest.mark.parametrize("method", METHODS)
def test_matches_replay_on_every_panel(panel, method):
    spec = standard_scenarios()[panel]
    for beta in (0.0, 2.0):
        streams = [
            make_stream(replace(spec, beta=beta, seed=replicate_seed(3, method, beta, r)))
            for r in range(4)
        ]
        pvalues = np.stack([data.pvalues for data in streams])
        groups = np.stack([data.groups for data in streams]) if grouped(method) else None
        assert_matches_replay(method, pvalues, groups, spec.alpha, spec.eta)


# SHA-256 of the masks below as the kernel wrote them when this test was added
MASK_DIGEST = "a1e2ce09cb9b659b33bfd87aee594a67a1ab505070152c362dd9dfcf5455e95e"


def test_masks_match_the_golden_digest():
    # 140 cells of 20 replicates with groups as run_sweep passes them, and the
    # ml rules once more under a second partition crossing the first, t mod 7
    digest = hashlib.sha256()
    for method in METHODS:
        for spec in standard_scenarios().values():
            for beta in (0.0, 2.5):
                seeds = [replicate_seed(0, method, beta, r) for r in range(20)]
                data = make_streams(replace(spec, beta=beta), seeds)
                crossed = np.broadcast_to(
                    np.arange(1, data.groups.shape[1] + 1) % 7, data.groups.shape
                )
                for partitions in partition_counts(method):
                    groups = partitioned(partitions, data.groups, crossed)
                    mask = lockstep_rejections(method, data.pvalues, groups, spec.alpha, spec.eta)
                    digest.update(mask.tobytes())
    assert digest.hexdigest() == MASK_DIGEST


@pytest.mark.parametrize("method", METHODS)
def test_tie_with_the_first_threshold_accepts(method):
    rule = method[3:] if grouped(method) else method
    first = ALPHA if rule == "GAI" else BetaSequence(ALPHA).value(1)
    pvalues = np.array([[first, 0.0], [np.nextafter(first, 0.0), 0.0]])
    groups = np.array([[1, 2], [1, 2]]) if grouped(method) else None
    got = assert_matches_replay(method, pvalues, groups)
    assert got[:, 0].tolist() == [False, True]


@pytest.mark.parametrize("method", METHODS)
def test_pvalues_equal_to_issued_thresholds(method):
    # every p is 0, 1, a level-sequence value, a scaled LOND threshold or
    # alpha itself, so ties with the thresholds the engine issues are common
    n = 60
    sequence = BetaSequence(ALPHA)
    pool = [0.0, 1.0, ALPHA] + [
        min(1.0, sequence.value(j) * k) for j in range(1, n + 1) for k in (1, 2, 3)
    ]
    for partitions in partition_counts(method):
        rng = np.random.default_rng(11)
        pvalues = rng.choice(np.array(pool), size=(40, n))
        groups = partitioned(
            partitions,
            rng.integers(0, 4, size=(40, n)),
            rng.integers(0, 30, size=(40, n)),
        )
        assert_matches_replay(method, pvalues, groups)


def clearance_pools(steps, alpha=ALPHA):
    """Per step t, the p-values at which a rule's decision turns: every level,
    min(1, levels[t] * (k + 1)) for k = 0..20 and alpha, each with its nearest
    doubles either way, and 0 and 1."""
    sequence = BetaSequence(alpha)
    levels = [sequence.value(j) for j in range(1, steps + 1)]
    pools = []
    for level in levels:
        turns = {alpha, *levels, *(min(1.0, level * (k + 1)) for k in range(21))}
        near = {np.nextafter(p, 0.0) for p in turns} | {np.nextafter(p, 2.0) for p in turns}
        pools.append(np.array(sorted(p for p in turns | near | {0.0, 1.0} if p <= 1.0)))
    return pools


@pytest.mark.parametrize("method", METHODS)
def test_pvalues_at_every_turn_of_the_clearance_tables(method):
    steps, reps = 40, 30
    pools = clearance_pools(steps)
    for partitions in (0, 1, 2):
        rng = np.random.default_rng(partitions)
        pvalues = np.column_stack([rng.choice(pool, reps) for pool in pools])
        groups = partitioned(
            partitions,
            rng.integers(0, 3, size=(reps, steps)),
            rng.integers(0, 12, size=(reps, steps)),
        )
        assert_matches_replay(method, pvalues, groups)


def test_level_table_and_lond_clearances_equal_the_float_comparisons():
    steps = 60
    for alpha in (ALPHA, 0.05, 1e-9, 0.999):
        sequence = BetaSequence(alpha)
        levels = _levels(alpha, steps)
        assert levels[0] == 0.0
        expected = [sequence.value(j) for j in range(1, steps + 1)]
        assert levels.dtype == np.float64 and levels[1:].tolist() == expected
        pools = clearance_pools(steps, alpha)
        width = max(map(len, pools))
        # (step, candidate) p-values, each pool padded with its first entry
        pvalues = np.array([np.resize(pool, width) for pool in pools])
        got = _lond_clearances(pvalues, levels)
        counts = np.arange(1.0, steps + 2)  # k + 1 for k = 0..steps
        for t, (row, clearances) in enumerate(zip(pvalues, got), 1):
            # clears[i, k]: row[i] < min(1, value(t) * (k + 1)), the engine's comparison
            clears = row[:, None] < np.minimum(1.0, sequence.value(t) * counts)
            # the smallest clearing count, or any count past the last step
            first = np.where(clears.any(axis=1), clears.argmax(axis=1), steps + 1)
            assert np.array_equal(np.minimum(clearances, steps + 1), first)


@pytest.mark.parametrize("method", METHODS)
def test_unit_and_zero_pvalues(method):
    for partitions in partition_counts(method):
        rng = np.random.default_rng(5)
        pvalues = rng.integers(0, 2, size=(30, 50)).astype(float)
        groups = partitioned(
            partitions,
            rng.integers(1, 6, size=(30, 50)),
            rng.integers(0, 10, size=(30, 50)),
        )
        got = assert_matches_replay(method, pvalues, groups)
        # a unit p-value clears no threshold
        assert not got[pvalues == 1.0].any()


@pytest.mark.parametrize("method", ["GAI", "ml-GAI"])
def test_investing_halt_in_mid_stream(method):
    # three rejections earn wealth, unit p-values spend it, and the zeros
    # after the halt are neither tested nor rejected
    row = [0.0] * 3 + [1.0] * 10 + [0.0] * 5
    pvalues = np.array([row, [0.5] * len(row)])
    for partitions in partition_counts(method):
        # the second partition pairs up the first's groups in row 0
        first = np.array([list(range(1, 19)), [1] * 18])
        groups = partitioned(partitions, first, first // 2)
        got = assert_matches_replay(method, pvalues, groups)
        assert got[0, :3].all()
        assert not got[0, 3:].any()
        assert not got[1].any()


@pytest.mark.parametrize("method", ["GAI", "ml-GAI"])
def test_wealth_of_exactly_zero_halts(method):
    # alpha 0.5 makes the spend exactly 1 and eta 2 the starting wealth 1,
    # so one miss leaves a wealth of exactly 0: the stream halts there
    pvalues = np.array([[0.9, 0.0, 0.0]])
    groups = np.array([[1, 2, 3]]) if grouped(method) else None
    got = assert_matches_replay(method, pvalues, groups, alpha=0.5, eta=2.0)
    assert not got.any()


def test_investing_rows_halt_at_different_steps():
    rng = np.random.default_rng(9)
    pvalues = rng.random((25, 80)) ** 4
    pvalues[:, 40:] = 1.0
    for method in ("GAI", "ml-GAI"):
        groups = rng.integers(1, 8, size=pvalues.shape) if grouped(method) else None
        assert_matches_replay(method, pvalues, groups)
    groups = np.stack([rng.integers(1, 8, size=pvalues.shape)] * 2, axis=-1)
    groups[..., 1] //= 2
    assert_matches_replay("ml-GAI", pvalues, groups)


@pytest.mark.parametrize("method", ["ml-LOND", "ml-LOND_m", "ml-LORD", "ml-GAI"])
def test_arrivals_into_rejected_groups(method):
    # few groups and small p-values: groups are decided early and keep
    # receiving arrivals, which collapse into their one test
    for partitions in partition_counts(method):
        rng = np.random.default_rng(23)
        pvalues = rng.random((20, 120)) ** 6
        groups = partitioned(
            partitions,
            rng.integers(1, 4, size=(20, 120)),
            rng.integers(0, 20, size=(20, 120)),
        )
        assert_matches_replay(method, pvalues, groups)
        ids = np.atleast_3d(groups)[0]
        procedure = make_procedure(method, 1 + partitions, ALPHA)
        records = replay(
            procedure,
            [
                HypothesisEvent(t=t, p=float(p), group_index=(t, *map(int, g)))
                for t, (p, g) in enumerate(zip(pvalues[0], ids), 1)
            ],
        )
        for layer in range(1, 1 + partitions):
            assert any(not record.layers[layer].tested for record in records)


def test_lond_m_indexes_by_effective_tests():
    # group 1 is decided at t=1 and its next three arrivals are individual
    # discoveries only, so at t=5 the group layer has performed 2 tests:
    # individual threshold beta(5) * 5 ~ 0.0122, group threshold
    # beta(2) * 2 ~ 0.0304 for ml-LOND_m but beta(5) * 2 ~ 0.0049 for ml-LOND
    pvalues = np.array([[0.0, 0.0, 0.0, 0.0, 0.01]])
    groups = np.array([[1, 1, 1, 1, 2]])
    modified = assert_matches_replay("ml-LOND_m", pvalues, groups)
    plain = assert_matches_replay("ml-LOND", pvalues, groups)
    assert modified[0].tolist() == [True] * 5
    assert plain[0].tolist() == [True] * 4 + [False]
    # a second partition that binds: its group 0 takes the first ten
    # discoveries, so at t=100 it has performed 91 tests with one discovery,
    # threshold beta(91) * 2 ~ 1.5e-5, below the individual and first
    # partition's beta(100) * 11 ~ 6.7e-5
    pvalues = np.array([[0.0] * 10 + [0.5] * 89 + [3e-5]])
    first = np.arange(1, 101)[None]
    second = np.where(first <= 10, 0, first)
    alone = assert_matches_replay("ml-LOND_m", pvalues, first)
    both = assert_matches_replay("ml-LOND_m", pvalues, np.stack([first, second], -1))
    assert alone[0, -1] and not both[0, -1]


@pytest.mark.parametrize("method", ["ml-LOND", "ml-LOND_m", "ml-LORD", "ml-GAI"])
def test_sparse_group_ids_keep_the_tables_small(method):
    # the tables follow the arrivals, not the largest id
    for partitions in partition_counts(method):
        # the second partition's ids stay below N, so only the first is renumbered
        pvalues = np.array([[0.001, 0.5, 0.002, 0.01], [0.3, 0.0001, 0.02, 0.003]])
        first = np.array([[10**7, 3, 10**7, 5], [0, 10**7, 2, 10**7 - 1]])
        groups = partitioned(partitions, first, np.array([[0, 1, 1, 0], [2, 2, 1, 1]]))
        tracemalloc.start()
        try:
            lockstep_rejections(method, pvalues, groups, ALPHA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert_matches_replay(method, pvalues, groups)
        # ids shared across rows and repeated within them, up to 2**62
        rng = np.random.default_rng(31)
        pvalues = rng.random((6, 50)) ** 4
        groups = partitioned(
            partitions,
            rng.choice(np.array([0, 7, 10**7, 2**40, 2**62]), size=(6, 50)),
            rng.integers(0, 20, size=(6, 50)),
        )
        assert_matches_replay(method, pvalues, groups, eta=5.0)


def test_empty_and_validation():
    assert lockstep_rejections("LORD", np.zeros((0, 5)), None, ALPHA).shape == (0, 5)
    with pytest.raises(ValueError, match="unknown method"):
        lockstep_rejections("BH", np.zeros((1, 3)), None, ALPHA)
    with pytest.raises(ValueError, match="shape"):
        lockstep_rejections("ml-LORD", np.zeros((2, 3)), np.ones((2, 4), dtype=int), ALPHA)
    with pytest.raises(ValueError, match="shape"):
        lockstep_rejections("ml-LORD", np.zeros((2, 3)), np.ones((2, 4, 2), dtype=int), ALPHA)
    with pytest.raises(ValueError, match="non-negative"):
        lockstep_rejections("ml-LORD", np.zeros((1, 2)), np.array([[1, -1]]), ALPHA)
    with pytest.raises(ValueError, match=r"shape \(4,\), not \(R, N\)"):
        lockstep_rejections("LORD", np.zeros(4), None, ALPHA)
    # truncating would merge 1.2 and 1.7 into one group, unlike replay
    pvalues = np.array([[0.001, 0.001, 0.02]])
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        lockstep_rejections("ml-LOND", pvalues, np.array([[1.2, 1.7, 2.0]]), ALPHA)
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        lockstep_rejections("ml-LOND", pvalues, np.array([[1.0, math.nan, 2.0]]), ALPHA)
    huge = np.array([[1, 2**63, 3]], dtype=np.uint64)
    with pytest.raises(ValueError, match="must fit in int64, got 9223372036854775808"):
        lockstep_rejections("ml-LOND", pvalues, huge, ALPHA)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [math.nan, 2.0, -1.0, -math.inf])
def test_pvalues_outside_the_unit_interval_raise(method, bad):
    pvalues = np.array([[0.5, 0.0, 1.0, 0.2], [0.3, 0.0, 0.9, 0.1]])
    pvalues[1, 2] = bad
    with pytest.raises(ValueError, match=rf"p-value outside \[0, 1\]: {bad}"):
        lockstep_rejections(method, pvalues, np.zeros((2, 4), dtype=int), ALPHA)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("eta", [math.nan, 0.0, -1.0, math.inf])
def test_eta_must_be_positive_and_finite(method, eta):
    # the engine's check: with eta = nan the wealth is NaN and never halts
    pvalues = np.random.default_rng(0).random((1, 200)) ** 3
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        lockstep_rejections(method, pvalues, None, ALPHA, eta)


def test_stacked_cell_tallies_equal_run_replicate_tallies():
    # one (method, beta) cell as run_sweep decides and tallies it
    spec = standard_scenarios()["unbalanced-fixed-constant"]
    for method in METHODS:
        seeds = [replicate_seed(41, method, 1.5, r) for r in range(6)]
        data = make_streams(replace(spec, beta=1.5), seeds)
        groups = data.groups if grouped(method) else None
        rejected = lockstep_rejections(method, data.pvalues, groups, spec.alpha, spec.eta)
        per_layer = stream_tallies(data, rejected)
        for r, seed in enumerate(seeds):
            run = run_replicate(replace(spec, beta=1.5), method, seed)
            for name in LAYER_NAMES:
                assert tuple(per_layer[name][r].tolist()) == run.tallies[name]


def test_small_sweep_emits_the_step_engine_bytes(tmp_path):
    scenario = standard_scenarios()["interleaved-markov-constant"]
    sweep = SweepSpec(
        scenario=scenario,
        beta_grid=(1.0, 3.0),
        methods=METHODS,
        replicates=5,
        master_seed=17,
    )
    emit_results(run_sweep(sweep), tmp_path / "lockstep")

    rows = []
    for method in METHODS:
        for beta in sweep.beta_grid:
            runs = [
                run_replicate(
                    replace(scenario, beta=beta),
                    method,
                    replicate_seed(sweep.master_seed, method, beta, r),
                )
                for r in range(sweep.replicates)
            ]
            for name in LAYER_NAMES:
                rows.append(
                    aggregate(
                        [run.tallies[name] for run in runs],
                        scenario.eta,
                        method=method,
                        beta=beta,
                        layer=name,
                    )
                )
    paths = emit_results(rows, tmp_path / "reference")
    for path in paths:
        assert (tmp_path / "lockstep" / path.name).read_bytes() == path.read_bytes()
