import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfdr.core import HypothesisEvent
from layerfdr.metrics import (
    AggregateResult,
    LayerTally,
    _bootstrap_ratio_se,
    aggregate,
    prefix_tallies,
)
from layerfdr.procedures import make_procedure, replay


def tally_from_sets(selected: set[int], true_groups: set[int]) -> LayerTally:
    """Tally a selection set against the set of true groups seen: the
    reference, in Python sets, that both numpy tally routes are held to."""
    hits = len(selected & true_groups)
    return LayerTally(
        false_discoveries=len(selected) - hits,
        true_discoveries=hits,
        true_groups=len(true_groups),
    )


def event(t, p, groups):
    return HypothesisEvent(t=t, p=p, group_index=tuple(groups))


class TestLayerTally:
    def test_is_a_bare_named_row(self):
        assert issubclass(LayerTally, tuple)
        assert LayerTally._fields == ("false_discoveries", "true_discoveries", "true_groups")
        assert LayerTally(1, 2, 3) == (1, 2, 3)
        assert not hasattr(LayerTally(1, 2, 3), "__dict__")

    def test_no_rejections_gives_zero_fdp(self):
        row = aggregate([LayerTally(0, 0, 3)], eta=1.0)
        assert row.fdr == 0.0
        assert row.power == 0.0

    def test_one_false_among_four(self):
        tally = tally_from_sets({1, 2, 3, 4}, {2, 3, 4, 5})
        assert tally == LayerTally(1, 3, 4)
        assert aggregate([tally], eta=1.0).fdr == 0.25

    def test_all_null_rejections_have_unit_fdp(self):
        tally = tally_from_sets({1, 2}, set())
        assert aggregate([tally], eta=1.0).fdr == 1.0

    def test_counts_validated(self):
        over = r"true discoveries \(3\) cannot exceed true groups seen \(2\)"
        with pytest.raises(ValueError, match=over):
            aggregate([LayerTally(0, 3, 2)], eta=1.0)
        with pytest.raises(ValueError, match="tally counts must be non-negative"):
            aggregate([LayerTally(-1, 0, 0)], eta=1.0)

    @pytest.mark.parametrize(
        "tally", [LayerTally(float("nan"), 0, 0), LayerTally(0.5, 0.25, 1), LayerTally(1.0, 0, 1)]
    )
    def test_counts_must_be_integers(self, tally):
        # a NaN or fractional count used to reach the CSVs as fdr = nan or 0.5
        with pytest.raises(ValueError, match="tally counts must be integers, got float64"):
            aggregate([tally], eta=1.0)
        with pytest.raises(ValueError, match="tally counts must be integers"):
            aggregate(np.array([tally]), eta=1.0)

    @pytest.mark.parametrize(
        "tallies", [LayerTally(0, 0, 1), [[0, 0]], [[0, 0, 1, 1]], np.zeros((2, 3, 1), dtype=int)]
    )
    def test_rows_must_hold_three_counts(self, tallies):
        with pytest.raises(ValueError, match=r"tallies must be rows of \(V, TD, T\) counts"):
            aggregate(tallies, eta=1.0)


class TestAggregate:
    def test_single_perfect_replicate(self):
        tally = LayerTally(0, 5, 5)
        row = aggregate([tally], eta=1.0, method="ml-LORD", beta=2.0, layer="group")
        assert row.fdr == 0.0
        assert row.mfdr == 0.0
        assert row.power == 1.0
        assert row.fdr_se == row.power_se == row.mfdr_se == 0.0
        assert row.replicates == 1

    def test_fdr_is_mean_of_fdps(self):
        replicates = [LayerTally(0, 4, 4), LayerTally(2, 2, 4)]
        row = aggregate(replicates, eta=1.0)
        assert row.fdr == pytest.approx(0.25)

    def test_mfdr_is_ratio_of_means(self):
        replicates = [LayerTally(1, 1, 2), LayerTally(0, 0, 2)]
        row = aggregate(replicates, eta=1.0)
        assert row.mfdr == pytest.approx(0.5 / (1.0 + 1.0))

    def test_requires_replicates(self):
        for empty in ([], np.zeros((0, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match="at least one replicate is required"):
                aggregate(empty, eta=1.0)

    def test_rows_of_tallies_and_an_array_agree(self):
        rng = np.random.default_rng(5)
        true_groups = rng.integers(0, 9, 50)
        counts = np.column_stack(
            [rng.integers(0, 6, 50), rng.integers(0, true_groups + 1), true_groups]
        )
        tallies = [LayerTally(*row) for row in counts.tolist()]
        for eta in (1.0, 0.25):
            assert aggregate(tallies, eta, layer="group") == aggregate(counts, eta, layer="group")

    def test_requires_positive_eta(self):
        with pytest.raises(ValueError):
            aggregate([LayerTally(0, 0, 0)], eta=0.0)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_requires_finite_eta(self, eta):
        with pytest.raises(ValueError, match="finite"):
            aggregate([LayerTally(0, 0, 0)], eta=eta)

    def test_bootstrap_counts_are_shared_read_only(self):
        from layerfdr.metrics import _bootstrap_counts

        counts = _bootstrap_counts(7)
        assert counts is _bootstrap_counts(7)
        assert not counts.flags.writeable
        idx = np.random.default_rng(0).integers(0, 7, size=(1000, 7))
        assert np.array_equal(counts, [np.bincount(row, minlength=7) for row in idx])

    def test_bootstrap_cache_keeps_one_replicate_count(self):
        from layerfdr.metrics import _bootstrap_counts

        aggregate([LayerTally(1, 1, 2)] * 3, eta=1.0)
        aggregate([LayerTally(1, 1, 2)] * 5, eta=1.0)
        assert _bootstrap_counts.cache_info().currsize == 1

    def test_bootstrap_se_equals_the_gathered_resamples(self):
        from layerfdr.metrics import _bootstrap_ratio_se

        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(2, 150))
            v = rng.integers(0, 40, n).astype(float)
            r = v + rng.integers(0, 200, n)
            eta = (1.0, 0.25, 7.5)[trial % 3]
            idx = np.random.default_rng(0).integers(0, n, size=(1000, n))
            want = (v[idx].mean(axis=1) / (r[idx].mean(axis=1) + eta)).std(ddof=1)
            assert _bootstrap_ratio_se(v, r, eta) == float(want)

    def test_estimates_stay_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            tallies = []
            for _ in range(12):
                t = int(rng.integers(0, 6))
                td = int(rng.integers(0, t + 1))
                v = int(rng.integers(0, 5))
                tallies.append(LayerTally(v, td, t))
            row = aggregate(tallies, eta=1.0)
            assert 0.0 <= row.fdr <= 1.0
            assert 0.0 <= row.mfdr <= 1.0
            assert 0.0 <= row.power <= 1.0

    def test_single_run_ratio_ordering(self):
        # with eta = 1 the per-run mFDR-style ratio never exceeds the FDP
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = int(rng.integers(1, 6))
            td = int(rng.integers(0, t + 1))
            v = int(rng.integers(0, 5))
            row = aggregate([LayerTally(v, td, t)], eta=1.0)
            assert row.mfdr == v / (v + td + 1)
            assert row.fdr >= row.mfdr

    def test_bootstrap_se_is_deterministic(self):
        replicates = [LayerTally(1, 1, 2), LayerTally(0, 2, 2), LayerTally(2, 0, 2)]
        a = aggregate(replicates, eta=1.0)
        b = aggregate(replicates, eta=1.0)
        assert a.mfdr_se == b.mfdr_se
        assert a.mfdr_se > 0.0


@st.composite
def layer_tallies(draw, top):
    """A valid LayerTally with counts up to ``top``."""
    true_groups = draw(st.integers(0, top))
    return LayerTally(draw(st.integers(0, top)), draw(st.integers(0, true_groups)), true_groups)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    # at 2**52 a count and V + TD are still exact as floats
    tallies=st.sampled_from([5, 300, 2**52]).flatmap(
        lambda top: st.lists(layer_tallies(top), min_size=1, max_size=40)
    ),
    eta=st.sampled_from([1.0, 0.25, 7.5]),
)
def test_aggregate_equals_the_per_tally_reference(tallies, eta):
    # the per-run ratios in Python ints, one row at a time
    fdps = np.array([v / max(v + td, 1) for v, td, _ in tallies])
    powers = np.array([td / max(t, 1) for _, td, t in tallies])
    v = np.array([t.false_discoveries for t in tallies], dtype=float)
    r = np.array([t.false_discoveries + t.true_discoveries for t in tallies], dtype=float)

    def se(values):
        return float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0

    expected = AggregateResult(
        method="ml-LORD",
        beta=2.0,
        layer="group",
        fdr=float(fdps.mean()),
        fdr_se=se(fdps),
        mfdr=float(v.mean() / (r.mean() + eta)),
        mfdr_se=_bootstrap_ratio_se(v, r, eta),
        power=float(powers.mean()),
        power_se=se(powers),
        replicates=len(tallies),
    )
    got = aggregate(tallies, eta, method="ml-LORD", beta=2.0, layer="group")
    # repr tells 0.0 from -0.0 and prints each double exactly enough to round-trip
    assert repr(got) == repr(expected)


def layer_prefix_tallies(records, truths, m):
    """``prefix_tallies`` of layer m of a decision log, one ``LayerTally`` per prefix."""
    ids = [record.group_index[m] for record in records]
    counts = prefix_tallies(ids, truths, [record.rejected for record in records])
    return [LayerTally(*prefix) for prefix in counts.tolist()]


def test_prefix_tallies_match_recomputation_on_random_streams():
    rng = np.random.default_rng(44)
    for trial in range(6):
        events, truths = [], []
        for i in range(150):
            gids = (i + 1, int(rng.integers(1, 7)))
            events.append(event(i + 1, float(rng.random() ** 3), gids))
            truths.append(int(rng.random() < 0.3))
        proc = make_procedure("ml-LOND", 2, 0.1)
        records = replay(proc, events)
        for m in range(2):
            per_prefix = layer_prefix_tallies(records, truths, m)
            assert len(per_prefix) == len(records)
            for prefix_end, tally in enumerate(per_prefix, start=1):
                selected = {
                    e.group_index[m]
                    for e, r in zip(events[:prefix_end], records)
                    if r.rejected
                }
                true_groups = {
                    e.group_index[m]
                    for e, label in zip(events[:prefix_end], truths)
                    if label == 1
                }
                assert tally == tally_from_sets(selected, true_groups)


def test_prefix_tallies_require_truth_labels():
    for truth in (None, 2, -1, 0.5):
        with pytest.raises(ValueError, match="truth label must be 0 or 1"):
            prefix_tallies([5], [truth], [True])
    assert prefix_tallies([], [], []).shape == (0, 3)


def test_prefix_tallies_require_one_label_and_decision_per_arrival():
    with pytest.raises(ValueError, match="one truth label and decision per arrival"):
        prefix_tallies([5, 5, 6], [1], [True, True, True])
    with pytest.raises(ValueError, match="one truth label and decision per arrival"):
        prefix_tallies([5, 5, 6], [1, 0, 0], [True])


def test_prefix_tallies_reclassify_groups_that_become_true():
    # group 5 is discovered while null, then a true member arrives
    events = [
        event(1, 1e-9, (1, 5)),
        event(2, 0.9, (2, 5)),
    ]
    proc = make_procedure("ml-LOND", 2, 0.1)
    records = replay(proc, events)
    before, after = layer_prefix_tallies(records, [0, 1], 1)
    assert before.false_discoveries == 1
    assert after.false_discoveries == 0
    assert after.true_discoveries == 1
    assert after.true_groups == 1
