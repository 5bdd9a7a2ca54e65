import math

import numpy as np
import pytest

from layerfdr.core import HypothesisEvent
from layerfdr.oracle import (
    balance_trajectories,
    kappa_direct,
    kappa_direct_trajectory,
    per_discovery_fdp,
    single_layer_gai_reference,
    single_layer_lond_reference,
    single_layer_lord_reference,
    submartingale_probe,
)
from layerfdr.procedures import AlphaInvesting, make_procedure, replay
from layerfdr.simgen import ScenarioSpec

ALPHA = 0.1
PHI = ALPHA / (1.0 - ALPHA)
BETA_1 = 0.6 / math.pi ** 2


def event(t, p, groups, truth=None):
    return HypothesisEvent(t=t, p=p, group_index=tuple(groups), truth=truth)


class TestReferences:
    def test_lond_reference_walkthrough(self):
        decisions, thresholds = single_layer_lond_reference([0.01, 0.9], ALPHA)
        assert decisions == [1, 0]
        assert thresholds == pytest.approx([0.0607927, 0.0303964], abs=1e-7)

    def test_gai_reference_all_ones(self):
        decisions, tested = single_layer_gai_reference([1.0] * 4, ALPHA)
        assert decisions == [0, 0, 0, 0]
        assert tested == 1  # 0.1 - 0.111111 < 0 after the first charge

    def test_lord_reference_walkthrough(self):
        decisions, thresholds = single_layer_lord_reference([0.5, 0.5, 0.001], ALPHA)
        assert decisions == [0, 0, 1]
        assert thresholds == pytest.approx(
            [0.0607927, 0.0151982, 0.0067547], abs=1e-7
        )

    @pytest.mark.parametrize("method", ["GAI", "LOND", "LORD"])
    def test_engine_matches_reference_on_random_streams(self, method):
        rng = np.random.default_rng(606)
        for trial in range(25):
            pvalues = (rng.random(120) ** 3).tolist()
            procedure = make_procedure(method, 1, ALPHA)
            records = procedure.run_pvalues(pvalues)
            engine_decisions = [int(r.rejected) for r in records]
            if method == "GAI":
                ref_decisions, ref_tested = single_layer_gai_reference(pvalues, ALPHA)
                assert sum(r.layers[0].tested for r in records) == ref_tested
            elif method == "LOND":
                ref_decisions, _ = single_layer_lond_reference(pvalues, ALPHA)
            else:
                ref_decisions, _ = single_layer_lord_reference(pvalues, ALPHA)
            assert engine_decisions == ref_decisions


class TestKappaDirect:
    def run_groups(self, groups, pvalues):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        events = [event(i + 1, p, (g,)) for i, (g, p) in enumerate(zip(groups, pvalues))]
        return replay(proc, events), proc

    def test_single_group_collapses_after_rejection(self):
        records, _ = self.run_groups([7, 7, 7], [0.5, 0.5, 1e-5])
        assert records[2].rejected
        assert kappa_direct(records, 0, 3) == 1

    def test_interleaved_groups(self):
        # a fails at 1, b rejected at 2, a fails again at 3
        records, _ = self.run_groups([1, 2, 1], [0.5, 1e-5, 0.5])
        assert [r.rejected for r in records] == [False, True, False]
        assert kappa_direct(records, 0, 3) == 3

    def test_without_rejections_kappa_is_time(self):
        records, _ = self.run_groups([1, 2, 3, 1], [0.9] * 4)
        for i in range(1, 5):
            assert kappa_direct(records, 0, i) == i

    def test_out_of_range_time(self):
        records, _ = self.run_groups([1], [0.9])
        with pytest.raises(IndexError):
            kappa_direct(records, 0, 2)
        with pytest.raises(IndexError):
            kappa_direct(records, 0, 0)

    def test_trajectory_equals_pointwise(self):
        rng = np.random.default_rng(17)
        groups = rng.integers(1, 6, size=80).tolist()
        pvalues = (rng.random(80) ** 3).tolist()
        records, _ = self.run_groups(groups, pvalues)
        trajectory = kappa_direct_trajectory(records, 0)
        pointwise = [kappa_direct(records, 0, i) for i in range(1, 81)]
        assert trajectory.tolist() == pointwise

    def test_maintained_state_matches_direct_formula(self):
        rng = np.random.default_rng(18)
        groups = rng.integers(1, 5, size=60).tolist()
        pvalues = (rng.random(60) ** 3).tolist()
        proc = make_procedure("ml-LOND_m", 2, ALPHA)
        events = [
            event(i + 1, p, (i + 1, g))
            for i, (g, p) in enumerate(zip(groups, pvalues))
        ]
        records = replay(proc, events)
        for m in range(2):
            trajectory = kappa_direct_trajectory(records, m)
            maintained = [r.layers[m].effective_tests for r in records]
            assert trajectory.tolist() == maintained


class TestPerDiscoveryFdp:
    def test_empty_without_discoveries(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        records = replay(proc, [event(1, 0.9, (1,))])
        assert per_discovery_fdp(records, [0], 0) == []

    def test_first_true_discovery_is_clean(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        records = replay(proc, [event(1, 1e-6, (1,))])
        assert per_discovery_fdp(records, [1], 0) == [0.0]

    def test_true_then_false(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        records = replay(
            proc, [event(1, 1e-6, (1,)), event(2, 1e-6, (2,))]
        )
        assert [r.rejected for r in records] == [True, True]
        assert per_discovery_fdp(records, [1, 0], 0) == [0.0, 0.5]

    def test_late_truth_retroactively_cleans_a_discovery(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        records = replay(
            proc,
            [event(1, 1e-6, (5,)), event(2, 1e-7, (5,)), event(3, 1e-7, (6,))],
        )
        # group 5 discovered while null; its true member arrives at t=2
        assert per_discovery_fdp(records, [0, 1, 1], 0) == [1.0, 0.0]


class TestBalanceTrajectories:
    def test_deterministic_all_ones_stream_grows_by_the_spend(self):
        events = [event(i, 1.0, (i,)) for i in range(1, 6)]
        proc = AlphaInvesting(1, ALPHA, 1.0)
        records = replay(proc, [e for e in events])
        labeled = [
            HypothesisEvent(t=e.t, p=e.p, group_index=e.group_index, truth=0)
            for e in events
        ]
        paths = balance_trajectories(labeled, records, ALPHA, 1.0)
        assert paths[0, 0] == 0.0
        assert paths[0, 1] == pytest.approx(PHI, abs=1e-12)
        # frozen after the halt at step one
        assert paths[0, 1:].tolist() == pytest.approx([PHI] * 5, abs=1e-12)

    def test_probe_starts_at_zero_exactly(self):
        scenario = ScenarioSpec(s=0.0, seed=5)
        means, ses = submartingale_probe(scenario, n_rep=50, seed=21)
        assert means.shape == (2, 201)
        assert means[0, 0] == 0.0 and means[1, 0] == 0.0
        assert ses[0, 0] == 0.0

    def test_probe_is_deterministic(self):
        scenario = ScenarioSpec(s=0.0, seed=5)
        a = submartingale_probe(scenario, n_rep=20, seed=3)
        b = submartingale_probe(scenario, n_rep=20, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
