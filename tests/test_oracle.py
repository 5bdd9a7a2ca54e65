import math

import numpy as np
import pytest

from layerfdr.core import HypothesisEvent
from layerfdr.oracle import (
    balance_trajectories,
    kappa_direct,
    kappa_direct_trajectory,
    multilayer_reference,
    per_discovery_fdp,
    single_layer_gai_reference,
    single_layer_lond_reference,
    single_layer_lord_reference,
    submartingale_probe,
)
from layerfdr.procedures import (
    METHODS,
    BetaSequence,
    SpendingPolicy,
    lockstep_rejections,
    make_procedure,
    replay,
    simple_choice,
)
from layerfdr.simgen import ScenarioSpec
from test_procedures import GeometricLevels

ALPHA = 0.1
PHI = ALPHA / (1.0 - ALPHA)
BETA_1 = 0.6 / math.pi ** 2


def event(t, p, groups):
    return HypothesisEvent(t=t, p=p, group_index=tuple(groups))


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

    def test_one_truth_label_per_record_is_required(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        records = replay(proc, [event(t, 1e-9, (t,)) for t in (1, 2, 3)])
        assert all(r.rejected for r in records)
        for truths in ([1], [1, 0, 0, 1]):
            with pytest.raises(ValueError, match="one truth label and decision per arrival"):
                per_discovery_fdp(records, truths, 0)


class TestBalanceTrajectories:
    def test_deterministic_all_ones_stream_grows_by_the_spend(self):
        events = [event(i, 1.0, (i,)) for i in range(1, 6)]
        proc = make_procedure("ml-GAI", 1, ALPHA, 1.0)
        records = replay(proc, events)
        paths = balance_trajectories(records, [0] * len(records), ALPHA, 1.0)
        assert paths[0, 0] == 0.0
        assert paths[0, 1] == pytest.approx(PHI, abs=1e-12)
        # frozen after the halt at step one
        assert paths[0, 1:].tolist() == pytest.approx([PHI] * 5, abs=1e-12)

    def test_an_empty_run_has_the_empty_path(self):
        paths = balance_trajectories([], [], ALPHA, 1.0)
        assert paths.shape == (0, 1)

    def test_one_truth_label_per_record_is_required(self):
        proc = make_procedure("ml-GAI", 1, ALPHA, 1.0)
        three = replay(proc, [event(t, 1e-9, (t,)) for t in (1, 2, 3)])
        for records, truths in ((three, [0]), ([], [0, 1])):
            with pytest.raises(ValueError, match="one truth label and decision per arrival"):
                balance_trajectories(records, truths, ALPHA, 1.0)

    def test_probe_requires_an_integer_replicate_count(self):
        for n_rep in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="n_rep must be an integer"):
                submartingale_probe(ScenarioSpec(s=0.0), n_rep=n_rep, seed=1)

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


# p-values the thresholds take at the start of a stream, plus 0, 1 and alpha,
# so that ties with an issued threshold are common
TIE_POOL = [0.0, 1.0, ALPHA] + [
    min(1.0, BetaSequence(ALPHA).value(j) * k) for j in range(1, 41) for k in (1, 2, 3)
]


def random_stream(rng, layers, n, individual):
    """n events in ``layers`` layers with small group ids, so groups repeat and
    get decided; with ``individual`` layer 0's id is the arrival index."""
    events = []
    for t in range(1, n + 1):
        p = float(rng.choice(TIE_POOL)) if rng.random() < 0.5 else float(rng.random() ** 3)
        ids = [int(rng.integers(0, 2 + 3 * m)) for m in range(layers)]
        if individual:
            ids[0] = t
        events.append(event(t, p, ids))
    return events


def ties(records, events):
    return sum(
        any(out.threshold == ev.p for out in record.layers if out.tested)
        for record, ev in zip(records, events)
    )


class TestMultilayerReference:
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_replay_on_random_grouped_streams(self, method):
        rng = np.random.default_rng(METHODS.index(method))
        tied = halted = 0
        for layers in (1, 2, 3, 4):
            for untested in ("literal", "accept"):
                for eta in (1.0, 10.0):
                    for trial in range(2):
                        events = random_stream(rng, layers, 30, individual=trial == 0)
                        want = multilayer_reference(method, events, ALPHA, eta, untested=untested)
                        procedure = make_procedure(method, layers, ALPHA, eta, untested=untested)
                        assert replay(procedure, events) == want
                        tied += ties(want, events)
                        halted += want[-1].halted
        assert tied
        assert (halted > 0) == method.endswith("GAI")

    @pytest.mark.parametrize("method", ["LOND", "ml-LOND_m", "ml-LORD"])
    def test_per_layer_level_sequences(self, method):
        sequences = [
            BetaSequence(ALPHA),
            GeometricLevels(0.05, ratio=0.7),
            BetaSequence(0.3),
        ]
        rng = np.random.default_rng(3)
        for trial in range(4):
            events = random_stream(rng, 3, 40, individual=trial % 2 == 0)
            procedure = make_procedure(method, 3, ALPHA, schedules=sequences)
            want = multilayer_reference(method, events, ALPHA, schedules=sequences)
            assert replay(procedure, events) == want

    @pytest.mark.parametrize(
        "method, schedules, message",
        [
            ("LORD", [simple_choice(ALPHA)], "layer 0 schedule must be a level sequence"),
            ("ml-LOND_m", [None, simple_choice(ALPHA)], "layer 1 schedule must be a level"),
            ("ml-GAI", [BetaSequence(ALPHA), None], "layer 0 schedule must be a SpendingPolicy"),
            ("ml-LORD", ["Tripwire"], "one schedule per layer is required, got 1"),
            ("ml-GAI", [None, None, None], "one schedule per layer is required, got 3"),
        ],
    )
    def test_schedules_are_checked_before_the_first_step(self, method, schedules, message):
        class Tripwire:
            """A level sequence that fails the test if any step reads it."""

            def value(self, j):
                raise AssertionError("a step ran before the schedules were checked")

        schedules = [Tripwire() if entry == "Tripwire" else entry for entry in schedules]
        layers = 1 if method == "LORD" else 2
        events = [event(1, 0.5, (1, 1)[:layers])]
        with pytest.raises(ValueError, match=message):
            multilayer_reference(method, events, ALPHA, schedules=schedules)
        # the engine refuses the same list with the same message
        with pytest.raises(ValueError, match=message):
            make_procedure(method, layers, ALPHA, schedules=schedules)

    @pytest.mark.parametrize(
        "method, alpha, eta, untested, message",
        [
            ("ml-LOND", -0.1, 1.0, "literal", "alpha must lie in"),
            ("LOND", math.nan, 1.0, "literal", "alpha must lie in"),
            ("ml-LORD", 0.0, 1.0, "literal", "alpha must lie in"),
            ("LORD", 1.5, 1.0, "literal", "alpha must lie in"),
            ("ml-LOND_m", 1.0, 1.0, "literal", "alpha must lie in"),
            ("ml-GAI", ALPHA, -1.0, "literal", "eta must be positive"),
            ("ml-LOND", ALPHA, math.inf, "literal", "eta must be positive"),
            ("bogus", ALPHA, 1.0, "literal", "unknown method name"),
            ("LOND_m", ALPHA, 1.0, "literal", "unknown method name"),
            ("ml-LORD", ALPHA, 1.0, "nonsense", "unknown untested-hypothesis mode"),
        ],
    )
    def test_the_engine_the_kernel_and_the_reference_refuse_alike(
        self, method, alpha, eta, untested, message
    ):
        pvalues = np.array([[0.001, 0.5, 0.001]])
        events = [event(t, float(p), (t, 1)) for t, p in enumerate(pvalues[0], 1)]
        with pytest.raises(ValueError, match=message):
            make_procedure(method, 2, alpha, eta, untested=untested)
        with pytest.raises(ValueError, match=message):
            multilayer_reference(method, events, alpha, eta, untested=untested)
        if untested == "literal":  # the kernel has no untested mode
            groups = np.ones(pvalues.shape, dtype=np.int64)
            with pytest.raises(ValueError, match=message):
                lockstep_rejections(method, pvalues, groups, alpha, eta)

    @pytest.mark.parametrize("method", ["ml-LOND", "ml-LOND_m", "ml-LORD"])
    @pytest.mark.parametrize("level", [math.nan, -0.1, 1.5])
    def test_a_level_outside_the_unit_interval_raises_as_in_the_engine(self, method, level):
        class ConstantLevels:
            def value(self, j):
                return level

        schedules = [None, ConstantLevels()]
        message = r"level sequence value outside \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            multilayer_reference(method, [event(1, 0.9, (1, 1))], ALPHA, schedules=schedules)
        with pytest.raises(ValueError, match=message):
            make_procedure(method, 2, ALPHA, schedules=schedules).step(event(1, 0.9, (1, 1)))

    @pytest.mark.parametrize("method, layers", [("GAI", 1), ("ml-GAI", 2)])
    @pytest.mark.parametrize(
        "rule, bad, message",
        [
            ("alpha_level", 1.5, r"significance level outside \(0, 1\]: 1.5"),
            ("alpha_level", 0.0, r"significance level outside \(0, 1\]: 0.0"),
            ("alpha_level", math.nan, r"significance level outside \(0, 1\]: nan"),
            ("spend", math.nan, "non-finite spend or reward at t=3: nan"),
            ("spend", -math.inf, "non-finite spend or reward at t=3: -inf"),
            ("reward", math.inf, "non-finite spend or reward at t=3: .*, inf"),
        ],
    )
    def test_a_bad_gai_policy_raises_as_in_the_engine(self, method, layers, rule, bad, message):
        # the policy turns bad at t = 3 in the last layer; both raise there, and no sooner
        good = {"alpha_level": ALPHA, "spend": PHI, "reward": PHI + ALPHA, "power_bound": 1.0}
        rules = {
            name: (lambda t, s, v=v, name=name: bad if name == rule and t >= 3 else v)
            for name, v in good.items()
        }
        schedules = [None] * (layers - 1) + [SpendingPolicy(**rules)]
        events = [event(t, 0.001, (t,) * layers) for t in range(1, 4)]
        assert len(multilayer_reference(method, events[:2], ALPHA, 5.0, schedules=schedules)) == 2
        with pytest.raises(ValueError, match=message):
            multilayer_reference(method, events, ALPHA, 5.0, schedules=schedules)
        procedure = make_procedure(method, layers, ALPHA, 5.0, schedules=schedules)
        replay(procedure, events[:2])
        with pytest.raises(ValueError, match=message):
            procedure.step(events[2])
        assert procedure.t == 2

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("second", [(2, 3, 4), (2,)])
    def test_an_event_with_another_layer_count_raises_as_in_the_engine(self, method, second):
        # the first event sets the layer count, and the second is refused at its step
        events = [event(1, 0.5, (1, 2)), event(2, 0.5, second)]
        message = f"event carries {len(second)} group ids, expected 2"
        with pytest.raises(ValueError, match=message):
            multilayer_reference(method, events, ALPHA)
        with pytest.raises(ValueError, match=message):
            replay(make_procedure(method, 2, ALPHA), events)

    def test_state_dependent_spending_policy(self):
        # every rule reads the state the policy is handed, so a snapshot that
        # differed from the engine's state would change a threshold or a charge
        policy = SpendingPolicy(
            alpha_level=lambda t, s: min(1.0, s.wealth),
            spend=lambda t, s: 0.01 * (1 + len(s.seen_per_group) + s.seen_in_rejected % 3),
            reward=lambda t, s: 0.05 + 0.01 * s.rejections + 0.001 * len(s.rejected_groups),
            power_bound=lambda t, s: 1.0,
        )
        rng = np.random.default_rng(4)
        halted = 0
        for layers in (1, 2, 3):
            for trial in range(4):
                events = random_stream(rng, layers, 40, individual=trial % 2 == 0)
                schedules = [policy] * layers
                procedure = make_procedure("ml-GAI", layers, ALPHA, 2.0, schedules=schedules)
                want = multilayer_reference("ml-GAI", events, ALPHA, 2.0, schedules=schedules)
                assert replay(procedure, events) == want
                halted += want[-1].halted
        assert halted

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_the_lockstep_kernel(self, method):
        rng = np.random.default_rng(40 + METHODS.index(method))
        for partitions in (1, 2, 3):
            pvalues = np.where(
                rng.random((4, 30)) < 0.5,
                rng.choice(np.array(TIE_POOL), size=(4, 30)),
                rng.random((4, 30)) ** 3,
            )
            groups = rng.integers(0, 5, size=(4, 30, partitions))
            want = []
            for row, ids in zip(pvalues, groups.tolist()):
                events = [event(t, float(p), (t, *g)) for t, (p, g) in enumerate(zip(row, ids), 1)]
                records = multilayer_reference(method, events, ALPHA)
                want.append([record.rejected for record in records])
            got = lockstep_rejections(method, pvalues, groups, ALPHA)
            assert got.tolist() == want
