import copy
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfdr.core import HypothesisEvent, StreamHalted
from layerfdr.harness import standard_scenarios, stream_events
from layerfdr.procedures import (
    METHODS,
    BetaSequence,
    OnlineProcedure,
    SpendingPolicy,
    constant_policy,
    make_procedure,
    replay,
    simple_choice,
    validate_policy,
)
from layerfdr.simgen import make_stream

ALPHA = 0.1
PHI = ALPHA / (1.0 - ALPHA)  # 0.111111...
PSI = PHI + ALPHA  # 0.211111...
BETA_1 = 0.6 / math.pi ** 2  # 0.0607927...
BETA_2 = BETA_1 / 4.0
BETA_3 = BETA_1 / 9.0


def event(t, p, groups):
    return HypothesisEvent(t=t, p=p, group_index=tuple(groups))


class TestValidatePolicy:
    def test_simple_choice_sits_exactly_on_the_bound(self):
        report = validate_policy(simple_choice(ALPHA), ALPHA, horizon=500)
        assert report.ok

    def test_excess_reward_flagged_at_first_step(self):
        policy = constant_policy(ALPHA, PHI, PHI / 1.0 + ALPHA + 0.01, 1.0)
        report = validate_policy(policy, ALPHA, horizon=100)
        assert not report.ok
        assert report.t == 1
        assert report.reward == pytest.approx(0.2211111111, abs=1e-9)
        assert report.power_cap == pytest.approx(PHI + ALPHA, abs=1e-12)
        assert report.level_cap == pytest.approx(PHI / ALPHA + ALPHA - 1.0, abs=1e-12)

    def test_zero_reward_is_admissible(self):
        policy = constant_policy(ALPHA, PHI, 0.0, 1.0)
        assert validate_policy(policy, ALPHA, horizon=100).ok

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.5])
    def test_bad_power_bound_raises(self, rho):
        policy = constant_policy(ALPHA, PHI, PSI, rho)
        with pytest.raises(ValueError, match="invalid power bound"):
            validate_policy(policy, ALPHA, horizon=10)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_policy(simple_choice(ALPHA), ALPHA, horizon=0)

    def test_horizon_must_be_an_integer(self):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            validate_policy(simple_choice(ALPHA), ALPHA, horizon=2.5)

    def test_a_bool_horizon_is_refused(self):
        # operator.index(True) is 1, so a bool would otherwise scan one step
        with pytest.raises(ValueError, match="horizon must be an integer, got True"):
            validate_policy(simple_choice(ALPHA), ALPHA, True)

    @pytest.mark.parametrize("alpha", [math.nan, 2.0])
    def test_alpha_must_lie_in_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            validate_policy(simple_choice(ALPHA), alpha, horizon=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("charge", ["spend", "reward"])
    def test_non_finite_charge_raises(self, value, charge):
        charges = {"spend": PHI, "reward": PSI, charge: value}
        policy = constant_policy(ALPHA, charges["spend"], charges["reward"])
        with pytest.raises(ValueError, match="non-finite spend or reward"):
            validate_policy(policy, ALPHA, horizon=10)


class TestBetaSequence:
    def test_default_family_closed_form(self):
        seq = BetaSequence(ALPHA)
        assert seq.value(1) == pytest.approx(0.0607927, abs=1e-7)
        assert seq.value(2) == pytest.approx(0.0151982, abs=1e-7)
        assert seq.value(3) == pytest.approx(0.0067547, abs=1e-7)

    def test_index_starts_at_one(self):
        with pytest.raises(IndexError):
            BetaSequence(ALPHA).value(0)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_partial_sums_stay_below_level(self, alpha):
        js = np.arange(1, 10 ** 6 + 1, dtype=float)
        total = float((alpha * 6.0 / (math.pi ** 2 * js * js)).sum())
        assert total <= alpha
        assert total >= 0.9999 * alpha


class TestAlphaInvesting:
    def test_two_layer_rejection_pays_both_layers(self):
        proc = make_procedure("ml-GAI", 2, ALPHA, 1.0)
        record = proc.step(event(1, 0.05, (1, 1)))
        assert record.rejected
        for outcome in record.layers:
            assert outcome.tested and outcome.newly_rejected
            assert outcome.threshold == pytest.approx(0.1)
            assert outcome.wealth == pytest.approx(0.2, abs=1e-12)
            assert outcome.rejections == 1
        assert not record.halted

    def test_decided_layer_is_not_tested_or_charged(self):
        proc = make_procedure("ml-GAI", 2, ALPHA, 1.0)
        proc.step(event(1, 0.05, (1, 1)))
        record = proc.step(event(2, 0.5, (2, 1)))
        assert not record.rejected
        first, second = record.layers
        assert first.tested and not second.tested
        assert first.wealth == pytest.approx(0.2 - PHI, abs=1e-12)  # 0.088889
        assert second.wealth == pytest.approx(0.2, abs=1e-12)
        assert second.threshold is None

    def test_final_charge_may_cross_zero_then_halt(self):
        proc = make_procedure("ml-GAI", 1, ALPHA, 1.0)
        record = proc.step(event(1, 0.5, (1,)))
        assert not record.rejected
        assert record.layers[0].wealth == pytest.approx(0.1 - PHI, abs=1e-12)
        assert record.halted
        with pytest.raises(StreamHalted, match="wealth exhausted"):
            proc.step(event(2, 0.5, (2,)))

    def test_skip_records_after_halt(self):
        proc = make_procedure("ml-GAI", 1, ALPHA, 1.0)
        records = replay(proc, [event(1, 0.5, (1,)), event(2, 0.01, (2,))])
        assert records[1].halted
        assert not records[1].rejected
        assert not records[1].layers[0].tested
        assert records[1].t == 2

    def test_wealth_ledger_identity_on_random_streams(self):
        # with the constant schedule: W = alpha*eta - phi * tests + (phi+alpha) * R
        rng = np.random.default_rng(99)
        for trial in range(5):
            proc = make_procedure("ml-GAI", 2, ALPHA, 2.0)
            tests = [0, 0]
            for i in range(1, 300):
                if proc.halted:
                    break
                gids = (i, int(rng.integers(1, 7)))
                record = proc.step(event(i, float(rng.random() ** 2), gids))
                for m, outcome in enumerate(record.layers):
                    if outcome.tested:
                        tests[m] += 1
                    expected = (
                        ALPHA * 2.0 - PHI * tests[m] + PSI * outcome.rejections
                    )
                    assert outcome.wealth == pytest.approx(expected, abs=1e-9)


class TestLond:
    def test_first_two_thresholds(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        r1 = proc.step(event(1, 0.05, (1,)))
        assert r1.rejected
        assert r1.layers[0].threshold == pytest.approx(BETA_1, abs=1e-9)
        r2 = proc.step(event(2, 0.05, (2,)))
        assert not r2.rejected  # 0.05 >= beta_2 * 2
        assert r2.layers[0].threshold == pytest.approx(2 * BETA_2, abs=1e-9)

    def test_modified_indexing_recovers_collapsed_tests(self):
        proc = make_procedure("ml-LOND_m", 1, ALPHA)
        replay(
            proc,
            [event(1, 0.5, (7,)), event(2, 0.5, (7,)), event(3, 1e-5, (7,))],
        )
        # three arrivals in one group, rejected on the third: one effective test
        assert proc.states[0].effective_tests(3) == 1
        record = proc.step(event(4, 0.5, (8,)))
        # the fourth arrival is effectively the second test: index 2, R = 1
        assert record.layers[0].threshold == pytest.approx(2 * BETA_2, abs=1e-9)
        assert record.layers[0].effective_tests == 2

    def test_plain_indexing_uses_raw_time(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        replay(
            proc,
            [event(1, 0.5, (7,)), event(2, 0.5, (7,)), event(3, 1e-5, (7,))],
        )
        record = proc.step(event(4, 0.5, (8,)))
        assert record.layers[0].threshold == pytest.approx(
            2 * BETA_1 / 16.0, abs=1e-9
        )

    def test_threshold_monotone_in_discoveries(self):
        seq = BetaSequence(ALPHA)
        previous = 0.0
        for discoveries in range(0, 40):
            threshold = min(1.0, seq.value(5) * (discoveries + 1))
            assert threshold >= previous
            previous = threshold

    def test_threshold_clamped_at_one(self):
        proc = make_procedure("ml-LOND", 1, ALPHA)
        proc.states[0].rejections = 10 ** 6
        record = proc.step(event(1, 0.9999, (1,)))
        assert record.layers[0].threshold == 1.0
        assert record.rejected
        proc = make_procedure("ml-LOND", 1, ALPHA)
        proc.states[0].rejections = 10 ** 6
        tie = proc.step(event(1, 1.0, (1,)))
        assert tie.layers[0].threshold == 1.0
        assert not tie.rejected  # strict inequality: ties are accepts


class TestLord:
    def test_counter_advances_on_miss(self):
        proc = make_procedure("ml-LORD", 1, ALPHA)
        r1 = proc.step(event(1, 0.2, (1,)))
        assert not r1.rejected
        assert r1.layers[0].threshold == pytest.approx(BETA_1, abs=1e-9)
        assert r1.layers[0].since_last_discovery == 2
        r2 = proc.step(event(2, 0.2, (2,)))
        assert r2.layers[0].threshold == pytest.approx(BETA_2, abs=1e-9)

    def test_counter_resets_on_discovery(self):
        proc = make_procedure("ml-LORD", 1, ALPHA)
        for i in range(1, 5):
            proc.step(event(i, 0.9, (i,)))
        assert proc.states[0].since_last_discovery == 5
        record = proc.step(event(5, 1e-6, (5,)))
        assert record.rejected
        assert record.layers[0].since_last_discovery == 1
        after = proc.step(event(6, 0.5, (6,)))
        assert after.layers[0].threshold == pytest.approx(BETA_1, abs=1e-9)

    def test_decided_layer_is_frozen(self):
        proc = make_procedure("ml-LORD", 2, ALPHA)
        proc.step(event(1, 1e-7, (1, 1)))
        before = copy.deepcopy(proc.states[1])
        record = proc.step(event(2, 0.5, (2, 1)))
        after = proc.states[1]
        assert after.since_last_discovery == before.since_last_discovery == 1
        assert after.rejections == before.rejections
        assert after.rejected_groups == before.rejected_groups
        assert record.layers[1].since_last_discovery == 1
        assert proc.states[0].since_last_discovery == 2


class TestUntestedPolicy:
    def exhaust_both_layers(self, untested):
        proc = make_procedure("ml-LOND", 2, ALPHA, untested=untested)
        proc.step(event(1, 1e-7, (1, 1)))
        return proc, proc.step(event(2, 0.5, (1, 1)))

    def test_literal_mode_keeps_the_default_rejection(self):
        proc, record = self.exhaust_both_layers("literal")
        assert record.rejected
        assert not any(outcome.tested for outcome in record.layers)
        assert [s.rejections for s in proc.states] == [1, 1]

    def test_accept_mode_flips_to_accept(self):
        proc, record = self.exhaust_both_layers("accept")
        assert not record.rejected
        assert [s.rejections for s in proc.states] == [1, 1]

    def test_group_level_outputs_agree_between_modes(self):
        literal, _ = self.exhaust_both_layers("literal")
        accept, _ = self.exhaust_both_layers("accept")
        for a, b in zip(literal.states, accept.states):
            assert a.rejected_groups == b.rejected_groups
            assert a.rejections == b.rejections


class TestSingleLayerFactory:
    def test_lond_walkthrough(self):
        proc = make_procedure("LOND", 1, ALPHA)
        records = proc.run_pvalues([0.01, 0.9, 0.9])
        assert [r.rejected for r in records] == [True, False, False]
        thresholds = [r.layers[0].threshold for r in records]
        assert thresholds == pytest.approx(
            [BETA_1, 2 * BETA_2, 2 * BETA_3], abs=1e-9
        )

    def test_gai_all_ones_halts_after_budget(self):
        proc = make_procedure("GAI", 1, ALPHA)
        records = proc.run_pvalues([1.0] * 6)
        tested = sum(r.layers[0].tested for r in records)
        assert tested == math.ceil(ALPHA * 1.0 / PHI)  # one paid test
        assert not any(r.rejected for r in records)
        assert records[0].halted and records[-1].halted

    def test_gai_budget_scales_with_eta(self):
        proc = make_procedure("GAI", 1, ALPHA, eta=2.0)
        records = proc.run_pvalues([1.0] * 6)
        assert sum(r.layers[0].tested for r in records) == 2

    def test_lord_rejects_every_zero_pvalue(self):
        proc = make_procedure("LORD", 1, ALPHA)
        records = proc.run_pvalues([0.0] * 10)
        assert all(r.rejected for r in records)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method name"):
            make_procedure("BONF", 1, ALPHA)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_runs_on_the_one_engine_class(method):
    proc = make_procedure(method, 2, ALPHA)
    assert type(proc) is OnlineProcedure
    assert proc.rule == method.removeprefix("ml-")


def test_engine_rejects_an_unknown_rule():
    # one constructor, one vocabulary: a bare rule name is not a method name
    assert make_procedure is OnlineProcedure
    with pytest.raises(ValueError, match="unknown method name: 'LOND_m'"):
        OnlineProcedure("LOND_m", 1, ALPHA)


@pytest.mark.parametrize("method", ["ml-GAI", "ml-LOND", "ml-LOND_m", "ml-LORD"])
def test_issued_thresholds_live_in_unit_interval(method):
    rng = np.random.default_rng(7)
    proc = make_procedure(method, 2, ALPHA)
    for i in range(1, 200):
        if proc.halted:
            break
        gids = (i, int(rng.integers(1, 5)))
        record = proc.step(event(i, float(rng.random() ** 3), gids))
        for outcome in record.layers:
            if outcome.tested:
                assert 0.0 < outcome.threshold <= 1.0


@pytest.mark.parametrize("method", ["ml-GAI", "ml-LOND", "ml-LOND_m", "ml-LORD"])
def test_pending_only_mutation(method):
    rng = np.random.default_rng(17)
    proc = make_procedure(method, 2, ALPHA)
    for i in range(1, 150):
        if proc.halted:
            break
        gids = (i, int(rng.integers(1, 4)))
        frozen = {
            m: copy.deepcopy(proc.states[m])
            for m in range(2)
            if gids[m] in proc.states[m].rejected_groups
        }
        proc.step(event(i, float(rng.random() ** 2), gids))
        for m, before in frozen.items():
            after = proc.states[m]
            # arrival bookkeeping aside, the decision state is untouched
            assert after.rejected_groups == before.rejected_groups
            assert after.rejections == before.rejections
            assert after.wealth == before.wealth
            assert after.since_last_discovery == before.since_last_discovery
            # the collapsed test count does not advance either
            assert after.effective_tests(i) == before.effective_tests(i - 1)


@pytest.mark.parametrize(
    "method", ["GAI", "LORD", "LOND", "ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m"]
)
def test_records_carry_wealth_and_gap_only_where_the_rule_keeps_them(method):
    rng = np.random.default_rng(29)
    layers = 2 if method.startswith("ml-") else 1
    events = [
        event(i, float(rng.random() ** 3), (i, int(rng.integers(1, 4)))[:layers])
        for i in range(1, 60)
    ]
    for record in replay(make_procedure(method, layers, ALPHA), events):
        for outcome in record.layers:
            assert (outcome.wealth is not None) == method.endswith("GAI")
            assert (outcome.since_last_discovery is not None) == method.endswith("LORD")


def test_rejection_requires_every_pending_layer():
    # p = 0.01 clears layer 0's first level (BETA_1) but not layer 1's (~6e-4)
    proc = make_procedure("ml-LOND", 2, ALPHA, schedules=[None, BetaSequence(0.001)])
    record = proc.step(event(1, 0.01, (1, 1)))
    assert not record.rejected
    assert record.layers[0].tested and record.layers[1].tested


class Tripwire:
    """Default levels that fail once, on the first call after ``armed`` is set.

    ``value`` stands in for a BetaSequence and raises; ``level`` stands in
    for a spending policy's level rule and returns an invalid level.
    """

    def __init__(self, armed=False):
        self.armed = armed

    def _trip(self):
        tripped, self.armed = self.armed, False
        return tripped

    def value(self, j):
        if self._trip():
            raise ValueError(f"level index {j} outside the schedule")
        return BetaSequence(ALPHA).value(j)

    def level(self, t, state):
        return 1.5 if self._trip() else ALPHA


def wired_procedure(method, layers, wire, layer, **kwargs):
    """``make_procedure(method, layers, ALPHA)`` with ``wire`` feeding one layer's levels."""
    wired = wire
    if method.endswith("GAI"):
        simple = simple_choice(ALPHA)
        wired = SpendingPolicy(wire.level, simple.spend, simple.reward, simple.power_bound)
    schedules = [wired if m == layer else None for m in range(layers)]
    return make_procedure(method, layers, ALPHA, schedules=schedules, **kwargs)


class TestFailedStepLeavesStreamUnchanged:
    def test_invalid_level_rolls_back_the_arrival(self):
        policy = constant_policy(1.5, ALPHA, 0.2)
        proc = make_procedure("ml-GAI", 2, ALPHA, schedules=[policy] * 2)
        fresh = make_procedure("ml-GAI", 2, ALPHA)
        with pytest.raises(ValueError, match="significance level"):
            proc.step(event(1, 0.01, (1, 1)))
        assert proc.t == 0
        assert proc.states == fresh.states

    @pytest.mark.parametrize("spend, reward", [(math.nan, 0.2), (ALPHA, math.inf)])
    def test_non_finite_charge_leaves_the_state_unchanged(self, spend, reward):
        # a NaN wealth never compares <= 0, so the stream would never halt
        policy = constant_policy(0.1, spend, reward)
        proc = make_procedure("GAI", 1, ALPHA, schedules=[policy])
        with pytest.raises(ValueError, match="non-finite spend or reward"):
            proc.step(event(1, 0.01, (1,)))
        assert proc.t == 0
        assert proc.states == make_procedure("GAI", 1, ALPHA).states

    def test_next_valid_step_equals_a_fresh_first_step(self):
        # the group layer's level fails after the individual layer's is computed
        proc = wired_procedure("ml-LOND_m", 2, Tripwire(armed=True), layer=1)
        fresh = make_procedure("ml-LOND_m", 2, ALPHA)
        with pytest.raises(ValueError, match="outside"):
            proc.step(event(1, 0.9, (1, 1)))
        assert proc.t == 0
        assert proc.step(event(1, 0.01, (1, 1))) == fresh.step(event(1, 0.01, (1, 1)))

    @pytest.mark.parametrize("method", ["ml-GAI", "ml-LOND", "ml-LOND_m", "ml-LORD"])
    def test_mid_stream_failure_keeps_the_state(self, method):
        # the individual layer's level fails at t=5; the failing event lands
        # in group 1, which the group layer rejected at t=1
        wire = Tripwire()
        proc = wired_procedure(method, 2, wire, layer=0)
        reference = make_procedure(method, 2, ALPHA)
        for i, (p, g) in enumerate([(0.0, 1), (0.3, 1), (0.001, 2), (0.2, 2)], 1):
            assert proc.step(event(i, p, (i, g))) == reference.step(event(i, p, (i, g)))
        before = copy.deepcopy(proc.states)
        wire.armed = True
        with pytest.raises(ValueError, match="outside"):
            proc.step(event(5, 0.5, (5, 1)))
        assert proc.t == 4
        assert proc.states == before
        assert proc.step(event(5, 0.04, (5, 1))) == reference.step(event(5, 0.04, (5, 1)))


class ConstantLevels:
    """A level sequence whose every value is ``level``."""

    def __init__(self, level):
        self.level = level

    def value(self, j):
        return self.level


class GeometricLevels:
    """The level sequence alpha * (1 - ratio) * ratio^(j - 1), which sums to alpha."""

    def __init__(self, alpha, ratio=0.5):
        self.alpha = alpha
        self.ratio = ratio

    def value(self, j):
        return self.alpha * (1.0 - self.ratio) * self.ratio ** (j - 1)


class TestLevelSequenceValues:
    @pytest.mark.parametrize("method", ["ml-LOND", "ml-LOND_m", "ml-LORD"])
    @pytest.mark.parametrize("level", [math.nan, -0.1, 1.5])
    def test_a_value_outside_the_unit_interval_raises_and_changes_nothing(self, method, level):
        # min(1.0, nan) is 1.0, so a NaN level would have rejected every p-value
        proc = make_procedure(method, 2, ALPHA, schedules=[None, ConstantLevels(level)])
        with pytest.raises(ValueError, match=r"level sequence value outside \[0, 1\]"):
            proc.step(event(1, 0.9, (1, 1)))
        assert proc.t == 0
        assert proc.states == make_procedure(method, 2, ALPHA).states

    @pytest.mark.parametrize("method", ["ml-LOND", "ml-LOND_m", "ml-LORD"])
    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_the_interval_ends_are_valid(self, method, level):
        proc = make_procedure(method, 2, ALPHA, schedules=[ConstantLevels(level)] * 2)
        assert proc.step(event(1, 0.5, (1, 1))).rejected is (level == 1.0)

    @pytest.mark.parametrize("method", ["LOND", "LORD"])
    def test_a_geometric_sequence_runs_past_its_underflow_to_zero(self, method):
        geometric = GeometricLevels(ALPHA)
        assert geometric.value(1071) > 0.0 == geometric.value(1072)
        records = make_procedure(method, 1, ALPHA, schedules=[geometric]).run_pvalues(
            [0.5] * 1100
        )
        assert not any(record.rejected for record in records)
        assert records[-1].layers[0].threshold == 0.0


class TestSkipContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_skip_on_a_live_stream_raises_and_changes_nothing(self, method):
        layers = 2 if method.startswith("ml-") else 1
        proc = make_procedure(method, layers, ALPHA)
        proc.step(event(1, 0.01, (1,) * layers))
        assert not proc.halted
        before = copy.deepcopy(proc.states)
        with pytest.raises(RuntimeError, match="only valid after the stream has halted"):
            proc.skip(event(2, 0.5, (2,) * layers))
        assert proc.t == 1
        assert proc.states == before

    def test_wrong_group_count_on_a_halted_stream_does_not_advance(self):
        # the first accept costs the whole initial wealth alpha < spend
        proc = make_procedure("ml-GAI", 2, ALPHA)
        assert proc.step(event(1, 0.5, (1, 1))).halted
        before = copy.deepcopy(proc.states)
        with pytest.raises(ValueError, match="expected 2"):
            proc.skip(event(2, 0.5, (2,)))
        assert proc.t == 1
        assert proc.states == before
        record = proc.skip(event(2, 0.5, (2, 1)))
        assert (record.t, record.rejected, record.tested_layers()) == (2, False, [])


@st.composite
def grouped_streams(draw):
    """(layers, events) of a random 1-3 layer stream with small group ids."""
    layers = draw(st.integers(1, 3))
    pvalue = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.05), st.floats(0.0, 1.0))
    ids = st.tuples(*[st.integers(0, 4)] * layers)
    size = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(pvalue, ids), min_size=size, max_size=size))
    return layers, [event(t, p, g) for t, (p, g) in enumerate(pairs, 1)]


def advance(procedure, ev):
    return procedure.skip(ev) if procedure.halted else procedure.step(ev)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ENGINE_OPTIONS = st.fixed_dictionaries(
    {"untested": st.sampled_from(["literal", "accept"]), "eta": st.sampled_from([1.0, 10.0])}
)


@PROPERTY_SETTINGS
@given(
    method=st.sampled_from(METHODS),
    stream=grouped_streams(),
    options=ENGINE_OPTIONS,
    failure=st.sampled_from(["level", "id count"]),
    data=st.data(),
)
def test_a_raising_step_changes_nothing(method, stream, options, failure, data):
    layers, events = stream
    at = data.draw(st.integers(0, len(events) - 1), label="failing step")
    layer = data.draw(st.integers(0, layers - 1), label="wired layer")
    wire = Tripwire()
    proc = wired_procedure(method, layers, wire, layer, **options)
    twin = wired_procedure(method, layers, Tripwire(), layer, **options)
    for i, ev in enumerate(events):
        if i == at:
            before = (repr(proc.states), proc.t, proc.halted)
            wire.armed = failure == "level"
            bad = ev if failure == "level" else event(ev.t, ev.p, ev.group_index + (0,))
            try:
                record = proc.step(bad)
            except (ValueError, StreamHalted):
                assert (repr(proc.states), proc.t, proc.halted) == before
            else:
                # the wired layer was not pending, so its level was never asked for
                assert wire.armed
                wire.armed = False
                assert record == twin.step(ev)
                continue
            wire.armed = False
        assert advance(proc, ev) == advance(twin, ev)


@PROPERTY_SETTINGS
@given(
    method=st.sampled_from(METHODS),
    stream=grouped_streams(),
    options=ENGINE_OPTIONS,
    data=st.data(),
)
def test_a_prefix_replays_to_a_prefix_of_the_records(method, stream, options, data):
    layers, events = stream
    records = replay(make_procedure(method, layers, ALPHA, **options), events)
    assert replay(make_procedure(method, layers, ALPHA, **options), events) == records
    k = data.draw(st.integers(0, len(events)), label="prefix length")
    assert replay(make_procedure(method, layers, ALPHA, **options), events[:k]) == records[:k]


def test_event_layer_count_is_checked():
    proc = make_procedure("ml-LOND", 2, ALPHA)
    with pytest.raises(ValueError, match="expected 2"):
        proc.step(event(1, 0.5, (1,)))


def test_make_procedure_unknown_method():
    with pytest.raises(ValueError, match="unknown method name"):
        make_procedure("ml-BH", 2, ALPHA)


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("method", ["GAI", "LOND", "ml-LOND_m", "LORD"])
def test_eta_must_be_positive_and_finite(method, eta):
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        make_procedure(method, 1, ALPHA, eta)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("method", METHODS)
def test_alpha_must_lie_in_the_unit_interval(method, alpha):
    with pytest.raises(ValueError, match="alpha must lie in"):
        make_procedure(method, 2, alpha)


@pytest.mark.parametrize("layers", [1.5, 2.0, True])
def test_layer_count_must_be_an_integer(layers):
    with pytest.raises(ValueError, match=f"layers must be an integer, got {layers}"):
        make_procedure("ml-LORD", layers, ALPHA)
    assert len(make_procedure("ml-LORD", np.int64(2), ALPHA).states) == 2


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_simple_choice_rejects_alpha_outside_the_unit_interval(alpha):
    # at alpha = 1 the spend divides by zero; above it spend and reward turn negative
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        simple_choice(alpha)


class TestLayerSchedules:
    def test_per_layer_beta_sequences(self):
        schedules = [None, GeometricLevels(ALPHA)]
        proc = make_procedure("ml-LORD", 2, ALPHA, schedules=schedules)
        record = proc.step(event(1, 0.5, (1, 1)))
        assert record.layers[0].threshold == pytest.approx(BETA_1, abs=1e-9)
        assert record.layers[1].threshold == pytest.approx(ALPHA * 0.5, abs=1e-12)

    def test_per_layer_spending_policies(self):
        strict = constant_policy(0.01, PHI, PSI, 1.0)
        proc = make_procedure("ml-GAI", 2, ALPHA, schedules=[None, strict])
        record = proc.step(event(1, 0.05, (1, 1)))
        assert record.layers[0].threshold == pytest.approx(ALPHA)
        assert record.layers[1].threshold == pytest.approx(0.01)
        assert not record.rejected  # 0.05 fails the strict layer

    def test_schedule_count_must_match_layers(self):
        with pytest.raises(ValueError, match="one schedule per layer"):
            make_procedure("ml-LORD", 2, ALPHA, schedules=[None])
        with pytest.raises(ValueError, match="one schedule per layer"):
            make_procedure("LORD", 2, ALPHA, schedules=[None] * 3)

    @pytest.mark.parametrize(
        "method, wrong",
        [
            ("ml-LORD", simple_choice(ALPHA)),
            ("ml-LOND", simple_choice(ALPHA)),
            ("ml-LOND_m", constant_policy(0.01, PHI, PSI)),
            ("ml-GAI", BetaSequence(0.001)),
            ("ml-GAI", Tripwire()),
        ],
    )
    def test_a_schedule_of_the_wrong_kind_raises_when_built(self, method, wrong):
        # the entry is refused, not dropped in favour of the default schedule
        with pytest.raises(ValueError, match="layer 1 schedule must be"):
            make_procedure(method, 2, ALPHA, schedules=[None, wrong])

    @pytest.mark.parametrize("method", METHODS)
    def test_none_means_the_default_schedule(self, method):
        layers = 2 if method.startswith("ml-") else 1
        default = simple_choice(ALPHA) if method.endswith("GAI") else BetaSequence(ALPHA)
        events = [event(t, 0.5 if t % 3 else 0.001, (t, t % 4)[:layers]) for t in range(1, 30)]
        want = replay(make_procedure(method, layers, ALPHA, schedules=[default] * layers), events)
        for schedules in (None, [None] * layers):
            proc = make_procedure(method, layers, ALPHA, schedules=schedules)
            assert replay(proc, events) == want


# any change to a decision or to a record field's value or repr changes this
RECORD_DIGEST = "6ee57590e044feaf795caf32a4f4ee852338a0e04711e314b012827d17f33c34"


def record_digest():
    """SHA-256 over the record reprs of a fixed set of replays: every method
    on every standard panel (two seeds, both untested modes), a 3-layer
    stream and an ml-GAI stream that halts part-way."""
    digest = hashlib.sha256()

    def add(procedure, events):
        records = replay(procedure, events)
        for record in records:
            digest.update(repr(record).encode() + b"\n")
        return records

    for panel in standard_scenarios().values():
        for seed in (11, 12):
            data = make_stream(replace(panel, beta=2.0, seed=seed))
            for method in METHODS:
                layers = 2 if method.startswith("ml-") else 1
                for untested in ("literal", "accept"):
                    add(make_procedure(method, layers, ALPHA, untested=untested),
                        stream_events(data, layers))
    data = make_stream(replace(standard_scenarios()["interleaved-random-constant"], seed=5))
    three = [
        event(t, float(p), (t, int(g), int(g) % 3))
        for t, (p, g) in enumerate(zip(data.pvalues, data.groups), 1)
    ]
    for method in METHODS:
        add(make_procedure(method, 3, ALPHA), three)
    halting = [event(t, 0.5 if t % 2 else 0.001, (t, t % 8)) for t in range(1, 41)]
    records = add(make_procedure("ml-GAI", 2, ALPHA, eta=5.0), halting)
    assert not records[15].halted and records[16].halted
    return digest.hexdigest()


def test_record_reprs_match_the_golden_digest():
    assert record_digest() == RECORD_DIGEST
