import copy
import dataclasses
import pickle

import numpy as np
import pytest

from layerfdr.core import DecisionRecord, HypothesisEvent
from layerfdr.harness import stream_events, stream_tallies
from layerfdr.metrics import LayerTally
from layerfdr.procedures import make_procedure, replay
from layerfdr.simgen import StreamData


def event(t, p, groups):
    return HypothesisEvent(t=t, p=p, group_index=tuple(groups))


def selection_sets(records, layers):
    """Per-layer groups holding a rejected hypothesis, read off the records."""
    return [{r.group_index[m] for r in records if r.rejected} for m in range(layers)]


def true_group_sets(events, truths, layers):
    """Per-layer groups holding a true hypothesis."""
    return [
        {e.group_index[m] for e, truth in zip(events, truths) if truth == 1}
        for m in range(layers)
    ]


class TestHypothesisEvent:
    def test_rejects_out_of_range_pvalue(self):
        with pytest.raises(ValueError):
            event(1, 1.5, (1,))
        with pytest.raises(ValueError):
            event(1, -0.1, (1,))

    def test_rejects_nan_pvalue(self):
        with pytest.raises(ValueError):
            event(1, float("nan"), (1,))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            event(0, 0.5, (1,))

    def test_rejects_negative_group(self):
        with pytest.raises(ValueError):
            event(1, 0.5, (-1,))


def tallies_of(pvalues, groups, truths):
    """ml-LOND decisions on one stream, tallied through the harness route."""
    data = StreamData(
        groups=np.array([groups]), truths=np.array([truths]), pvalues=np.array([pvalues])
    )
    records = replay(make_procedure("ml-LOND", 2, 0.1), stream_events(data.row(0), 2))
    tallies = stream_tallies(data, np.array([[r.rejected for r in records]]))
    return {name: LayerTally(*per_row[0].tolist()) for name, per_row in tallies.items()}


class TestSelectionSets:
    """A discovery is a group holding a rejected hypothesis, counted once."""

    def test_empty_without_rejections(self):
        tallies = tallies_of([0.9, 0.9], [1, 1], [1, 1])
        assert tallies["individual"] == LayerTally(0, 0, 2)
        assert tallies["group"] == LayerTally(0, 0, 1)

    def test_single_rejection_lands_in_both_layers(self):
        # the true hypotheses sit in group 2; the rejection is in null group 1
        tallies = tallies_of([0.9, 0.9, 1e-6], [2, 2, 1], [1, 1, 0])
        assert tallies["individual"] == LayerTally(1, 0, 2)
        assert tallies["group"] == LayerTally(1, 0, 1)

    def test_same_group_counted_once(self):
        tallies = tallies_of([1e-6, 1e-6], [4, 4], [1, 0])
        assert tallies["individual"] == LayerTally(1, 1, 1)
        assert tallies["group"] == LayerTally(0, 1, 1)


def random_events(seed, n=120, layers=2, groups=8):
    """Events of a random stream and their 0/1 truth labels."""
    rng = np.random.default_rng(seed)
    events, truths = [], []
    for i in range(n):
        gids = (i + 1,) + tuple(
            int(rng.integers(1, groups + 1)) for _ in range(layers - 1)
        )
        p = float(rng.random() ** 3)
        events.append(event(i + 1, p, gids))
        truths.append(int(rng.random() < 0.3))
    return events, truths


@pytest.mark.parametrize("method", ["ml-GAI", "ml-LOND", "ml-LOND_m", "ml-LORD"])
def test_group_decisions_monotone_and_match_rejection_counts(method):
    events, _ = random_events(11)
    proc = make_procedure(method, 2, 0.1)
    records = replay(proc, events)
    for m in range(2):
        seen = set()
        for prefix_end in range(1, len(records) + 1):
            selected = selection_sets(records[:prefix_end], 2)[m]
            assert seen <= selected  # never un-reject
            seen = selected
            assert len(selected) == records[prefix_end - 1].layers[m].rejections


@pytest.mark.parametrize("method", ["ml-GAI", "ml-LOND", "ml-LOND_m", "ml-LORD"])
def test_replay_is_bit_identical(method):
    events, _ = random_events(23)
    first = replay(make_procedure(method, 2, 0.1), events)
    second = replay(make_procedure(method, 2, 0.1), events)
    assert first == second


def test_a_step_record_is_the_dataclass_record():
    # the record's own __init__ fills its dict instead of the frozen __init__
    record = replay(make_procedure("ml-LORD", 2, 0.1), random_events(5)[0][:3])[-1]
    names = [f.name for f in dataclasses.fields(DecisionRecord)]
    fields = [getattr(record, name) for name in names]
    built = DecisionRecord(*fields)
    assert type(record) is DecisionRecord
    assert DecisionRecord(**dict(zip(names, fields))) == record == built
    assert repr(record) == repr(built) and hash(record) == hash(built)
    assert pickle.loads(pickle.dumps(record)) == built
    assert dataclasses.replace(record, rejected=not record.rejected).rejected != record.rejected
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.rejected = True


def test_an_event_is_the_dataclass_event():
    # the event's own __init__ fills its dict instead of the frozen __init__
    t, p, groups = 3, 0.25, (3, 1)
    event = HypothesisEvent(t, p, groups)
    assert HypothesisEvent(t=t, p=p, group_index=groups) == event
    assert (event.t, event.p, event.group_index) == (t, p, groups)
    assert [f.name for f in dataclasses.fields(event)] == ["t", "p", "group_index"]
    assert repr(event) == f"HypothesisEvent(t={t!r}, p={p!r}, group_index={groups!r})"
    assert hash(event) == hash((t, p, groups))
    assert event != HypothesisEvent(t, 0.5, groups) and event != (t, p, groups)
    assert pickle.loads(pickle.dumps(event)) == event
    moved = dataclasses.replace(event, p=0.5)
    assert type(moved) is HypothesisEvent and moved == HypothesisEvent(t, 0.5, groups)
    with pytest.raises(ValueError, match="outside"):
        dataclasses.replace(event, p=1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.p = 0.5
    # the checks run in field order: t, then p, then the group ids
    with pytest.raises(ValueError, match="time index must be >= 1, got 0"):
        HypothesisEvent(0, 1.5, (-1,))
    with pytest.raises(ValueError, match=r"p-value outside \[0, 1\]: 1.5"):
        HypothesisEvent(t=1, p=1.5, group_index=(-1,))
    with pytest.raises(ValueError, match="group ids must be non-negative"):
        HypothesisEvent(1, 0.5, (-1,))


def test_truth_and_selection_ignore_layer_order():
    events, truths = random_events(5, layers=3, groups=5)
    swapped = [
        HypothesisEvent(
            t=e.t,
            p=e.p,
            group_index=(e.group_index[0], e.group_index[2], e.group_index[1]),
        )
        for e in events
    ]
    truth = true_group_sets(events, truths, 3)
    truth_swapped = true_group_sets(swapped, truths, 3)
    assert truth[1] == truth_swapped[2]
    assert truth[2] == truth_swapped[1]

    records = replay(make_procedure("ml-LOND", 3, 0.1), events)
    records_swapped = replay(make_procedure("ml-LOND", 3, 0.1), swapped)
    sets_a = selection_sets(records, 3)
    sets_b = selection_sets(records_swapped, 3)
    assert sets_a[1] == sets_b[2] and sets_a[2] == sets_b[1]
    assert sets_a[0] == sets_b[0]


def test_layer_state_snapshot_copies_cleanly():
    proc = make_procedure("ml-LORD", 2, 0.1)
    replay(proc, random_events(3)[0][:40])
    snapshot = copy.deepcopy(proc.states[1])
    assert snapshot == proc.states[1]
    snapshot.rejected_groups.add(999)
    assert snapshot != proc.states[1]
