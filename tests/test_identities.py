"""Exact identities of the layer rules on the step engine and the reference.

Each identity compares one implementation with itself on two inputs whose
answers the rules fix exactly, so it needs no tolerance and no oracle.  The
kernel's share, which has no untested mode and no ``LayerOutcome``s, is in
``test_lockstep.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfdr.core import HypothesisEvent
from layerfdr.oracle import multilayer_reference
from layerfdr.procedures import METHODS, BetaSequence, make_procedure, replay

ALPHA = 0.1
ENGINE_STEPS, REFERENCE_STEPS = 40, 20


def engine(method, events, eta, untested):
    layers = len(events[0].group_index)
    return replay(make_procedure(method, layers, ALPHA, eta, untested=untested), events)


def reference(method, events, eta, untested):
    return multilayer_reference(method, events[:REFERENCE_STEPS], ALPHA, eta, untested=untested)


IMPLEMENTATIONS = {"engine": engine, "reference": reference}


def renumbered(arrivals):
    """Events t = 1, 2, ... of (p, group_index) pairs."""
    return [HypothesisEvent(t=t, p=p, group_index=ids) for t, (p, ids) in enumerate(arrivals, 1)]


@st.composite
def streams(draw, layers):
    """Events of a stream with ``layers`` layers of small group ids, so groups
    repeat and get decided, and with p-values that often tie a threshold."""
    ties = [BetaSequence(ALPHA).value(j) * k for j in (1, 2, 3) for k in (1, 2)]
    pvalue = st.one_of(
        st.sampled_from([0.0, 1.0, ALPHA, *ties]), st.floats(0.0, 0.05), st.floats(0.0, 1.0)
    )
    ids = st.tuples(*[st.integers(0, 3)] * layers)
    return renumbered(draw(st.lists(st.tuples(pvalue, ids), min_size=1, max_size=ENGINE_STEPS)))


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(
    method=st.sampled_from(METHODS),
    stream=st.integers(2, 3).flatmap(streams),
    data=st.data(),
    eta=st.sampled_from([1.0, 5.0]),
    untested=st.sampled_from(["literal", "accept"]),
)
def test_permuting_the_layers_permutes_the_layer_outcomes(method, stream, data, eta, untested):
    order = data.draw(st.permutations(range(len(stream[0].group_index))), label="layer order")
    permuted = renumbered((e.p, tuple(e.group_index[m] for m in order)) for e in stream)
    for run in IMPLEMENTATIONS.values():
        records = run(method, stream, eta, untested)
        moved = run(method, permuted, eta, untested)
        assert len(moved) == len(records)
        for got, want in zip(moved, records):
            assert (got.t, got.rejected, got.halted) == (want.t, want.rejected, want.halted)
            assert got.layers == tuple(want.layers[m] for m in order)


def without_decided_arrivals(run, method, stream, eta=1.0):
    """Records of ``stream`` under ``untested="accept"`` at the arrivals whose
    groups are not all decided, and the records of the stream without the
    others: one list each, arrival for arrival."""
    records = run(method, stream, eta, "accept")
    # nothing tested before a halt: every group was decided
    kept = [i for i, record in enumerate(records) if record.halted or record.tested_layers()]
    shorter = renumbered((stream[i].p, stream[i].group_index) for i in kept)
    return [records[i] for i in kept], run(method, shorter, eta, "accept")


@SETTINGS
@given(
    method=st.sampled_from(["GAI", "LORD", "ml-GAI", "ml-LORD", "ml-LOND_m"]),
    stream=st.integers(1, 3).flatmap(streams),
    eta=st.sampled_from([1.0, 5.0]),
)
def test_deleting_decided_arrivals_changes_no_other_decision(method, stream, eta):
    for run in IMPLEMENTATIONS.values():
        kept, shorter = without_decided_arrivals(run, method, stream, eta)
        assert len(shorter) == len(kept)
        for got, want in zip(shorter, kept):
            # the same record but for t
            assert (got.rejected, got.group_index, got.layers, got.halted) == (
                want.rejected, want.group_index, want.layers, want.halted
            )


@pytest.mark.parametrize("run", IMPLEMENTATIONS.values(), ids=IMPLEMENTATIONS)
def test_deleting_a_decided_arrival_moves_lond_but_not_lond_m(run):
    # LOND indexes its levels by the raw time t, so deleting arrival 2, whose
    # group was decided at t = 1, moves arrival 3's threshold from
    # level(3) * 2 to level(2) * 2; LOND_m counts effective tests, 2 either way
    stream = renumbered([(0.0, (1,)), (0.5, (1,)), (0.02, (2,))])
    sequence = BetaSequence(ALPHA)
    assert sequence.value(3) * 2 < 0.02 < sequence.value(2) * 2
    kept, shorter = without_decided_arrivals(run, "LOND", stream)
    assert [r.rejected for r in kept] == [True, False]
    assert [r.rejected for r in shorter] == [True, True]
    kept, shorter = without_decided_arrivals(run, "ml-LOND_m", stream)
    assert [r.rejected for r in kept] == [r.rejected for r in shorter] == [True, True]
