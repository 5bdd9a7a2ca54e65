import dataclasses

import numpy as np
import pytest

import layerfdr
from layerfdr import cli
from layerfdr.core import HypothesisEvent, LayerState
from layerfdr.harness import SweepSpec, lockstep_rejections, run_replicate
from layerfdr.procedures import METHODS, make_procedure
from layerfdr.simgen import ScenarioSpec
from test_cli import run_python

# the public API, sorted; adding or removing a name must show up in this list
PUBLIC_NAMES = [
    "AggregateResult",
    "BetaSequence",
    "DEFAULT_BETA_GRID",
    "DecisionRecord",
    "HypothesisEvent",
    "LAYER_NAMES",
    "LayerOutcome",
    "LayerState",
    "LayerTally",
    "METHODS",
    "PolicyReport",
    "ScenarioSpec",
    "SpendingPolicy",
    "StreamHalted",
    "SweepSpec",
    "aggregate",
    "constant_policy",
    "emit_results",
    "make_procedure",
    "make_stream",
    "replay",
    "run_replicate",
    "run_sweep",
    "simple_choice",
    "standard_scenarios",
    "validate_policy",
]


def test_public_names_are_pinned():
    assert sorted(layerfdr.__all__) == PUBLIC_NAMES
    # a name imported on first use is a public name, never a hidden extra
    assert set(layerfdr._LAZY_NAMES) <= set(layerfdr.__all__)


def test_every_public_name_imports():
    namespace = {}
    exec("from layerfdr import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(layerfdr, name)


LAZY_NAMES = """
import sys
import layerfdr
from layerfdr import core, procedures

numpy_modules = {"layerfdr.harness", "layerfdr.metrics", "layerfdr.simgen"}
assert not numpy_modules & set(sys.modules), "import layerfdr"
assert set(layerfdr.__all__) <= set(dir(layerfdr))
try:
    layerfdr.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'layerfdr' has no attribute 'no_such_name'", str(exc)
else:
    raise AssertionError("layerfdr.no_such_name raised nothing")
values = {name: getattr(layerfdr, name) for name in layerfdr.__all__}
from layerfdr import harness, metrics, simgen
for name, value in values.items():
    owners = [m for m in (core, procedures, harness, metrics, simgen) if hasattr(m, name)]
    assert owners and all(getattr(m, name) is value for m in owners), name
    assert vars(layerfdr)[name] is value, name
"""


def test_public_names_resolve_to_their_submodules_objects():
    # a fresh interpreter, so that no test has imported the lazy names' submodules
    process = run_python(["-c", LAZY_NAMES])
    assert process.returncode == 0, process.stderr.decode()


def test_benchmark_entry_points():
    """Exactly the package calls ``perfbench/workloads.py`` makes, so that a
    change to any of them fails this suite and not only a benchmark run."""
    args = cli.build_parser().parse_args(["stream", "--method", "ml-LORD", "--layers", "2"])
    procedure = make_procedure(
        args.method, args.layers, args.alpha, args.eta, untested=args.untested
    )
    # the stream workload wraps these two module attributes and both methods
    assert cli.make_procedure is make_procedure
    assert cli.HypothesisEvent is HypothesisEvent
    step, skip = procedure.step, procedure.skip
    procedure.step = lambda event: step(event)
    procedure.skip = lambda event: skip(event)
    record = procedure.step(HypothesisEvent(t=1, p=0.001, group_index=(1, 3)))
    assert record.rejected and record.layers[1].threshold == record.layers[0].threshold
    # the stream workload's state_entries counters read these two tables;
    # the rejection moved each layer's one arrival out of seen_per_group
    assert [type(state) for state in procedure.states] == [LayerState, LayerState]
    assert [state.seen_per_group for state in procedure.states] == [{}, {}]
    assert [state.rejected_groups for state in procedure.states] == [{1}, {3}]
    assert dataclasses.replace(record, rejected=False).rejected is False


REJECTED_NAMES = ["LOND_m", "ml-BH", "BH", "ml-", "lord"]


@pytest.mark.parametrize("name", list(METHODS) + REJECTED_NAMES)
def test_every_entry_point_accepts_exactly_the_method_names(name, tmp_path, capsys):
    accepted = name in METHODS
    config = tmp_path / "base.cfg"
    config.write_text("G = 2\nn = 3\nreplicates = 2\n")
    stream = ["stream", "--method", name, "--input", str(tmp_path / "empty.jsonl")]
    (tmp_path / "empty.jsonl").write_text("")
    calls = [
        lambda: make_procedure(name, 2, 0.1),
        lambda: lockstep_rejections(name, np.full((1, 3), 0.5), None, 0.1),
        lambda: SweepSpec(ScenarioSpec(), methods=(name,)),
        lambda: run_replicate(ScenarioSpec(G=2, n=3), name, 0),
    ]
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match="unknown method"):
                call()
    for argv in (stream, ["simulate", "--config", str(config), "--method", name]):
        assert cli.main(argv) == (0 if accepted else 2)
        assert accepted or "unknown method" in capsys.readouterr().err
