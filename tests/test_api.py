import layerfdr

# the public API, sorted; adding or removing a name must show up in this list
PUBLIC_NAMES = [
    "AggregateResult",
    "AlphaInvesting",
    "BetaSequence",
    "DEFAULT_BETA_GRID",
    "DecisionRecord",
    "HypothesisEvent",
    "LAYER_NAMES",
    "LayerConfig",
    "LayerOutcome",
    "LayerState",
    "LayerTally",
    "Lond",
    "Lord",
    "METHODS",
    "OnlineProcedure",
    "PolicyReport",
    "ReplicateRun",
    "ScenarioSpec",
    "SpendingPolicy",
    "StreamData",
    "StreamHalted",
    "SweepSpec",
    "TallyTracker",
    "aggregate",
    "constant_policy",
    "emit_results",
    "gen_pvalues",
    "make_procedure",
    "make_stream",
    "replay",
    "replicate_seed",
    "run_replicate",
    "run_sweep",
    "signal_means",
    "simple_choice",
    "standard_scenarios",
    "tally_from_sets",
    "two_sided_p",
    "two_sided_p_array",
    "validate_policy",
]


def test_public_names_are_pinned():
    assert sorted(layerfdr.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec("from layerfdr import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(layerfdr, name)
