"""Online multiple hypothesis testing with simultaneous FDR control across
group layers: streaming decision procedures, synthetic scenario generators,
error metrics, and a seeded experiment harness."""

from .core import (
    DecisionRecord,
    HypothesisEvent,
    LayerOutcome,
    LayerState,
    StreamHalted,
)
from .harness import (
    DEFAULT_BETA_GRID,
    LAYER_NAMES,
    ReplicateRun,
    SweepSpec,
    emit_results,
    replicate_seed,
    run_replicate,
    run_sweep,
    standard_scenarios,
)
from .metrics import (
    AggregateResult,
    LayerTally,
    aggregate,
)
from .procedures import (
    METHODS,
    BetaSequence,
    OnlineProcedure,
    PolicyReport,
    SpendingPolicy,
    constant_policy,
    make_procedure,
    replay,
    simple_choice,
    validate_policy,
)
from .simgen import (
    ScenarioSpec,
    StreamData,
    make_stream,
    signal_means,
    two_sided_p_array,
)

__version__ = "0.1.0"

__all__ = [
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
    "OnlineProcedure",
    "PolicyReport",
    "ReplicateRun",
    "ScenarioSpec",
    "SpendingPolicy",
    "StreamData",
    "StreamHalted",
    "SweepSpec",
    "aggregate",
    "constant_policy",
    "emit_results",
    "make_procedure",
    "make_stream",
    "replay",
    "replicate_seed",
    "run_replicate",
    "run_sweep",
    "signal_means",
    "simple_choice",
    "standard_scenarios",
    "two_sided_p_array",
    "validate_policy",
]
