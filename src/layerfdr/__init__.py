"""Online multiple hypothesis testing with simultaneous FDR control across
group layers: streaming decision procedures, synthetic scenario generators,
error metrics, and a seeded experiment harness.

The online engine (``core``, ``procedures``) is pure Python and is imported
with the package.  The generator, harness and metrics names need numpy, so
each is imported from its submodule when it is first read: ``import
layerfdr`` and the ``stream`` and ``validate`` commands start without numpy.
"""

from importlib import import_module

from .core import (
    DecisionRecord,
    HypothesisEvent,
    LayerOutcome,
    LayerState,
    StreamHalted,
)
from .procedures import (
    METHODS,
    BetaSequence,
    PolicyReport,
    SpendingPolicy,
    constant_policy,
    make_procedure,
    replay,
    simple_choice,
    validate_policy,
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

# the public names imported on first use, each with the submodule that defines it
_LAZY_NAMES = {
    "DEFAULT_BETA_GRID": "harness",
    "LAYER_NAMES": "harness",
    "SweepSpec": "harness",
    "emit_results": "harness",
    "run_replicate": "harness",
    "run_sweep": "harness",
    "standard_scenarios": "harness",
    "AggregateResult": "metrics",
    "LayerTally": "metrics",
    "aggregate": "metrics",
    "ScenarioSpec": "simgen",
    "make_stream": "simgen",
}


def __getattr__(name: str):
    """Import a lazy public name's submodule and keep the value (PEP 562)."""
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
