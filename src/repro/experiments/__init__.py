"""One module per paper table/figure, plus the registry and CLI runner."""

from repro.experiments.base import (
    Claim,
    Experiment,
    ExperimentHandle,
    ExperimentResult,
    ExperimentSpec,
    FunctionExperiment,
    all_claims,
    all_specs,
    base_rate,
    format_rows,
    get_experiment,
    get_spec,
    list_experiments,
    register,
    run_experiment,
    sparkline,
    suggest_experiment,
)

__all__ = [
    "Claim", "Experiment", "ExperimentHandle", "ExperimentResult",
    "ExperimentSpec", "FunctionExperiment", "all_claims", "all_specs",
    "base_rate", "format_rows", "get_experiment", "get_spec",
    "list_experiments", "register", "run_experiment", "sparkline",
    "suggest_experiment",
]
