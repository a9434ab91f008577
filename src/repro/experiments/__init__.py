"""One module per paper table/figure, plus the registry and CLI runner."""

from repro.experiments.base import (
    Claim,
    ExperimentResult,
    ExperimentSpec,
    all_claims,
    all_specs,
    base_rate,
    format_rows,
    get_experiment,
    list_experiments,
    register,
    sparkline,
    suggest_experiment,
)

__all__ = [
    "Claim", "ExperimentResult", "ExperimentSpec", "all_claims", "all_specs",
    "base_rate", "format_rows", "get_experiment", "list_experiments",
    "register", "sparkline", "suggest_experiment",
]
