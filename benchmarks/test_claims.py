"""The paper's shape claims, each checked at smoke scale.

Every experiment declares its claims beside its run function
(``register(..., claims=...)``; see :class:`repro.experiments.base.Claim`).
This file runs each experiment once at the smoke configuration below,
archives its rendered table under ``benchmarks/results/`` and asserts
every claim as its own test, so a failure names the claim that broke.
"""

from __future__ import annotations

import pytest

from repro.config import SMOKE
from repro.engine import RunContext, TraceCache
from repro.experiments import runner  # noqa: F401  (populates the registry)
from repro.experiments.base import all_claims, get_experiment
from repro.workload.browser import CHROME, LINUX, MACOS, SAFARI, TOR_BROWSER

#: Experiment id -> (archive name, scale overrides, run extras).  Table 1
#: runs a representative subset of its 8-config grid (the full grid is
#: ``biggerfish table1 --scale default``): a fast browser on two OSes, plus Tor.
SMOKE_RUNS = {
    "background-noise": ("background_noise", {"traces_per_site": 8}, {}),
    "fig3": ("fig3", {"period_ms": 5.0}, {}),
    "fig4": ("fig4", {"traces_per_site": 12}, {}),
    "fig5": ("fig5", {"trace_seconds": 8.0, "traces_per_site": 12}, {}),
    "fig6": ("fig6", {"trace_seconds": 6.0}, {}),
    "fig7": ("fig7", {}, {}),
    "fig8": ("fig8", {}, {"period_ms": 5.0, "n_periods": 500}),
    "table1": (
        "table1",
        {},
        {
            "configs": ((CHROME, LINUX), (SAFARI, MACOS), (TOR_BROWSER, LINUX)),
            "open_world": True,
        },
    ),
    "table2": ("table2", {"traces_per_site": 8}, {}),
    "table3": ("table3", {"traces_per_site": 8}, {}),
    "table4": ("table4", {"period_ms": 5.0, "traces_per_site": 8}, {}),
}


@pytest.fixture(scope="session")
def smoke_result(results_dir):
    """``smoke_result(id) -> (result, scale)``, run and archived once per id."""
    done = {}

    def get(experiment_id: str):
        if experiment_id not in done:
            archive_name, overrides, extras = SMOKE_RUNS[experiment_id]
            scale = SMOKE.with_(**overrides)
            ctx = RunContext.default(scale=scale, seed=0, cache=TraceCache())
            result = get_experiment(experiment_id).run(ctx, **extras)
            path = results_dir / f"{archive_name}.txt"
            path.write_text(result.format_table() + "\n")
            done[experiment_id] = (result, scale)
        return done[experiment_id]

    return get


@pytest.mark.parametrize(
    ("experiment_id", "claim"),
    [pytest.param(experiment_id, claim, id=claim.id) for experiment_id, claim in all_claims()],
)
def test_claim(smoke_result, experiment_id, claim):
    result, scale = smoke_result(experiment_id)
    assert claim.holds(result, scale), f"{claim.id}: {claim.statement}"
