"""Benchmark harness configuration.

``test_claims.py`` runs every paper table/figure at ``SMOKE`` scale,
archives its rendered table under ``benchmarks/results/`` and asserts the
shape claims each experiment declares (who wins, what drops, where floors
sit).  The archives are deterministic: a run that changes one is a change
to the reproduced numbers (CI checks ``git diff --exit-code
benchmarks/results``).  ``test_ablations.py`` isolates the mechanisms
behind the tables and ``test_engine_speedup.py`` (marked ``slow``) checks
the engine, cache and profiling overhead.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
