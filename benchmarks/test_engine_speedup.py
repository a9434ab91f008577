"""Benchmark: parallel engine, trace cache and profiling overhead.

Records wall-clock measurements for ``table2`` at ``SMOKE`` scale into
``benchmarks/results/engine.txt``:

* cold serial (``jobs=1``, empty cache),
* cold parallel (``jobs=4``, cache disabled),
* warm serial (``jobs=1``, cache populated by the cold run),
* fault-injected parallel (``jobs=4``, 10 % of tasks raise and retry),
* observability on vs off (``--profile`` equivalent, best-of-2 each).

Determinism is asserted unconditionally — every variant produces the
same rendered table, profiled, fault-injected or not.  The warm-cache
run must beat the cold run by >= 3x (it skips simulation entirely)
and profiling overhead
must stay under 5 %.  The parallel run's speedup is recorded but not
asserted: CI boxes may expose a single core, where process fan-out
cannot win.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.config import SMOKE
from repro.engine import ExecutionEngine, RunContext, TraceCache
from repro.engine import engine as engine_module
from repro.engine import faults
from repro.engine.faults import FaultPlan
from repro.experiments import table2  # noqa: F401  (registers table2)
from repro.experiments.base import get_experiment

pytestmark = pytest.mark.slow

#: Maximum tolerated slowdown from enabling the obs subsystem.
OBS_OVERHEAD_CAP = 0.05


def _run(jobs: int, cache: TraceCache | None) -> tuple[float, str, ExecutionEngine]:
    engine = ExecutionEngine(jobs=jobs, cache=cache)
    ctx = RunContext(scale=SMOKE, seed=0, engine=engine)
    started = time.perf_counter()
    result = get_experiment("table2")(ctx)
    return time.perf_counter() - started, result.format_table(), engine


def test_engine_speedup(results_dir, tmp_path_factory, monkeypatch):
    cache = TraceCache(tmp_path_factory.mktemp("engine-bench") / "cache")

    cold_s, cold_table, _ = _run(jobs=1, cache=cache)
    parallel_s, parallel_table, _ = _run(jobs=4, cache=None)
    monkeypatch.setattr(engine_module, "BACKOFF_S", 0.001)
    with faults.injected(FaultPlan(rate=0.1, modes=("raise",), seed=1)):
        faulty_s, faulty_table, faulty_engine = _run(jobs=4, cache=None)
    warm_s, warm_table, _ = _run(jobs=1, cache=cache)

    assert parallel_table == cold_table, "parallel run must be bit-identical"
    assert faulty_table == cold_table, "faulted run must be bit-identical"
    assert warm_table == cold_table, "cached run must be bit-identical"

    warm_speedup = cold_s / warm_s
    retries = faulty_engine.fault_totals["retries"]
    lines = [
        "table2 @ smoke scale (seed 0)",
        f"cold serial (jobs=1):    {cold_s:8.2f}s",
        f"cold parallel (jobs=4):  {parallel_s:8.2f}s  ({cold_s / parallel_s:.2f}x)",
        f"faulted parallel (10%):  {faulty_s:8.2f}s  ({retries} retries)",
        f"warm cache (jobs=1):     {warm_s:8.2f}s  ({warm_speedup:.2f}x)",
        f"cache: {cache.stats.hits} hits, {cache.stats.misses} misses, "
        f"{cache.stats.bytes_written} bytes written",
        "parallel == serial: yes",
        "faulted == serial: yes",
        "warm == cold: yes",
    ]
    (results_dir / "engine.txt").write_text("\n".join(lines) + "\n")

    assert warm_speedup >= 3.0, f"warm cache only {warm_speedup:.2f}x faster"


def test_obs_overhead(results_dir, tmp_path_factory):
    """Profiling must cost < 5 % and change nothing in the output.

    Plain and profiled runs are interleaved and each side takes its best
    of three, so transient machine load inflates neither side's floor.
    """
    plain_times: list[float] = []
    profiled_times: list[float] = []
    plain_table = profiled_table = None

    for attempt in range(3):
        elapsed, plain_table, _ = _run(jobs=1, cache=None)
        plain_times.append(elapsed)

        obs.enable(tmp_path_factory.mktemp(f"obs-bench-{attempt}"))
        try:
            elapsed, profiled_table, _ = _run(jobs=1, cache=None)
        finally:
            obs.disable()
        profiled_times.append(elapsed)

    assert profiled_table == plain_table, "profiled run must be bit-identical"

    plain_s, profiled_s = min(plain_times), min(profiled_times)
    overhead = profiled_s / plain_s - 1.0
    lines = [
        "",
        "obs overhead (table2 @ smoke, jobs=1, no cache, best of 3):",
        f"profiling off:           {plain_s:8.2f}s",
        f"profiling on:            {profiled_s:8.2f}s  ({overhead:+.1%})",
        "profiled == plain: yes",
    ]
    with (results_dir / "engine.txt").open("a") as handle:
        handle.write("\n".join(lines) + "\n")

    assert overhead < OBS_OVERHEAD_CAP, (
        f"obs overhead {overhead:.1%} exceeds {OBS_OVERHEAD_CAP:.0%} cap"
    )
