"""Benchmark: parallel engine, trace cache and profiling overhead.

Times ``table2`` at ``SMOKE`` scale and prints the figures (run with
``-s`` to see them; nothing is archived, so wall-clock numbers never
reach ``benchmarks/results/``):

* cold serial (``jobs=1``, empty cache),
* cold parallel (``jobs=4``, cache disabled),
* warm serial (``jobs=1``, cache populated by the cold run),
* fault-injected parallel (``jobs=4``, 10 % of tasks raise and retry),
* observability on vs off (``--profile`` equivalent, interleaved pairs).

Determinism is asserted unconditionally — every variant produces the
same rendered table, profiled, fault-injected or not.  The warm-cache
run must beat the cold run by >= 3x (it skips simulation entirely)
and profiling overhead must stay under 5 %.  The parallel run's
speedup is printed but not asserted: CI boxes may expose a single
core, where process fan-out cannot win.
"""

from __future__ import annotations

import math
import time

import numpy as np
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
#: Interleaved plain/profiled pairs timed by ``test_obs_overhead``.
OBS_PAIRS = 24
#: The obs pairs' workload: table2 on a quarter of smoke's traces (~1.5 s
#: a run), so the test affords enough pairs to resolve a 5 % regression.
OBS_SCALE = SMOKE.with_(n_sites=4, traces_per_site=4)


def _run(jobs: int, cache: TraceCache | None, scale=SMOKE, clock=time.perf_counter):
    engine = ExecutionEngine(jobs=jobs, cache=cache)
    ctx = RunContext(scale=scale, seed=0, engine=engine)
    started = clock()
    result = get_experiment("table2").run(ctx)
    return clock() - started, result.format_table(), engine


def test_engine_speedup(tmp_path_factory, monkeypatch):
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
    retries = faulty_engine.fault_snapshot()["retries"]
    print(
        "\ntable2 @ smoke scale (seed 0)",
        f"cold serial (jobs=1):    {cold_s:8.2f}s",
        f"cold parallel (jobs=4):  {parallel_s:8.2f}s  ({cold_s / parallel_s:.2f}x)",
        f"faulted parallel (10%):  {faulty_s:8.2f}s  ({retries} retries)",
        f"warm cache (jobs=1):     {warm_s:8.2f}s  ({warm_speedup:.2f}x)",
        f"cache: {cache.stats.hits} hits, {cache.stats.misses} misses, "
        f"{cache.stats.bytes_written} bytes written",
        sep="\n",
    )

    assert warm_speedup >= 3.0, f"warm cache only {warm_speedup:.2f}x faster"


def test_obs_overhead(tmp_path_factory):
    """Profiling must cost < 5 % and change nothing in the output.

    Plain and profiled runs are timed as interleaved in-process pairs,
    alternating which side runs first, so load that comes and goes on
    the host falls on both sides of a pair alike.  Each pair gives one
    overhead ratio.  The overhead is their median, and its standard
    error comes from their spread (the interquartile range): the test
    fails when the median exceeds the cap by more than that error, so
    one disturbed pair can neither fail it nor hide a regression.  Times
    are the process's CPU time: with ``jobs=1`` all the work, profiling
    included, runs in this process, and CPU time leaves out the time the
    host gives to other work.
    """
    ratios: list[float] = []
    tables = set()
    for pair in range(OBS_PAIRS):
        seconds = {}
        for profiled in (False, True) if pair % 2 == 0 else (True, False):
            if profiled:
                obs.enable(tmp_path_factory.mktemp(f"obs-bench-{pair}"))
            try:
                seconds[profiled], table, _ = _run(
                    jobs=1, cache=None, scale=OBS_SCALE, clock=time.process_time
                )
            finally:
                if profiled:
                    obs.disable()
            tables.add(table)
        ratios.append(seconds[True] / seconds[False] - 1.0)

    assert len(tables) == 1, "profiled run must be bit-identical"

    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    # Standard error of a median: 1.2533 sigma / sqrt(n), sigma = IQR / 1.349.
    stderr = 0.929 * (q3 - q1) / math.sqrt(len(ratios))
    print(
        f"\nobs overhead (table2, {OBS_SCALE.n_sites} sites x "
        f"{OBS_SCALE.traces_per_site} traces, jobs=1, no cache, CPU time, "
        f"{len(ratios)} pairs): median {median:+.1%} ± {stderr:.1%}, "
        f"quartiles {q1:+.1%} / {q3:+.1%}"
    )
    assert median - stderr < OBS_OVERHEAD_CAP, (
        f"obs overhead {median:.1%} ± {stderr:.1%} exceeds the "
        f"{OBS_OVERHEAD_CAP:.0%} cap"
    )
