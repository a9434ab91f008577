"""Tests for the execution engine: scheduling, knobs, timings, determinism."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.attacker import LoopCountingAttacker
from repro.core.pipeline import FingerprintingPipeline
from repro.engine import (
    ExecutionEngine,
    RunContext,
    TaskFailedError,
    resolve_jobs,
    resolve_retries,
    resolve_task_timeout,
)
from repro.engine import engine as engine_module
from repro.engine.engine import (
    JOBS_ENV_VAR,
    RETRIES_ENV_VAR,
    TASK_TIMEOUT_ENV_VAR,
)
from repro.engine import faults
from repro.sim.machine import MachineConfig
from repro.workload.browser import CHROME, LINUX
from tests.conftest import TINY


@pytest.fixture(autouse=True)
def _no_ambient_faults(request, monkeypatch):
    """These tests assert exact retry/error counts; a CI-level
    BIGGERFISH_FAULTS plan would skew them (test_faults.py opts in).
    ``TestParallelDeterminism`` keeps the plan: its results must not
    move under faults."""
    if request.cls is not TestParallelDeterminism:
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)


def _square(x: int) -> int:
    """Module-level so it pickles into worker processes."""
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x * x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestResolveRetries:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV_VAR, raising=False)
        assert resolve_retries() == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV_VAR, "5")
        assert resolve_retries() == 5

    def test_zero_allowed(self):
        assert resolve_retries(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_retries(-1)

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV_VAR, "lots")
        with pytest.raises(ValueError):
            resolve_retries()


class TestResolveTaskTimeout:
    def test_default_is_no_timeout(self, monkeypatch):
        monkeypatch.delenv(TASK_TIMEOUT_ENV_VAR, raising=False)
        assert resolve_task_timeout() is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV_VAR, "2.5")
        assert resolve_task_timeout() == 2.5

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV_VAR, "2.5")
        assert resolve_task_timeout(9.0) == 9.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_task_timeout(0)

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV_VAR, "forever")
        with pytest.raises(ValueError):
            resolve_task_timeout()


class TestMap:
    def test_inline_preserves_order(self):
        engine = ExecutionEngine(jobs=1)
        assert engine.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        serial = ExecutionEngine(jobs=1).map(_square, items)
        parallel = ExecutionEngine(jobs=2).map(_square, items)
        assert serial == parallel

    def test_empty_input(self):
        assert ExecutionEngine(jobs=2).map(_square, []) == []

    def test_stage_timings_accumulate(self):
        engine = ExecutionEngine(jobs=1)
        engine.map(_square, [1, 2, 3], stage="demo")
        engine.map(_square, [4], stage="demo")
        snapshot = engine.timings_snapshot()
        assert snapshot["demo"]["tasks"] == 4
        assert snapshot["demo"]["seconds"] >= 0.0
        engine.reset_timings()
        assert engine.timings_snapshot() == {}

    def test_per_task_spread_serial(self):
        engine = ExecutionEngine(jobs=1)
        engine.map(_square, [1, 2, 3, 4], stage="demo")
        spread = engine.timings_snapshot()["demo"]["task_seconds"]
        assert set(spread) == {"min", "mean", "max"}
        assert 0.0 <= spread["min"] <= spread["mean"] <= spread["max"]

    def test_per_task_spread_parallel(self):
        engine = ExecutionEngine(jobs=2)
        engine.map(_square, list(range(8)), stage="demo")
        snapshot = engine.timings_snapshot()["demo"]
        assert snapshot["tasks"] == 8
        spread = snapshot["task_seconds"]
        assert spread["min"] <= spread["mean"] <= spread["max"]

    def test_per_task_spread_accumulates_across_maps(self):
        engine = ExecutionEngine(jobs=1)
        engine.map(_square, [1, 2], stage="demo")
        engine.map(_square, [3], stage="demo")
        snapshot = engine.timings_snapshot()["demo"]
        assert snapshot["tasks"] == 3
        assert snapshot["task_seconds"]["mean"] >= snapshot["task_seconds"]["min"]
        engine.reset_timings()
        assert engine.timings_snapshot() == {}

    def test_failed_map_records_only_completed_tasks(self):
        """A failed stage must not claim the whole item count ran —
        manifests of crashed runs used to overstate work done."""
        engine = ExecutionEngine(jobs=1, retries=0)
        with pytest.raises(TaskFailedError) as excinfo:
            engine.map(_fail_on_three, [0, 1, 2, 3, 4, 5], stage="demo")
        assert excinfo.value.task_error.index == 3
        assert excinfo.value.task_error.error_type == "ValueError"
        snapshot = engine.timings_snapshot()["demo"]
        assert snapshot["tasks"] == 3  # items 0..2 completed, 3 failed
        assert snapshot["task_errors"][0]["kind"] == "exception"

    def test_deterministic_failure_exhausts_retries(self, monkeypatch):
        monkeypatch.setattr(engine_module, "BACKOFF_S", 0.001)
        engine = ExecutionEngine(jobs=1, retries=2)
        with pytest.raises(TaskFailedError) as excinfo:
            engine.map(_fail_on_three, [3], stage="demo")
        assert excinfo.value.task_error.attempt == 2  # 1 try + 2 retries
        assert engine.timings_snapshot()["demo"]["retries"] == 2
        assert engine.fault_snapshot()["retries"] == 2

    def test_manifest_prints_capped_errors_but_counts_all(self, monkeypatch):
        monkeypatch.setattr(engine_module, "BACKOFF_S", 0.0)
        monkeypatch.setattr(engine_module, "MAX_RECORDED_ERRORS_PER_STAGE", 2)
        engine = ExecutionEngine(jobs=1)
        with faults.injected(faults.FaultPlan(rate=1.0, modes=("raise",))):
            assert engine.map(_square, [1, 2, 3, 4], stage="demo") == [1, 4, 9, 16]
        snapshot = engine.timings_snapshot()["demo"]
        assert [error["index"] for error in snapshot["task_errors"]] == [0, 1]
        assert snapshot["retries"] == 4
        assert engine.fault_snapshot()["task_errors"] == 4

    def test_fault_totals_outlive_reset_timings(self, monkeypatch):
        monkeypatch.setattr(engine_module, "BACKOFF_S", 0.0)
        engine = ExecutionEngine(jobs=1)
        with faults.injected(faults.FaultPlan(rate=1.0, modes=("raise",))):
            engine.map(_square, [1, 2], stage="first")
            engine.reset_timings()
            engine.map(_square, [3], stage="second")
        assert list(engine.timings_snapshot()) == ["second"]
        totals = engine.fault_snapshot()
        assert totals["retries"] == totals["task_errors"] == 3

    def test_original_error_is_chained(self):
        engine = ExecutionEngine(jobs=1, retries=0)
        with pytest.raises(TaskFailedError) as excinfo:
            engine.map(_fail_on_three, [3])
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestRunContext:
    def test_default_engine_attached(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        ctx = RunContext(scale=TINY, seed=7)
        assert ctx.engine is not None
        assert ctx.engine.jobs == 1
        assert ctx.cache is None

    def test_with_replaces_fields(self):
        ctx = RunContext(scale=TINY, seed=7)
        bumped = ctx.with_(seed=8)
        assert bumped.seed == 8
        assert bumped.scale is ctx.scale


class TestParallelDeterminism:
    """Same seed -> bit-identical results, regardless of worker count."""

    def _pipeline(self, jobs: int) -> FingerprintingPipeline:
        return FingerprintingPipeline(
            MachineConfig(os=LINUX),
            CHROME,
            attacker=LoopCountingAttacker(),
            scale=TINY,
            seed=11,
            engine=ExecutionEngine(jobs=jobs),
        )

    def test_closed_world_bit_identical(self):
        serial = self._pipeline(jobs=1).run_closed_world()
        parallel = self._pipeline(jobs=2).run_closed_world()
        assert serial.fold_top1 == parallel.fold_top1
        assert serial.fold_top5 == parallel.fold_top5

    def test_open_world_bit_identical(self):
        serial = self._pipeline(jobs=1).run_open_world()
        parallel = self._pipeline(jobs=2).run_open_world()
        for field in dataclasses.fields(serial):
            assert getattr(parallel, field.name) == getattr(serial, field.name), field.name
        assert serial.false_accusation_rate is not None

    def test_collect_traces_bit_identical(self):
        from repro.core.collector import TraceCollector
        from repro.workload.website import profile_for

        site = profile_for("nytimes.com")

        def collect(jobs):
            collector = TraceCollector(
                MachineConfig(os=LINUX), CHROME,
                period_ns=10_000_000, seed=3,
                engine=ExecutionEngine(jobs=jobs),
            )
            return list(collector.collect(site, 4))

        for a, b in zip(collect(1), collect(2)):
            np.testing.assert_array_equal(a.counters, b.counters)
            np.testing.assert_array_equal(a.observed_starts, b.observed_starts)
