"""Fault-injection tests: the engine's recovery paths, exercised on purpose.

Every test here asserts the tentpole guarantee from the engine docs: a
parallel run under injected faults (transient exceptions, hung tasks,
killed workers) completes **bit-identical** to a clean serial run, and
the manifest records what went wrong along the way.

Seeds are chosen so ``FaultPlan.decision`` hits a known set of task
indices; each test recomputes the expectation from the plan instead of
hard-coding counts, so a hash change fails loudly rather than silently
testing nothing.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.engine import ExecutionEngine, RunManifest, TaskFailedError
from repro.engine import engine as engine_module
from repro.engine import faults
from repro.engine.faults import FaultPlan, InjectedFault


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Isolate from any CI-level BIGGERFISH_FAULTS setting."""
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    faults._CACHED = None


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Back off 1 ms before a retry instead of 50 ms."""
    monkeypatch.setattr(engine_module, "BACKOFF_S", 0.001)


def _square(x: int) -> int:
    """Module-level so it pickles into worker processes."""
    return x * x


def _map_in_child_interpreter(env: dict) -> subprocess.CompletedProcess:
    """A serial ``map`` of ``abs`` over -10..9 in a fresh interpreter."""
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "from repro.engine import ExecutionEngine\n"
        "print(ExecutionEngine(jobs=1).map(abs, range(-10, 10)))"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


def _injected_indices(plan: FaultPlan, stage: str, n: int) -> dict:
    """Mode -> task indices the plan sabotages on the first attempt."""
    hits: dict = {}
    for i in range(n):
        mode = plan.decision(stage, i, 0)
        if mode:
            hits.setdefault(mode, []).append(i)
    return hits


class TestFaultPlan:
    def test_spec_parse_round_trip(self):
        plan = FaultPlan(
            rate=0.25, modes=("raise", "kill"), seed=9, max_attempt=3, hang_s=0.5,
        )
        assert FaultPlan.parse(plan.spec()) == plan

    def test_parse_defaults(self):
        assert FaultPlan.parse("rate=0.1") == FaultPlan(rate=0.1)

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("rate=0.1,chaos=max")

    def test_parse_rejects_malformed_component(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.parse("rate")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"modes": ("raise", "explode")},
            {"modes": ()},
            {"max_attempt": 0},
            {"hang_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_decision_is_deterministic(self):
        plan = FaultPlan(rate=0.5, modes=("raise", "hang"), seed=4)
        first = [plan.decision("w", i, 0) for i in range(50)]
        second = [plan.decision("w", i, 0) for i in range(50)]
        assert first == second
        assert any(first)  # rate 0.5 over 50 tasks must hit something

    def test_decision_respects_rate_zero(self):
        plan = FaultPlan(rate=0.0)
        assert all(plan.decision("w", i, 0) is None for i in range(20))

    def test_decision_respects_rate_one(self):
        plan = FaultPlan(rate=1.0)
        assert all(plan.decision("w", i, 0) == "raise" for i in range(20))

    def test_decision_stops_past_max_attempt(self):
        plan = FaultPlan(rate=1.0, max_attempt=2)
        assert plan.decision("w", 0, 0) == "raise"
        assert plan.decision("w", 0, 1) == "raise"
        assert plan.decision("w", 0, 2) is None

    def test_seed_changes_targets(self):
        a = _injected_indices(FaultPlan(rate=0.3, seed=1), "w", 100)
        b = _injected_indices(FaultPlan(rate=0.3, seed=2), "w", 100)
        assert a != b


class TestActivation:
    def test_activate_exports(self):
        exported = faults.activate(FaultPlan(rate=0.1))
        try:
            assert exported == FaultPlan(rate=0.1)
            assert faults.active_plan() == exported
        finally:
            faults.deactivate()
        assert faults.active_plan() is None

    def test_injected_context_restores_env(self):
        with faults.injected(FaultPlan(rate=0.1)) as plan:
            assert os.environ[faults.FAULTS_ENV_VAR] == plan.spec()
        assert faults.FAULTS_ENV_VAR not in os.environ

    def test_maybe_inject_noop_without_plan(self):
        faults.maybe_inject("w", 0, 0)  # must not raise


class TestParentSafety:
    """kill/hang fire only in pool tasks; anywhere else they raise."""

    def test_kill_degrades_to_raise_in_parent(self):
        with faults.injected(FaultPlan(rate=1.0, modes=("kill",))):
            with pytest.raises(InjectedFault, match="kill"):
                faults.maybe_inject("w", 0, 0)
        # Reaching this line at all proves os._exit did not run.

    def test_hang_does_not_sleep_in_parent(self):
        with faults.injected(FaultPlan(rate=1.0, modes=("hang",), hang_s=30.0)):
            started = time.perf_counter()
            with pytest.raises(InjectedFault, match="hang"):
                faults.maybe_inject("w", 0, 0)
            assert time.perf_counter() - started < 1.0

    def test_serial_engine_survives_kill_faults(self):
        items = list(range(8))
        engine = ExecutionEngine(jobs=1)
        with faults.injected(FaultPlan(rate=1.0, modes=("kill",), seed=5)):
            results = engine.map(_square, items, stage="w")
        assert results == [x * x for x in items]
        assert engine.fault_snapshot()["retries"] == len(items)

    def test_serial_map_under_an_env_set_kill_plan(self):
        """A plan set in the environment by hand: inline kills raise and
        are retried.  In a child interpreter: an inline kill would end
        the process."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("BIGGERFISH_")}
        env[faults.FAULTS_ENV_VAR] = "rate=0.5,modes=kill,seed=1"
        done = _map_in_child_interpreter(env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str([abs(x) for x in range(-10, 10)])

    def test_child_of_a_mapping_process_is_no_pool_worker(self, monkeypatch):
        """A process maps under a kill plan, then starts a child
        interpreter that maps too: the child's inline kills raise and are
        retried, so it exits 0 rather than with the kill status."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "rate=0.5,modes=kill,seed=1")
        assert ExecutionEngine(jobs=1).map(abs, range(-10, 10)) == [
            abs(x) for x in range(-10, 10)
        ]
        done = _map_in_child_interpreter(dict(os.environ))
        assert done.returncode == 0, (done.returncode, done.stderr)
        assert done.stdout.strip() == str([abs(x) for x in range(-10, 10)])


class TestParallelRecovery:
    """Injected faults in worker processes; results stay bit-identical."""

    ITEMS = list(range(24))
    EXPECTED = [x * x for x in range(24)]

    def test_transient_raises_are_retried(self):
        plan = FaultPlan(rate=0.3, modes=("raise",), seed=3)
        injected = _injected_indices(plan, "w", len(self.ITEMS))["raise"]
        assert len(injected) == 7  # seed chosen for a meaningful hit count
        engine = ExecutionEngine(jobs=2)
        with faults.injected(plan):
            results = engine.map(_square, self.ITEMS, stage="w")
        assert results == self.EXPECTED
        assert engine.fault_snapshot()["retries"] == len(injected)
        assert engine.fault_snapshot()["task_errors"] == len(injected)
        errors = engine.timings_snapshot()["w"]["task_errors"]
        assert sorted(e["index"] for e in errors) == injected
        assert {e["kind"] for e in errors} == {"exception"}
        assert {e["error_type"] for e in errors} == {"InjectedFault"}

    def test_env_set_kill_plan_still_kills_workers(self, monkeypatch):
        """A hand-set plan kills pool workers, even when the parent read
        nothing before the map."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "rate=0.2,modes=kill,seed=7")
        monkeypatch.setattr(faults, "_CACHED", None)
        engine = ExecutionEngine(jobs=2)
        assert engine.map(_square, self.ITEMS, stage="w") == self.EXPECTED
        assert engine.fault_snapshot()["pool_respawns"] > 0
        assert engine.fault_snapshot()["tasks_lost"] >= 1

    def test_killed_workers_respawn_pool(self):
        plan = FaultPlan(rate=0.2, modes=("kill",), seed=7)
        assert _injected_indices(plan, "w", len(self.ITEMS)).get("kill")
        engine = ExecutionEngine(jobs=2)
        with faults.injected(plan):
            results = engine.map(_square, self.ITEMS, stage="w")
        assert results == self.EXPECTED
        assert engine.fault_snapshot()["tasks_lost"] >= 1
        assert engine.fault_snapshot()["pool_respawns"] == 1
        errors = engine.timings_snapshot()["w"]["task_errors"]
        assert any(e["kind"] == "worker-lost" for e in errors)

    @pytest.mark.slow
    def test_hung_tasks_time_out_and_retry(self):
        plan = FaultPlan(rate=0.2, modes=("hang",), seed=1, hang_s=1.2)
        assert _injected_indices(plan, "w", len(self.ITEMS)).get("hang")
        engine = ExecutionEngine(jobs=2, task_timeout=0.4)
        with faults.injected(plan):
            results = engine.map(_square, self.ITEMS, stage="w")
        assert results == self.EXPECTED
        assert engine.fault_snapshot()["timeouts"] >= 1
        stage = engine.timings_snapshot()["w"]
        assert stage["timeouts"] >= 1
        assert any(e["kind"] == "timeout" for e in stage["task_errors"])

    def test_twice_killed_pool_falls_back_inline(self):
        # rate=1.0 + max_attempt=2 kills every task's first two attempts:
        # round 1 breaks the pool (respawn), round 2 breaks it again, and
        # the engine must finish inline, where kill degrades to a raise
        # that max_attempt has already silenced.
        plan = FaultPlan(rate=1.0, modes=("kill",), max_attempt=2)
        items = list(range(4))
        engine = ExecutionEngine(jobs=2, retries=3)
        with faults.injected(plan):
            results = engine.map(_square, items, stage="w")
        assert results == [x * x for x in items]
        assert engine.fault_snapshot()["pool_respawns"] == 1
        assert engine.fault_snapshot()["tasks_lost"] >= 1

    def test_inline_fallback_shares_the_attempt_budget(self):
        # The first three attempts of every task are killed: rounds 1
        # and 2 break the pool (one respawn), and the inline fallback
        # starts at attempt 2, the last the budget allows, where kill
        # degrades to a raise.  A fallback that restarted the budget
        # would succeed instead.
        plan = FaultPlan(rate=1.0, modes=("kill",), max_attempt=3)
        engine = ExecutionEngine(jobs=2, retries=2)
        with faults.injected(plan):
            with pytest.raises(TaskFailedError, match=r"after 3 attempt\(s\)"):
                engine.map(_square, list(range(4)), stage="w")
        totals = engine.fault_snapshot()
        assert totals["retries"] == totals["tasks_lost"] == 8
        assert totals["task_errors"] == 9
        assert totals["pool_respawns"] == 1

    @pytest.mark.slow
    def test_wedged_pool_requeues_queued_tasks_free(self):
        # Every first attempt hangs.  The two workers take tasks 0 and 1,
        # both time out and wedge the pool, and tasks 2 and 3, queued
        # behind them, are requeued without a charge; the next round
        # repeats that for tasks 2 and 3.  So each task is charged one
        # timeout: its own hang.
        plan = FaultPlan(rate=1.0, modes=("hang",), hang_s=3.0)
        items = list(range(4))
        engine = ExecutionEngine(jobs=2, task_timeout=0.5, retries=3)
        with faults.injected(plan):
            results = engine.map(_square, items, stage="w")
        assert results == [x * x for x in items]
        errors = engine.timings_snapshot()["w"]["task_errors"]
        assert sorted(e["index"] for e in errors) == items
        assert {e["kind"] for e in errors} == {"timeout"}
        totals = engine.fault_snapshot()
        assert totals["retries"] == totals["timeouts"] == totals["task_errors"] == 4
        assert totals["tasks_lost"] == 0
        assert totals["pool_respawns"] >= 1

    @pytest.mark.slow
    def test_combined_faults_bit_identical_with_manifest(self):
        # One run with all three fault modes live at once.  The kill
        # usually breaks the pool while hangs are queued, so per-mode
        # counters are timing-dependent; what is *guaranteed* is the
        # result and that the manifest saw the faults.
        plan = FaultPlan(rate=0.35, modes=("raise", "hang", "kill"), seed=31)
        hits = _injected_indices(plan, "w", len(self.ITEMS))
        assert set(hits) == {"raise", "hang", "kill"}  # seed covers all modes
        engine = ExecutionEngine(jobs=4, task_timeout=0.5)
        with faults.injected(plan):
            results = engine.map(_square, self.ITEMS, stage="w")
        assert results == self.EXPECTED
        assert engine.fault_snapshot()["retries"] > 0

        manifest = RunManifest(scale="tiny", seed=0, jobs=4)
        manifest.add_experiment("demo", 1.0, engine.timings_snapshot())
        manifest.finalize(engine)
        record = manifest.as_dict()
        assert record["faults"]["retries"] == engine.fault_snapshot()["retries"]
        stage = record["experiments"]["demo"]["stages"]["w"]
        assert stage["tasks"] == len(self.ITEMS)
        assert stage["task_errors"]  # structured records made it through

    def test_exhausted_budget_raises_task_failed(self):
        plan = FaultPlan(rate=1.0, modes=("raise",), max_attempt=99)
        engine = ExecutionEngine(jobs=1, retries=1)
        with faults.injected(plan):
            with pytest.raises(TaskFailedError, match="after 2 attempt"):
                engine.map(_square, [0], stage="w")
        assert engine.timings_snapshot()["w"]["tasks"] == 0  # nothing completed
        assert engine.fault_snapshot()["retries"] == 1


class TestPipelineUnderFaults:
    """The paper pipeline itself, attacked: traces stay bit-identical."""

    @pytest.mark.slow
    def test_collected_traces_survive_injection(self):
        from repro.core.collector import TraceCollector
        from repro.sim.machine import MachineConfig
        from repro.workload.browser import CHROME, LINUX
        from repro.workload.website import profile_for

        site = profile_for("nytimes.com")

        def collect(jobs):
            collector = TraceCollector(
                MachineConfig(os=LINUX), CHROME,
                period_ns=10_000_000, seed=3,
                engine=ExecutionEngine(jobs=jobs),
            )
            return list(collector.collect(site, 6))

        clean = collect(1)
        plan = FaultPlan(rate=0.4, modes=("raise",), seed=2)
        assert _injected_indices(plan, "collect", 6)  # plan does hit tasks
        with faults.injected(plan):
            faulty = collect(2)
        for a, b in zip(clean, faulty):
            np.testing.assert_array_equal(a.counters, b.counters)
            np.testing.assert_array_equal(a.observed_starts, b.observed_starts)

    @pytest.mark.slow
    def test_open_world_survives_injection(self):
        """Both open-world stages under raise, hang and kill faults equal
        a clean serial run field by field; the plan hits both folds."""
        from repro.core.pipeline import FingerprintingPipeline
        from repro.sim.machine import MachineConfig
        from repro.workload.browser import CHROME, LINUX
        from tests.conftest import TINY

        def open_world(engine):
            return FingerprintingPipeline(
                MachineConfig(os=LINUX), CHROME, scale=TINY, seed=11, engine=engine
            ).run_open_world()

        clean = open_world(ExecutionEngine(jobs=1))
        plan = FaultPlan(rate=0.2, modes=("raise", "hang", "kill"), seed=113, hang_s=1.2)
        assert set(_injected_indices(plan, "train", TINY.n_folds)) == {"hang", "kill"}
        engine = ExecutionEngine(jobs=2, task_timeout=0.5)
        with faults.injected(plan):
            faulty = open_world(engine)
        assert engine.timings_snapshot()["train"]["task_errors"]
        for field in dataclasses.fields(clean):
            assert getattr(faulty, field.name) == getattr(clean, field.name), field.name
