"""Span tracer: nesting, no-op defaults, env activation, cross-process merge."""

from __future__ import annotations

import dataclasses
import json
import os

from repro import obs
from repro.core.collector import TraceCollector
from repro.obs import spans as spans_module
from repro.obs.export import merge_spool
from repro.obs.spans import NULL_SPAN
from repro.sim.machine import MachineConfig
from repro.workload.browser import CHROME
from repro.workload.website import profile_for


def _read_events(spool_dir):
    events = []
    for path in sorted(spool_dir.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            events.append(json.loads(line))
    return events


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert obs.span("anything", k=1) is NULL_SPAN
        with obs.span("anything") as s:
            s.set(outcome="ignored")

    def test_nothing_written(self, tmp_path):
        with obs.span("quiet"):
            pass
        assert sorted(tmp_path.rglob("*.jsonl")) == []

    def test_enabled_flag(self):
        assert not obs.enabled()


class TestEnabled:
    def test_event_fields(self, spool):
        with obs.span("unit.work", fold=3):
            pass
        (event,) = _read_events(spool)
        assert event["type"] == "span"
        assert event["name"] == "unit.work"
        assert event["pid"] == os.getpid()
        assert event["depth"] == 0
        assert event["parent_id"] is None
        assert event["attrs"] == {"fold": 3}
        assert event["wall_s"] >= 0.0
        assert event["cpu_s"] >= 0.0
        assert event["rss_peak_kb"] > 0

    def test_nesting_parent_and_depth(self, spool):
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
            with obs.span("sibling"):
                pass
        by_name = {e["name"]: e for e in _read_events(spool)}
        assert by_name["outer"]["depth"] == 0
        assert by_name["middle"]["depth"] == 1
        assert by_name["middle"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["depth"] == 2
        assert by_name["inner"]["parent_id"] == by_name["middle"]["span_id"]
        assert by_name["sibling"]["parent_id"] == by_name["outer"]["span_id"]

    def test_exit_order_inner_first(self, spool):
        with obs.span("a"):
            with obs.span("b"):
                pass
        names = [e["name"] for e in _read_events(spool)]
        assert names == ["b", "a"]  # completion order

    def test_error_recorded(self, spool):
        try:
            with obs.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        (event,) = _read_events(spool)
        assert event["error"] == "ValueError"

    def test_set_attaches_attrs(self, spool):
        with obs.span("attrs") as s:
            s.set(events=42)
        (event,) = _read_events(spool)
        assert event["attrs"] == {"events": 42}


class TestCollectorSpans:
    def test_walk_span_names_the_period_walk(self, spool):
        browser = dataclasses.replace(CHROME, trace_seconds=0.5)
        (trace,) = TraceCollector(MachineConfig(), browser).collect(
            profile_for("nytimes.com")
        )
        by_name = {e["name"]: e for e in _read_events(spool)}
        walk, collect = by_name["collect.walk"], by_name["collect.trace"]
        assert walk["parent_id"] == collect["span_id"]
        assert walk["attrs"] == {"periods": len(trace.counters)}
        assert by_name["sim.synthesize"]["parent_id"] == collect["span_id"]


class TestEnvActivation:
    def test_env_var_activates_lazily(self, tmp_path, monkeypatch):
        spool_dir = tmp_path / "env-spool"
        monkeypatch.setenv(obs.PROFILE_DIR_ENV_VAR, str(spool_dir))
        # Force the one-shot env check to rerun, as a fresh process would.
        spans_module._ENV_CHECKED = False
        with obs.span("from.env"):
            pass
        assert [e["name"] for e in _read_events(spool_dir)] == ["from.env"]

    def test_enable_exports_env(self, tmp_path):
        obs.enable(tmp_path / "s")
        assert os.environ[obs.PROFILE_DIR_ENV_VAR] == str(tmp_path / "s")
        obs.disable()
        assert obs.PROFILE_DIR_ENV_VAR not in os.environ


def _spanned_square(x: int) -> int:
    """Module-level worker task that opens its own span."""
    with obs.span("worker.square", x=x):
        return x * x


class TestCrossProcess:
    def test_worker_spans_merge(self, spool):
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine(jobs=2)
        results = engine.map(_spanned_square, list(range(8)), stage="unit")
        assert results == [x * x for x in range(8)]

        profile = merge_spool(spool)
        pids = {e["pid"] for e in profile.spans}
        assert os.getpid() in pids
        assert len(pids) >= 2, "worker processes must contribute spans"
        worker_spans = [e for e in profile.spans if e["name"] == "worker.square"]
        assert len(worker_spans) == 8
        assert all(e["pid"] != os.getpid() for e in worker_spans)
        # Each worker span nests under that worker's engine.task span.
        tasks = {
            (e["pid"], e["span_id"]): e
            for e in profile.spans
            if e["name"] == "engine.task"
        }
        for event in worker_spans:
            parent = tasks[(event["pid"], event["parent_id"])]
            assert parent["depth"] == event["depth"] - 1

    def test_merge_is_start_ordered(self, spool):
        from repro.engine import ExecutionEngine

        ExecutionEngine(jobs=2).map(_spanned_square, list(range(6)))
        starts = [e["t_start"] for e in merge_spool(spool).spans]
        assert starts == sorted(starts)
