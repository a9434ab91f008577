"""Span tracer: nesting, no-op defaults, env activation, cross-process merge."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core.collector import TraceCollector
from repro.obs import NOOP
from repro.obs.export import merge_spool
from repro.sim.events import SEC
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.workload.browser import CHROME, LINUX
from repro.workload.website import profile_for


def _read_events(spool_dir):
    """The span lines of every spool file, in file order."""
    events = []
    for path in sorted(spool_dir.glob("obs-*.jsonl")):
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event["type"] == "span":
                events.append(event)
    return events


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert obs.span("anything", k=1) is NOOP
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
        load = by_name["workload.generate_load"]
        assert load["parent_id"] == collect["span_id"]
        assert load["attrs"] == {"site": "nytimes.com"}

    def test_generate_load_span_leaves_the_stream(self, tmp_path):
        site = profile_for("nytimes.com")

        def load():
            rng = np.random.default_rng(5)
            timeline = site.generate_load(rng, 2 * SEC)
            return [dataclasses.astuple(b) for b in timeline], rng.bit_generator.state

        quiet = load()
        obs.enable(tmp_path / "spool")
        try:
            assert load() == quiet
        finally:
            obs.disable()
        (event,) = _read_events(tmp_path / "spool")
        assert event["name"] == "workload.generate_load"

    @pytest.mark.parametrize("irqbalance", [False, True])
    def test_synthesize_counts_each_event_once(self, spool, irqbalance):
        """Each event counts once, when its core is drawn: the span counts
        the attacker's core, drawn inside it, and reading every core adds
        the others' events to ``sim.events_processed``."""
        attacker_events, events = {False: (48_398, 98_110), True: (9_766, 98_118)}[
            irqbalance
        ]
        rng = np.random.default_rng(11)
        site = profile_for("nytimes.com")
        timeline = site.generate_load(rng, 6 * SEC)
        config = MachineConfig(os=LINUX, irqbalance=irqbalance)
        run = InterruptSynthesizer(config).synthesize(timeline, style=site.style, rng=rng)
        assert obs.counter("sim.events_processed").value == attacker_events
        assert len(run.attacker_timeline.arrivals) == attacker_events
        assert sum(len(core.arrivals) for core in run.cores) == events
        assert obs.counter("sim.events_processed").value == events
        (span,) = [e for e in _read_events(spool) if e["name"] == "sim.synthesize"]
        assert span["attrs"]["events"] == attacker_events


class TestWarmPathSpans:
    """A cold and then a warm closed-world run: the trace-cache spans nest
    under ``pipeline.collect``, the classifier's under ``pipeline.evaluate``."""

    @staticmethod
    def _ancestors(event, by_id):
        names = []
        while event["parent_id"] is not None:
            event = by_id[event["parent_id"]]
            names.append(event["name"])
        return names

    def test_cache_and_classifier_spans_nest_under_the_pipeline(self, spool, tmp_path):
        from repro.config import SMOKE
        from repro.core.pipeline import FingerprintingPipeline
        from repro.engine import ExecutionEngine, TraceCache

        scale = SMOKE.with_(n_sites=3, traces_per_site=3, n_folds=3, trace_seconds=0.3)
        engine = ExecutionEngine(jobs=1, cache=TraceCache(tmp_path / "cache"))
        pipeline = FingerprintingPipeline(
            MachineConfig(os=LINUX), CHROME, scale=scale, seed=1, engine=engine
        )
        pipeline.run_closed_world()
        pipeline.run_closed_world()
        events = _read_events(spool)
        by_id = {e["span_id"]: e for e in events}

        def under(name):
            found = [e for e in events if e["name"] == name]
            return found, [self._ancestors(e, by_id) for e in found]

        gets, chains = under("engine.cache.get")
        assert [e["attrs"]["hit"] for e in gets] == [False] * 9 + [True] * 9
        assert all("pipeline.collect" in chain for chain in chains)
        puts, chains = under("engine.cache.put")
        assert len(puts) == 9 and all("pipeline.collect" in chain for chain in chains)
        fits, chains = under("ml.linear.fit")
        assert len(fits) == 6 and all("pipeline.evaluate" in chain for chain in chains)
        features, chains = under("ml.features")
        # One transform to fit and one to predict per fold.
        assert len(features) == 12
        assert all("pipeline.evaluate" in chain for chain in chains)

    def test_spans_leave_the_results_unchanged(self, tmp_path):
        from repro.config import SMOKE
        from repro.core.pipeline import FingerprintingPipeline

        scale = SMOKE.with_(n_sites=3, traces_per_site=3, n_folds=3, trace_seconds=0.3)

        def run():
            pipeline = FingerprintingPipeline(MachineConfig(os=LINUX), CHROME, scale=scale)
            return pipeline.run_closed_world().fold_top1

        plain = run()
        obs.enable(tmp_path / "spool")
        assert run() == plain


class TestPredictSpans:
    """Each backend classifies under one ``ml.predict`` span that names the
    backend and counts the rows."""

    @pytest.mark.parametrize("backend", ["feature", "lstm"])
    def test_predict_proba_is_one_span(self, spool, backend):
        from repro.ml.models import FeatureFingerprinter, LstmFingerprinter

        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(12, 60)), np.arange(12) % 3
        if backend == "feature":
            model = FeatureFingerprinter(epochs=5)
        else:
            model = LstmFingerprinter(conv_filters=4, lstm_units=4, epochs=1)
        model.fit(x, y, 3).predict_proba(x[:5])
        events = _read_events(spool)
        (span,) = [e for e in events if e["name"] == "ml.predict"]
        assert span["attrs"] == {"backend": backend, "rows": 5}
        inside = {e["name"] for e in events if e["parent_id"] == span["span_id"]}
        assert inside == ({"ml.features"} if backend == "feature" else set())


class TestEnvActivation:
    def test_env_var_activates_lazily(self, tmp_path, monkeypatch):
        spool_dir = tmp_path / "env-spool"
        monkeypatch.setenv(obs.PROFILE_DIR_ENV_VAR, str(spool_dir))
        # Force the one-shot env check to rerun, as a fresh process would.
        obs._ENV_CHECKED = False
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


def _spawned_task() -> int:
    """Module-level task for a spawned worker: one span, one count."""
    with obs.span("worker.spawned"):
        obs.counter("worker.tasks").inc()
    obs.flush_metrics()
    return os.getpid()


class TestCrossProcess:
    def test_spawned_worker_joins_the_profile(self, spool):
        """A spawned worker inherits no recorder: it finds the spool
        through the environment on its first instrumented call."""
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            child = pool.submit(_spawned_task).result(timeout=120)
        profile = merge_spool(spool)
        assert child != os.getpid()
        assert [e["pid"] for e in profile.spans if e["name"] == "worker.spawned"] == [child]
        assert profile.metrics["counters"] == {"worker.tasks": 1}

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
