"""The benchmark's own tests, at a tiny size.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from layertrace import LayerTracer, Span, Wrap, count_totals, self_seconds

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

#: Every workload kind at a size that runs in about a second.
TINY = {
    workload.name: workload
    for workload in (
        workloads.Table1Cell(
            n_sites=6,
            traces_per_site=3,
            trace_seconds=1.0,
            warm_repeats=1,
            chance_multiple=1.0,
            min_passes=1,
        ),
        workloads.LstmTrain(
            train_per_class=4, test_per_class=2, trace_length=300, epochs=4, min_passes=1
        ),
        workloads.ServeOpen(
            "serve-open-200", 200.0, pool_per_class=2, open_s=0.2, n_bursts=2, min_passes=1
        ),
    )
}


def run_tiny(capsys, name: str, trace: int = 0):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, catalog=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            Span(0, None, "root", 0.0, 10.0),
            Span(1, 0, "child", 1.0, 4.0),
            Span(2, 1, "leaf", 2.0, 3.0),
            Span(3, 0, "child", 5.0, 6.0),
            # Overlaps the first child and outlives the root: the overlap
            # is covered once and the tail is clipped to the root.
            Span(4, 0, "late", 3.5, 12.0),
        ]
        assert self_seconds(spans) == pytest.approx(
            {"root": 1.0, "child": 3.0, "leaf": 1.0, "late": 8.5}
        )

    def test_tracer_nests_spans_and_restores_methods(self):
        class Base:
            def inner(self):
                return 1

        class Toy(Base):
            def outer(self):
                return self.inner() + sum(self.steps())

            def steps(self):
                yield 2
                yield 3

        outer = Toy.__dict__["outer"]
        ticks = itertools.count()
        tracer = LayerTracer(
            [
                Wrap(Toy, "outer", "outer"),
                Wrap(Toy, "inner", "inner", count=lambda args, result: {"ones": result}),
                Wrap(Toy, "steps", "step", generator=True),
            ],
            clock=lambda: float(next(ticks)),
        )
        with tracer:
            assert Toy().outer() == 6
        assert Toy.__dict__["outer"] is outer
        assert "inner" not in vars(Toy)
        # outer [0, 9] holds inner [1, 2] and three generator steps, the
        # last of which finds the generator exhausted: [3, 4] [5, 6] [7, 8].
        assert self_seconds(tracer.spans) == {"outer": 5.0, "inner": 1.0, "step": 3.0}
        assert count_totals(tracer.spans) == {"ones": 1}


class TestRuns:
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_every_end_to_end_metric_is_printed_with_its_unit(self, capsys, name):
        code, lines, result = run_tiny(capsys, name)
        assert code == 0, "\n".join(lines)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = units(SPEC["end_to_end"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for metric, unit in expected.items():
            assert any(text.startswith(f"{metric} = ") and f" {unit}" in text for text in lines)

    def test_forced_check_failure_exits_nonzero_and_counts_failed(self, capsys, monkeypatch):
        from repro.engine.cache import TraceCache

        real_get = TraceCache.get

        def reversed_get(cache, key):
            trace = real_get(cache, key)
            if trace is not None:
                trace.counters = trace.counters[::-1].copy()
            return trace

        monkeypatch.setattr(TraceCache, "get", reversed_get)
        code, lines, result = run_tiny(capsys, "table1-cell")
        assert code == 1
        assert result["correct"] is False
        assert result["failed"] >= 1
        assert any(text.startswith("check FAILED: warm matrices") for text in lines)

    def test_traced_run_reports_every_per_layer_metric(self, capsys):
        code, lines, result = run_tiny(capsys, "table1-cell", trace=1)
        assert code == 0, "\n".join(lines)
        expected = units(SPEC["per_layer"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["core.collector.walk_self_s"] > 0
        assert values["sim.synthesize.self_s"] > 0
        assert values["sim.synthesize.calls"] == 18
        assert values["engine.cache.hit_ratio"] == 0.5
        assert 0.0 <= values["unattributed_share"] < 1.0

    def test_traced_serve_run_links_requests_to_model_calls(self, capsys):
        code, lines, result = run_tiny(capsys, "serve-open-200", trace=1)
        assert code == 0, "\n".join(lines)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["serve.batches"] > 0
        assert values["serve.ok"] == values["serve.requests"]
        assert 0.0 < values["serve.queue_ms.p50"] < values["serve.queue_ms.p99"]


class TestContract:
    def test_spec_matches_the_benchmark(self):
        assert SPEC["command"] == ["python3", "perfbench/run.py"]
        assert SPEC["paths"] == ["perfbench"]
        assert units(SPEC["end_to_end"]) == run.END_TO_END
        assert units(SPEC["per_layer"]) == run.PER_LAYER
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.default_workloads())

    def test_refuses_to_run_without_the_library_source(self, tmp_path):
        shutil.copytree(
            BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        argv = [
            sys.executable, "perfbench/run.py",
            "--workload", "table1-cell", "--seed", "0", "--seconds", "1", "--trace", "0",
        ]
        done = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "src/repro" in done.stderr
