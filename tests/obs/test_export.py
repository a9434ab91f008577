"""Exporters: spool merge, profile.jsonl round-trip, summary, SVG timeline."""

from __future__ import annotations

import json

from repro import obs
from repro.obs.export import (
    Profile,
    export_run,
    merge_spool,
    read_profile,
    render_timeline,
    self_seconds,
    summarize,
    write_profile,
)


def _sample_profile() -> Profile:
    """A hand-built two-process profile with known numbers."""
    spans = [
        {
            "type": "span", "name": "engine.map", "pid": 100, "tid": 1,
            "span_id": 1, "parent_id": None, "depth": 0, "t_start": 10.0,
            "wall_s": 2.0, "cpu_s": 0.5, "rss_peak_kb": 1000,
            "attrs": {"stage": "collect", "tasks": 4, "jobs": 2},
        },
        {
            "type": "span", "name": "collect.trace", "pid": 200, "tid": 2,
            "span_id": 1, "parent_id": None, "depth": 0, "t_start": 10.5,
            "wall_s": 0.8, "cpu_s": 0.7, "rss_peak_kb": 2000,
            "attrs": {"site": "a.com", "index": 0},
        },
        {
            "type": "span", "name": "collect.trace", "pid": 200, "tid": 2,
            "span_id": 2, "parent_id": None, "depth": 0, "t_start": 11.4,
            "wall_s": 0.5, "cpu_s": 0.4, "rss_peak_kb": 2100,
            "attrs": {"site": "b.com", "index": 1},
        },
    ]
    metrics = {
        "counters": {"collect.traces": 3, "sim.events_processed": 1},
        "gauges": {},
        "histograms": {},
    }
    return Profile(spans=spans, metrics=metrics)


class TestMergeSpool:
    def test_round_trip_through_live_spool(self, spool):
        with obs.span("outer"):
            with obs.span("inner"):
                obs.counter("n").inc(7)
        obs.flush_metrics()
        profile = merge_spool(spool)
        # Spool files hold completion order; the merge re-sorts by start time.
        assert [e["name"] for e in profile.spans] == ["outer", "inner"]
        assert profile.metrics["counters"] == {"n": 7}

    def test_empty_spool(self, tmp_path):
        profile = merge_spool(tmp_path)
        assert profile.spans == []
        assert profile.metrics["counters"] == {}


class TestProfileFile:
    def test_write_read_round_trip(self, tmp_path):
        profile = _sample_profile()
        path = write_profile(profile, tmp_path / "profile.jsonl")
        loaded = read_profile(path)
        assert loaded.spans == profile.spans
        assert loaded.metrics["counters"] == profile.metrics["counters"]

    def test_jsonl_lines_parse(self, tmp_path):
        path = write_profile(_sample_profile(), tmp_path / "p.jsonl")
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert json.loads(lines[-1])["type"] == "metrics"


class TestSummarize:
    def test_aggregates_by_name(self):
        summary = summarize(_sample_profile())
        assert summary["processes"] == 2
        assert summary["events"] == 3
        assert summary["peak_rss_kb"] == 2100
        collect = summary["spans"]["collect.trace"]
        assert collect["count"] == 2
        assert collect["wall_s"] == 1.3
        assert collect["max_rss_kb"] == 2100
        assert "stages" not in summary  # the manifest's experiments block holds them

    def test_self_time_clips_children_and_counts_overlaps_once(self):
        def span(name, pid, span_id, parent_id, start, wall):
            return {
                "type": "span", "name": name, "pid": pid, "tid": 1,
                "span_id": span_id, "parent_id": parent_id, "depth": 0,
                "t_start": start, "wall_s": wall, "cpu_s": 0.0,
                "rss_peak_kb": 0, "attrs": {},
            }

        spans = [
            span("run", 1, 1, None, 0.0, 10.0),
            span("child", 1, 2, 1, 1.0, 3.0),  # 1-4
            span("child", 1, 3, 1, 3.0, 3.0),  # 3-6, overlaps 3-4
            span("late", 1, 4, 1, 9.0, 3.0),  # 9-12, clipped to 9-10
            span("worker", 2, 1, None, 2.0, 5.0),  # same id, other process
            span("task", 2, 2, 1, 2.5, 1.0),
        ]
        assert self_seconds(spans) == [4.0, 3.0, 3.0, 3.0, 4.0, 1.0]
        summary = summarize(Profile(spans=spans))
        assert summary["spans"]["child"]["self_s"] == 6.0
        assert summary["spans"]["run"]["self_s"] == 4.0
        # The first process's top-level spans are the run's wall clock.
        assert summary["wall_s"] == 10.0
        assert summary["unattributed_s"] == 4.0

    def test_top_spans_sorted_and_capped(self):
        summary = summarize(_sample_profile(), top_n=2)
        names = [s["name"] for s in summary["top_spans"]]
        assert names == ["engine.map", "collect.trace"]
        assert summary["top_spans"][1]["attrs"]["site"] == "a.com"

    def test_metrics_passthrough(self):
        summary = summarize(_sample_profile())
        assert summary["metrics"]["counters"]["collect.traces"] == 3


class TestTimeline:
    def test_empty_profile_renders_nothing(self):
        assert render_timeline(Profile()) is None

    def test_svg_structure(self):
        svg = render_timeline(_sample_profile())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "engine.map" in svg  # legend carries span names
        assert "pid 100" in svg and "pid 200" in svg

    def test_lane_per_process(self):
        # Two processes -> two pid labels even with overlapping times.
        svg = render_timeline(_sample_profile())
        assert svg.count("pid ") == 2


class TestExportRun:
    def test_writes_artifacts(self, spool, tmp_path):
        with obs.span("solo"):
            obs.counter("k").inc()
        obs.flush_metrics()
        out = tmp_path / "out"
        profile, summary = export_run(spool, out)
        assert (out / "profile.jsonl").exists()
        assert (out / "profile_timeline.svg").exists()
        assert summary["spans"]["solo"]["count"] == 1
        assert profile.metrics["counters"] == {"k": 1}

    def test_no_save_dir(self, spool):
        with obs.span("solo"):
            pass
        profile, summary = export_run(spool, None)
        assert summary["events"] == 1
