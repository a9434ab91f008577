"""``biggerfish report`` rendering on a synthetic, fully deterministic run."""

from __future__ import annotations

import json
import tempfile

import pytest

from repro.cli import main
from repro.config import SCALES, SMOKE
from repro.engine import engine as engine_module
from repro.engine import faults
from repro.engine.faults import FaultPlan
from repro.obs.export import Profile, write_profile
from repro.obs.report import report_command


def _make_run_dir(
    tmp_path, status="ok", with_profile=True, with_manifest=True, with_faults=False
):
    """A hand-built run directory with fixed timestamps and sizes."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    if with_profile:
        spans = [
            {
                "type": "span", "name": "engine.map", "pid": 100, "tid": 1,
                "span_id": 1, "parent_id": None, "depth": 0, "t_start": 10.0,
                "wall_s": 2.0, "cpu_s": 0.5, "rss_peak_kb": 1024,
                "attrs": {"stage": "collect", "tasks": 4, "jobs": 2},
            },
            {
                "type": "span", "name": "collect.trace", "pid": 200, "tid": 2,
                "span_id": 1, "parent_id": None, "depth": 0, "t_start": 10.5,
                "wall_s": 0.8, "cpu_s": 0.7, "rss_peak_kb": 2048,
                "attrs": {"site": "a.com", "index": 0},
            },
        ]
        metrics = {
            "counters": {"collect.traces": 4},
            "gauges": {"engine.jobs": 2.0},
            "histograms": {
                "ml.epoch_seconds": {
                    "buckets": [1.0], "counts": [4, 0], "sum": 2.0, "count": 4,
                }
            },
        }
        write_profile(Profile(spans=spans, metrics=metrics), run_dir / "profile.jsonl")
    if with_manifest:
        manifest = {
            "schema": 1,
            "status": status,
            "scale": "smoke",
            "seed": 0,
            "jobs": 2,
            "experiments": {
                "table1": {
                    "elapsed_s": 2.5,
                    "stages": {
                        "collect": {
                            "seconds": 2.0,
                            "tasks": 4,
                            "task_seconds": {"min": 0.4, "mean": 0.5, "max": 0.6},
                        }
                    },
                }
            },
            "cache": {"hits": 3, "misses": 1, "puts": 1, "evictions": 0},
        }
        if with_faults:
            manifest["faults"] = {
                "retries": 2, "timeouts": 1, "tasks_lost": 0,
                "pool_respawns": 0, "task_errors": 2,
            }
            manifest["experiments"]["table1"]["stages"]["collect"]["task_errors"] = [
                {
                    "stage": "collect", "index": 3, "attempt": 0,
                    "kind": "exception", "error_type": "InjectedFault",
                    "message": "injected raise fault", "where": "faults.py:1",
                },
                {
                    "stage": "collect", "index": 1, "attempt": 1,
                    "kind": "timeout", "error_type": "TimeoutError",
                    "message": "task exceeded the 0.5s task timeout", "where": "",
                },
            ]
        if status == "failed":
            manifest["error"] = {
                "experiment": "table1",
                "type": "ValueError",
                "message": "boom",
                "where": "pipeline.py:1",
            }
        (run_dir / "run_manifest.json").write_text(json.dumps(manifest))
    return run_dir


class TestReportCommand:
    def test_full_breakdown(self, tmp_path):
        run_dir = _make_run_dir(tmp_path)
        code, text = report_command(str(run_dir))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == f"run: {run_dir}"
        assert lines[1] == "scale=smoke seed=0 jobs=2 status=ok"
        assert "per-stage breakdown:" in text
        stage_row = next(line for line in lines if line.startswith("table1"))
        for cell in ("collect", "2.000s", "4", "0.400s", "0.500s", "0.600s"):
            assert cell in stage_row
        assert "spans (2 events from 2 process(es), peak rss 2.0MB):" in lines
        span_rows = [line for line in lines if line.startswith("collect.trace")]
        assert any("0.800s" in row and "0.700s" in row for row in span_rows)
        header = next(line for line in lines if line.startswith("span "))
        assert header.split() == ["span", "count", "wall", "self", "cpu", "peak", "rss"]
        (unattributed,) = [line for line in lines if line.startswith("(unattributed)")]
        assert unattributed.split() == ["(unattributed)", "-", "-", "2.000s", "-", "-"]
        assert (
            "run wall 2.000s (top-level spans of the first process), "
            "100.0% of it in no nested span"
        ) in lines
        assert any("slowest spans" in line for line in lines)
        top_row = next(line for line in lines if "stage=collect" in line)
        assert "engine.map" in top_row and "2.000s" in top_row
        assert "metrics:" in text
        assert any("collect.traces" in line and "4" in line for line in lines)
        assert any("n=4 mean=0.5" in line for line in lines)
        assert lines[-1] == (
            "cache: 3 hit(s), 1 miss(es), 1 put(s), 0 eviction(s) (75.0% hit rate)"
        )

    def test_clean_run_has_no_faults_section(self, tmp_path):
        run_dir = _make_run_dir(tmp_path)
        _, text = report_command(str(run_dir))
        assert "fault tolerance:" not in text
        assert "task errors:" not in text

    def test_faults_section_rendered(self, tmp_path):
        run_dir = _make_run_dir(tmp_path, with_faults=True)
        code, text = report_command(str(run_dir))
        assert code == 0
        assert (
            "fault tolerance: 2 retried attempt(s), 1 timeout(s), "
            "0 task(s) lost to dead workers, 0 pool respawn(s)" in text
        )
        assert "task errors:" in text
        lines = text.splitlines()
        error_row = next(line for line in lines if "InjectedFault" in line)
        for cell in ("table1", "collect", "3", "exception"):
            assert cell in error_row
        timeout_row = next(line for line in lines if "TimeoutError" in line)
        assert "timeout" in timeout_row

    def test_failed_run_surfaces_error(self, tmp_path):
        run_dir = _make_run_dir(tmp_path, status="failed")
        code, text = report_command(str(run_dir))
        assert code == 0
        assert "status=failed" in text
        assert "failed in table1: ValueError: boom" in text

    def test_profile_only_shows_spans_and_no_stages(self, tmp_path):
        # Stage timings and cache counts live in the manifest only: a
        # directory without one renders its spans and claims no stages.
        run_dir = _make_run_dir(tmp_path, with_manifest=False)
        code, text = report_command(str(run_dir))
        assert code == 0
        assert "(no stage timings recorded)" in text
        assert "per-stage breakdown:" not in text
        assert "spans (2 events from 2 process(es)" in text
        assert "cache:" not in text

    def test_manifest_only_uses_recorded_stages(self, tmp_path):
        run_dir = _make_run_dir(tmp_path, with_profile=False)
        code, text = report_command(str(run_dir))
        assert code == 0
        assert "table1" in text
        assert "spans (" not in text

    def test_missing_directory(self, tmp_path):
        code, text = report_command(str(tmp_path / "nope"))
        assert code == 2
        assert "not a directory" in text

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, text = report_command(str(empty))
        assert code == 2
        assert "--profile --save-dir" in text


class TestReportCli:
    def test_cli_prints_report(self, tmp_path, capsys):
        run_dir = _make_run_dir(tmp_path)
        assert main(["report", str(run_dir)]) == 0
        captured = capsys.readouterr()
        assert "per-stage breakdown:" in captured.out
        assert captured.err == ""

    def test_cli_top_limits_slowest_spans(self, tmp_path, capsys):
        run_dir = _make_run_dir(tmp_path)
        assert main(["report", str(run_dir), "--top", "1"]) == 0
        out = capsys.readouterr().out
        header_idx = next(
            i for i, line in enumerate(out.splitlines()) if "slowest spans" in line
        )
        rows = out.splitlines()[header_idx + 2 :]
        section = rows[: rows.index("")] if "" in rows else rows
        assert len(section) == 1
        assert section[0].startswith("engine.map")

    def test_cli_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2
        assert "usage: biggerfish report" in capsys.readouterr().err

    def test_cli_missing_run_dir_errors_to_stderr(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing")]) == 2
        captured = capsys.readouterr()
        assert "not a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "body",
        ['{"schema": 1, "status": "o', "[1, 2, 3]", '{"schema": 99}'],
        ids=["truncated", "not-an-object", "other-schema"],
    )
    def test_cli_refuses_bad_manifest(self, tmp_path, capsys, body):
        run_dir = _make_run_dir(tmp_path, with_profile=False)
        manifest = run_dir / "run_manifest.json"
        manifest.write_text(body)
        assert main(["report", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(manifest) in captured.err

    @pytest.mark.parametrize(
        "body",
        [
            '{"type": "span", "name": "engine.map", "pid": 1',
            '{"type": "span", "name": "x"}',
            "[1, 2]",
            '{"type": "metrics", "counters": [1]}',
        ],
        ids=["truncated", "span-missing-fields", "not-an-object", "counters-not-an-object"],
    )
    def test_cli_refuses_bad_profile(self, tmp_path, capsys, body):
        run_dir = _make_run_dir(tmp_path)
        profile = run_dir / "profile.jsonl"
        first_line = profile.read_text().splitlines()[0]
        profile.write_text(first_line + "\n" + body + "\n")
        assert main(["report", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{profile}:2: " in captured.err

    def test_cli_refuses_unreadable_profile(self, tmp_path, capsys):
        run_dir = _make_run_dir(tmp_path, with_profile=False)
        (run_dir / "profile.jsonl").mkdir()
        assert main(["report", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert f"{run_dir / 'profile.jsonl'}: cannot read" in captured.err


class TestProfiledRun:
    """``--profile`` through the CLI: a run's profile holds that run only."""

    @staticmethod
    def _run(*extra):
        assert main(["fig7", "--scale", "smoke", "--no-cache", "--profile", *extra]) == 0

    def test_rerun_into_the_same_save_dir_reports_only_itself(self, tmp_path, capsys):
        save_dir = tmp_path / "out"
        self._run("--save-dir", str(save_dir))
        self._run("--save-dir", str(save_dir))
        profile = json.loads((save_dir / "run_manifest.json").read_text())["profile"]
        assert profile["processes"] == 1
        assert profile["events"] == 1  # this run's experiment.fig7 span

    def test_no_spool_left_behind(self, tmp_path, capsys, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        # tempfile caches its directory, so patch the cache, not TMPDIR.
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        self._run()
        assert "spans (1 events from 1 process(es)" in capsys.readouterr().out
        assert sorted(scratch.iterdir()) == []

    def test_each_fact_is_recorded_once(self, tmp_path, capsys, monkeypatch):
        """Stage, cache and fault counts sit in the manifest's
        ``experiments``, ``cache`` and ``faults`` blocks only; the
        ``profile`` block holds spans and in-process metrics."""
        monkeypatch.setitem(SCALES, "smoke", SMOKE.with_(n_sites=2, traces_per_site=2))
        monkeypatch.setattr(engine_module, "BACKOFF_S", 0.0)
        save_dir = tmp_path / "out"
        argv = ["table2", "--scale", "smoke", "--jobs", "1", "--profile",
                "--save-dir", str(save_dir), "--cache-dir", str(tmp_path / "cache")]
        with faults.injected(FaultPlan(rate=0.3, modes=("raise",), seed=1)):
            assert main(argv) == 0
        manifest = json.loads((save_dir / "run_manifest.json").read_text())
        stages = manifest["experiments"]["table2"]["stages"]
        collected = stages["collect"]["tasks"]
        assert collected > 0
        assert manifest["cache"]["misses"] == manifest["cache"]["puts"] == collected
        retried = sum(stage.get("retries", 0) for stage in stages.values())
        assert manifest["faults"]["retries"] == retried > 0
        profile = manifest["profile"]
        assert "stages" not in profile
        assert not [name for name in profile["metrics"]["counters"] if name.startswith("engine.")]
        code, text = report_command(str(save_dir))
        assert code == 0
        assert text.count("cache: ") == 1
        assert "engine." not in text.split("metrics:")[1]
