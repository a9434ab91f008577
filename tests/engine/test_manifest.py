"""RunManifest: as_dict round-trip, failure marking, atomic writes."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.engine import ExecutionEngine, TraceCache
from repro.engine.engine import TaskError, TaskFailedError
from repro.engine.manifest import MANIFEST_FILENAME, RunManifest


def _manifest() -> RunManifest:
    manifest = RunManifest(scale="smoke", seed=7, jobs=2, created_unix=123.456)
    manifest.add_experiment(
        "table1",
        elapsed_s=2.5,
        stages={
            "collect": {
                "seconds": 2.0,
                "tasks": 4,
                "task_seconds": {"min": 0.4, "mean": 0.5, "max": 0.6},
            }
        },
    )
    return manifest


class TestAsDict:
    def test_json_round_trip(self):
        manifest = _manifest()
        restored = json.loads(json.dumps(manifest.as_dict()))
        assert restored == manifest.as_dict()
        assert restored["schema"] == 1
        assert restored["status"] == "ok"
        assert restored["scale"] == "smoke"
        assert restored["seed"] == 7
        assert restored["jobs"] == 2
        assert restored["total_elapsed_s"] == 2.5
        assert restored["experiments"]["table1"]["stages"]["collect"]["tasks"] == 4

    def test_optional_fields_omitted_when_unset(self):
        out = _manifest().as_dict()
        assert "error" not in out
        assert "profile" not in out

    def test_profile_included_when_set(self):
        manifest = _manifest()
        manifest.profile = {"events": 3}
        assert manifest.as_dict()["profile"] == {"events": 3}

    def test_finalize_folds_cache_stats(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache=TraceCache(tmp_path / "cache"))
        manifest = _manifest()
        manifest.finalize(engine)
        cache = manifest.as_dict()["cache"]
        assert cache["entries"] == 0
        assert cache["hits"] == 0 and cache["misses"] == 0

    def test_no_cache_engine_leaves_cache_none(self):
        manifest = _manifest()
        manifest.finalize(ExecutionEngine(jobs=1, cache=None))
        assert manifest.as_dict()["cache"] is None


class TestFaults:
    def test_finalize_omits_faults_when_clean(self):
        manifest = _manifest()
        manifest.finalize(ExecutionEngine(jobs=1))
        assert "faults" not in manifest.as_dict()

    def test_finalize_folds_fault_totals(self):
        engine = ExecutionEngine(jobs=1)
        engine.fault_totals["retries"] = 3
        engine.fault_totals["timeouts"] = 1
        manifest = _manifest()
        manifest.finalize(engine)
        out = manifest.as_dict()
        assert out["faults"]["retries"] == 3
        assert out["faults"]["timeouts"] == 1
        assert json.loads(json.dumps(out)) == out  # stays JSON-serializable

    def test_mark_failed_attaches_task_record(self):
        record = TaskError(
            stage="collect", index=4, attempt=2, kind="timeout",
            error_type="TimeoutError", message="too slow",
        )
        manifest = _manifest()
        try:
            raise TaskFailedError(record)
        except TaskFailedError as exc:
            manifest.mark_failed("table1", exc)
        out = manifest.as_dict()
        assert out["status"] == "failed"
        assert out["error"]["type"] == "TaskFailedError"
        assert out["error"]["task"]["index"] == 4
        assert out["error"]["task"]["attempt"] == 2
        assert out["error"]["task"]["kind"] == "timeout"

    def test_plain_failure_has_no_task_record(self):
        manifest = _manifest()
        manifest.mark_failed("table1", ValueError("boom"))
        assert "task" not in manifest.as_dict()["error"]


class TestMarkFailed:
    def test_records_exception_summary(self):
        manifest = _manifest()
        try:
            raise ValueError("boom")
        except ValueError as exc:
            manifest.mark_failed("fig5", exc)
        out = manifest.as_dict()
        assert out["status"] == "failed"
        assert out["error"]["experiment"] == "fig5"
        assert out["error"]["type"] == "ValueError"
        assert out["error"]["message"] == "boom"
        assert out["error"]["where"].startswith(__file__)

    def test_partial_experiments_survive(self):
        manifest = _manifest()
        manifest.mark_failed("fig5", RuntimeError("late"))
        assert "table1" in manifest.as_dict()["experiments"]


class TestAtomicWrite:
    def test_writes_manifest(self, tmp_path):
        path = _manifest().write(tmp_path)
        assert path == tmp_path / MANIFEST_FILENAME
        assert json.loads(path.read_text())["scale"] == "smoke"

    def test_overwrite_is_atomic(self, tmp_path):
        first = _manifest()
        first.write(tmp_path)
        second = _manifest()
        second.seed = 99
        second.write(tmp_path)
        assert json.loads((tmp_path / MANIFEST_FILENAME).read_text())["seed"] == 99
        assert [p.name for p in sorted(tmp_path.iterdir())] == [MANIFEST_FILENAME]

    def test_crash_leaves_previous_manifest_intact(self, tmp_path):
        _manifest().write(tmp_path)
        broken = _manifest()
        broken.seed = 99
        with mock.patch("os.replace", side_effect=OSError("disk full")):
            with pytest.raises(OSError):
                broken.write(tmp_path)
        # The old manifest survives and no temp file is left behind.
        assert json.loads((tmp_path / MANIFEST_FILENAME).read_text())["seed"] == 7
        assert [p.name for p in sorted(tmp_path.iterdir())] == [MANIFEST_FILENAME]
