"""Exit codes and file handling of ``biggerfish bench``."""

from __future__ import annotations

import json

import pytest

from repro.bench.results import SCHEMA_VERSION, BenchFormatError, BenchReport, ScenarioRecord
from repro.cli import main as biggerfish


def main(argv: list[str]) -> int:
    return biggerfish(["bench", *argv])


def write_report(tmp_path, label: str, wall_by_name: dict[str, list[float]]):
    report = BenchReport(
        label=label,
        scenarios={
            name: ScenarioRecord(
                name=name,
                description="",
                scale="custom",
                seed=0,
                warmup=0,
                repeat=len(wall),
                wall_s=wall,
                cpu_s=list(wall),
            )
            for name, wall in wall_by_name.items()
        },
    )
    return report.write(tmp_path)


class TestCompareExitCodes:
    def test_identical_reports_pass(self, tmp_path, capsys):
        base = write_report(tmp_path, "base", {"a": [1.0, 1.0]})
        cand = write_report(tmp_path, "cand", {"a": [1.0, 1.0]})
        assert main(["--compare", str(base), "--against", str(cand)]) == 0
        assert "bench compare: PASS" in capsys.readouterr().out

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        base = write_report(tmp_path, "base", {"a": [1.0, 1.0]})
        cand = write_report(tmp_path, "cand", {"a": [2.0, 2.0]})
        assert main(["--compare", str(base), "--against", str(cand)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_scenario_exits_one(self, tmp_path, capsys):
        base = write_report(tmp_path, "base", {"a": [1.0], "b": [1.0]})
        cand = write_report(tmp_path, "cand", {"a": [1.0]})
        assert main(["--compare", str(base), "--against", str(cand)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_exactly_at_threshold_exits_zero(self, tmp_path):
        base = write_report(tmp_path, "base", {"a": [1.0, 1.0]})
        cand = write_report(tmp_path, "cand", {"a": [1.1, 1.1]})
        argv = ["--compare", str(base), "--against", str(cand)]
        assert main(argv + ["--threshold", "0.10", "--noise-factor", "0"]) == 0


class TestFormatErrors:
    def test_nonexistent_baseline_exits_two(self, tmp_path, capsys):
        cand = write_report(tmp_path, "cand", {"a": [1.0]})
        code = main(["--compare", str(tmp_path / "nope.json"), "--against", str(cand)])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bench_bad.json"
        bad.write_text("{ not json")
        cand = write_report(tmp_path, "cand", {"a": [1.0]})
        assert main(["--compare", str(bad), "--against", str(cand)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_old_schema_exits_two(self, tmp_path, capsys):
        base = write_report(tmp_path, "base", {"a": [1.0]})
        data = json.loads(base.read_text())
        data["schema"] = SCHEMA_VERSION - 1
        base.write_text(json.dumps(data))
        cand = write_report(tmp_path, "cand", {"a": [1.0]})
        assert main(["--compare", str(base), "--against", str(cand)]) == 2
        err = capsys.readouterr().err
        assert "schema version" in err
        assert "re-record" in err

    def test_empty_scenarios_rejected(self, tmp_path):
        empty = tmp_path / "bench_empty.json"
        empty.write_text(json.dumps({"schema": SCHEMA_VERSION, "scenarios": {}}))
        with pytest.raises(BenchFormatError, match="no scenarios"):
            BenchReport.load(empty)

    def test_scenario_without_samples_rejected(self, tmp_path):
        broken = tmp_path / "bench_broken.json"
        broken.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "scenarios": {"a": {"name": "a", "wall_s": [], "cpu_s": []}},
                }
            )
        )
        with pytest.raises(BenchFormatError, match="wall_s"):
            BenchReport.load(broken)


class TestUsage:
    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["definitely.not.a.scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_against_requires_compare(self, capsys):
        assert main(["--against", "whatever.json"]) == 2
        assert "--against requires --compare" in capsys.readouterr().err

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sim.synthesize" in out
        assert "ml.features" in out
        assert "e2e.table1_smoke" in out

    def test_invalid_repeat_exits_two(self, capsys):
        assert main(["--repeat", "0", "ml.features"]) == 2
        assert capsys.readouterr().err


class TestRunnerDispatch:
    def test_biggerfish_bench_dispatches(self, capsys):
        assert biggerfish(["bench", "--list"]) == 0
        assert "sim.synthesize" in capsys.readouterr().out


class TestSmokeRun:
    def test_ml_features_runs_and_saves(self, tmp_path, capsys):
        code = main(
            [
                "ml.features",
                "--repeat",
                "2",
                "--warmup",
                "0",
                "--no-obs",
                "--label",
                "smoke",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        path = tmp_path / "bench_smoke.json"
        assert path.exists()
        report = BenchReport.load(path)
        record = report.scenarios["ml.features"]
        assert len(record.wall_s) == 2
        assert record.best_s > 0
        assert record.meta  # scenarios report what they measured
