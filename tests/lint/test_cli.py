"""Exit codes and output formats of ``biggerfish lint``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as biggerfish
from repro.lint import rule_ids


def main(argv: list[str]) -> int:
    return biggerfish(["lint", *argv])


def _bad(fixtures) -> str:
    return str(fixtures / "bad_unseeded_rng.py")


def _clean(fixtures) -> str:
    return str(fixtures / "clean.py")


class TestExitCodes:
    def test_clean_file_exits_zero(self, fixtures, capsys):
        assert main([_clean(fixtures)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, fixtures, capsys):
        assert main([_bad(fixtures)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert "bad_unseeded_rng.py" in out

    def test_unknown_rule_exits_two(self, fixtures, capsys):
        assert main(["--select", "no-such-rule", _clean(fixtures)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_explicit_baseline_exits_two(self, fixtures, capsys):
        code = main(["--baseline", "no/such/baseline.json", _clean(fixtures)])
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "--select" in capsys.readouterr().out


class TestOutput:
    def test_json_round_trips(self, fixtures, capsys):
        assert main(["--format", "json", _bad(fixtures)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["findings"] == len(payload["findings"])
        assert payload["counts"]["findings"] >= 6
        assert all(f["rule"] == "unseeded-rng" for f in payload["findings"])
        assert payload["files_checked"] == 1

    def test_json_clean_run_round_trips(self, fixtures, capsys):
        assert main(["--format", "json", _clean(fixtures)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_select_and_ignore(self, fixtures, capsys):
        assert main(["--select", "wall-clock-in-sim", _bad(fixtures)]) == 0
        capsys.readouterr()
        assert main(["--ignore", "unseeded-rng", _bad(fixtures)]) == 0

    def test_select_by_family(self, fixtures, capsys):
        bad_concurrency = str(fixtures / "bad_unlocked_write.py")
        assert main(["--select", "determinism", bad_concurrency]) == 0
        capsys.readouterr()
        assert main(["--select", "concurrency", bad_concurrency]) == 1
        assert "unlocked-shared-write" in capsys.readouterr().out
        assert main(["--ignore", "concurrency", bad_concurrency]) == 0

    def test_sarif_output(self, fixtures, capsys):
        assert main(["--format", "sarif", _bad(fixtures)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert results and all(
            r["ruleId"] == "unseeded-rng" for r in results
        )

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out
        assert "[concurrency/" in out and "[determinism/" in out

    @pytest.mark.parametrize("rule_id", rule_ids())
    def test_explain_every_rule(self, rule_id, capsys):
        assert main(["--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert rule_id in out
        assert "Bad" in out and "Good" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["--explain", "nope"]) == 2


class TestBaselineWorkflow:
    def test_write_then_pass(self, fixtures, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(["--baseline", str(baseline), "--write-baseline", _bad(fixtures)])
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        assert main(["--baseline", str(baseline), _bad(fixtures)]) == 0
        assert "grandfathered" in capsys.readouterr().out

    def test_baseline_does_not_hide_new_findings(self, fixtures, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(["--baseline", str(baseline), "--write-baseline", _bad(fixtures)])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "--baseline",
                str(baseline),
                _bad(fixtures),
                str(fixtures / "bad_env_hash.py"),
            ]
        )
        assert code == 1
        assert "env-dependent-hash" in capsys.readouterr().out

    def test_malformed_baseline_exits_two(self, fixtures, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\"nope\": true}")
        assert main(["--baseline", str(baseline), _clean(fixtures)]) == 2
        assert "baseline" in capsys.readouterr().err
