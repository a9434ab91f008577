"""Inline suppression parsing and baseline round-trips."""

from __future__ import annotations

import json

import pytest

from repro.lint import Baseline, lint_paths
from repro.lint.registry import Finding
from repro.lint.suppress import suppressed_rules


class TestInlineSuppressions:
    def test_single_rule(self):
        parsed = suppressed_rules(["x = 1  # lint: disable=unseeded-rng"])
        assert parsed == {1: frozenset({"unseeded-rng"})}

    def test_comma_separated_rules_and_spacing(self):
        parsed = suppressed_rules(
            ["", "y = 2  #lint: disable=unseeded-rng , wall-clock-in-sim"]
        )
        assert parsed == {2: frozenset({"unseeded-rng", "wall-clock-in-sim"})}

    def test_disable_all(self):
        parsed = suppressed_rules(["z = 3  # lint: disable=all"])
        assert parsed == {1: frozenset({"all"})}

    def test_unrelated_comments_ignored(self):
        assert suppressed_rules(["# lint me gently", "x = 1  # disable=foo"]) == {}


def _finding(line: int = 3) -> Finding:
    return Finding(
        rule="unseeded-rng",
        path="src/repro/sim/machine.py",
        line=line,
        col=0,
        message="...",
    )


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.write(path, [_finding()])
        loaded = Baseline.load(path)
        assert len(loaded) == 1
        assert loaded.contains(_finding())
        assert not loaded.contains(_finding(line=4))

    def test_malformed_entries_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": [{"rule": "x"}]}))
        with pytest.raises(ValueError):
            Baseline.load(path)
        path.write_text("[]")
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_other_version_rejected(self, tmp_path, fixtures, capsys):
        from repro.cli import main

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="schema version 99") as excinfo:
            Baseline.load(path)
        assert str(path) in str(excinfo.value)
        clean = str(fixtures / "clean.py")
        assert main(["lint", "--baseline", str(path), clean]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err

    def test_baselined_findings_do_not_fail_the_run(self, tmp_path, fixtures):
        bad = fixtures / "bad_mutable_default.py"
        first = lint_paths([str(bad)])
        assert first.findings
        path = tmp_path / "baseline.json"
        Baseline.write(path, first.findings)
        second = lint_paths([str(bad)], baseline=Baseline.load(path))
        assert second.findings == []
        assert len(second.baselined) == len(first.findings)

    def test_shipped_baseline_is_empty(self):
        from tests.lint.conftest import REPO_ROOT

        shipped = Baseline.load(REPO_ROOT / ".lint-baseline.json")
        assert len(shipped) == 0
