"""``biggerfish verify`` CLI: exit codes, JSON reports, shrinking."""

import json

import pytest

from repro.cli import main as biggerfish

FAST = "--sites=1", "--traces=1", "--horizon-ms=50"


def main(argv: list[str]) -> int:
    return biggerfish(["verify", *argv])


class TestList:
    def test_lists_builtin_oracles(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sim.synthesize" in out
        assert "invariant" in out and "bit" in out


class TestSweep:
    def test_passing_sweep_exits_zero(self, capsys):
        code = main(["--oracles", "ml.artifact,timers.crossing", "--seeds", "2", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS  ml.artifact" in out
        assert "all oracles agree" in out

    def test_failing_sweep_exits_one_with_counterexample(
        self, capsys, perturbed_synthesizer
    ):
        code = main(
            ["--oracles", "sim.synthesize", "--seed-list", "0",
             "--sites", "2", "--traces", "1", "--horizon-ms", "50", "--jobs", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL  sim.synthesize" in out
        assert "case: seed=0" in out
        assert "cores[0].arrivals" in out

    def test_json_report_written(self, capsys, tmp_path):
        destination = tmp_path / "report.json"
        code = main(
            ["--oracles", "ml.artifact", "--seed-list", "3,5", *FAST,
             "--json", str(destination)]
        )
        assert code == 0
        report = json.loads(destination.read_text())
        assert report["ok"] is True
        assert report["cases"] == 2
        assert report["oracles"]["ml.artifact"]["mode"] == "bit"

    def test_shrink_emits_repro_command(self, capsys, tmp_path, perturbed_synthesizer):
        destination = tmp_path / "report.json"
        code = main(
            ["--oracles", "sim.synthesize", "--seed-list", "0", "--traces", "1",
             "--shrink", "--json", str(destination), "--jobs", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "repro: PYTHONPATH=src python -m repro.verify" in out
        report = json.loads(destination.read_text())
        assert report["ok"] is False
        (entry,) = report["shrunk"]
        assert entry["oracle"] == "sim.synthesize"
        assert "cores[0].arrivals" in entry["failure"]
        assert "--seed-list 0" in entry["repro_command"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--oracles", "no.such.oracle", "--seeds", "1", *FAST],
            ["--seed-list", "1,zebra"],
            ["--seed-list", ""],
            ["--seeds", "0"],
            ["--jobs", "0"],
            ["--sites", "0"],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestRunnerDispatch:
    def test_biggerfish_verify_subcommand(self, capsys):
        code = biggerfish(["verify", "--oracles", "ml.artifact", "--seeds", "1", *FAST])
        assert code == 0
        assert "PASS  ml.artifact" in capsys.readouterr().out
