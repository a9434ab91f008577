"""Exit codes and ``--help`` for the ``biggerfish`` command dispatch.

The experiment-running happy paths are covered elsewhere; these tests
pin the CLI surface itself: ``cache``, ``report`` and ``lint``
command routing, usage errors, and help screens.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parents[1] / "lint" / "fixtures"


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("BIGGERFISH_CACHE_DIR", str(tmp_path / "cache"))


class TestTopLevel:
    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_unknown_experiment_exits_two_with_suggestion(self, capsys):
        assert main(["table9"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "available" in err

    @pytest.mark.parametrize("argv", [["nosuch", "--list"], ["bench", "--list"]])
    def test_list_still_checks_experiment_ids(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"unknown experiment {argv[0]!r}" in captured.err
        assert "available experiments" not in captured.out

    def test_bad_jobs_value_exits_two(self, capsys):
        assert main(["table1", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_negative_seed_exits_two_without_traceback(self, capsys):
        assert main(["table1", "--scale", "smoke", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be non-negative" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "lint" in capsys.readouterr().out


class TestCacheSubcommand:
    def test_info(self, capsys):
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "cache dir" in out
        assert "entries" in out

    def test_bare_cache_defaults_to_info(self, capsys):
        assert main(["cache"]) == 0
        assert "cache dir" in capsys.readouterr().out

    def test_clear(self, capsys):
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_unknown_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "defrost"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestReportSubcommand:
    def test_no_target_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_not_a_directory_exits_two(self, capsys):
        assert main(["report", "no/such/run"]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_run_dir_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "run_manifest" in capsys.readouterr().err


class TestLintSubcommand:
    def test_clean_file_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "bad_unseeded_rng.py")]) == 1
        assert "unseeded-rng" in capsys.readouterr().out

    def test_lint_own_flags_reach_the_lint_parser(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "wall-clock-in-sim" in capsys.readouterr().out

    def test_lint_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--baseline" in out
        assert "--format" in out
