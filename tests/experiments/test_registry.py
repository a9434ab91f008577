"""Tests for the experiment registry, formatting and CLI plumbing."""

import pytest

from repro.cli import main
from repro.engine import RunContext
from repro.experiments import runner  # noqa: F401  (populates the registry)
from repro.experiments.base import (
    ExperimentHandle,
    ExperimentSpec,
    all_specs,
    format_rows,
    get_experiment,
    get_spec,
    list_experiments,
    register,
    sparkline,
    suggest_experiment,
)
from tests.conftest import TINY


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        """DESIGN.md's experiment index: one entry per table/figure."""
        assert set(list_experiments()) >= {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table1", "table2", "table3", "table4",
        }

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("table99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register("fig3")(lambda ctx: None)

    def test_specs_have_paper_refs(self):
        spec = get_spec("table1")
        assert spec == ExperimentSpec(
            id="table1", paper_ref=spec.paper_ref, description=spec.description
        )
        assert spec.paper_ref.startswith("Table 1")
        assert all(s.description for s in all_specs())

    def test_suggestions_rank_near_misses(self):
        assert suggest_experiment("tabel1")[0] == "table1"
        assert suggest_experiment("zzzzzz") == []


class TestExperimentHandle:
    """Handles take exactly one RunContext; the legacy shim is gone."""

    def test_handles_are_registered(self):
        assert isinstance(get_experiment("fig7"), ExperimentHandle)

    def test_context_call(self):
        ctx = RunContext(scale=TINY, seed=2)
        assert "Figure 7" in get_experiment("fig7")(ctx).format_table()

    def test_context_keyword_call(self):
        ctx = RunContext(scale=TINY, seed=2)
        assert "Figure 7" in get_experiment("fig7")(ctx=ctx).format_table()

    def test_legacy_positional_scale_rejected(self):
        with pytest.raises(TypeError, match="RunContext"):
            get_experiment("fig7")(TINY, seed=2)

    def test_missing_context_rejected(self):
        with pytest.raises(TypeError, match="RunContext"):
            get_experiment("fig7")()

    def test_context_and_ctx_keyword_conflict(self):
        ctx = RunContext(scale=TINY, seed=2)
        with pytest.raises(TypeError, match="not both"):
            get_experiment("fig7")(ctx, ctx=ctx)

    def test_extra_positionals_rejected(self):
        ctx = RunContext(scale=TINY, seed=2)
        with pytest.raises(TypeError, match="unexpected positional"):
            get_experiment("fig7")(ctx, TINY)

    def test_extras_forwarded(self):
        result = get_experiment("fig7")(RunContext(scale=TINY, seed=2), window_ms=50.0)
        assert result.window_ms == 50.0


class TestFormatting:
    def test_format_rows_alignment(self):
        table = format_rows(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_sparkline_length(self):
        line = sparkline(range(100), width=20)
        assert len(line) == 20

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "   "

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_monotone_input(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert line[0] == " " and line[-1] == "@"


class TestRunnerCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_runs_cheap_experiment(self, capsys):
        assert main(["fig7", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "Randomized" in out

    def test_unknown_experiment_exits_2_with_suggestion(self, capsys):
        assert main(["fig99", "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert "did you mean" in err and "fig8" in err

    def test_jobs_flag_validated(self, capsys):
        assert main(["fig7", "--scale", "smoke", "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_cache_info_subcommand(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out and "entries" in out

    def test_cache_clear_subcommand(self, tmp_path, capsys):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 0" in capsys.readouterr().out

    def test_cache_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "shrink"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestSaveDir:
    def test_artifacts_written(self, tmp_path, capsys):
        assert main(
            ["fig7", "--scale", "smoke", "--save-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig7.txt").exists()
        svg = (tmp_path / "fig7.svg").read_text()
        assert svg.startswith("<svg")

    def test_manifest_written(self, tmp_path, capsys):
        import json

        save = tmp_path / "out"
        assert main(
            [
                "fig7", "--scale", "smoke", "--seed", "6", "--jobs", "1",
                "--save-dir", str(save),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        manifest = json.loads((save / "run_manifest.json").read_text())
        assert manifest["scale"] == "smoke"
        assert manifest["seed"] == 6
        assert manifest["jobs"] == 1
        assert "fig7" in manifest["experiments"]
        assert manifest["experiments"]["fig7"]["elapsed_s"] >= 0
        assert manifest["cache"]["hits"] == 0

    def test_no_cache_flag_omits_cache_block(self, tmp_path, capsys):
        import json

        save = tmp_path / "out"
        assert main(
            ["fig7", "--scale", "smoke", "--no-cache", "--save-dir", str(save)]
        ) == 0
        manifest = json.loads((save / "run_manifest.json").read_text())
        assert manifest["cache"] is None

    def test_table_without_renderer_writes_text_only(self, tmp_path, capsys):
        # fig8 has a renderer; use a quick text-only experiment via fig8's
        # sibling: tables 1/2 are too slow for a unit test, so check the
        # renderer-less path through the registry contract instead.
        from repro.viz.figures import render

        assert render("table2", object()) is None
