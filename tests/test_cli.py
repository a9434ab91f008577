"""The one ``biggerfish`` parser: help screens and module entry points."""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

import pytest

import repro
import repro.cli
from repro.cli import main

COMMANDS = (
    "run", "cache", "report", "lint", "verify", "data", "train", "serve", "predict",
)
DATA_COMMANDS = ("build", "ls", "verify", "merge")


@pytest.mark.parametrize(
    "argv",
    [[command] for command in COMMANDS] + [["data", verb] for verb in DATA_COMMANDS],
    ids="-".join,
)
def test_command_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: biggerfish {' '.join(argv)} ")


def test_top_level_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^    (\w+) ", out, re.MULTILINE)
    assert listed == list(COMMANDS)


def test_importing_an_entry_point_does_not_run_it(monkeypatch):
    def forbidden(argv=None):
        raise AssertionError("importing a __main__ module ran the CLI")

    monkeypatch.setattr(repro.cli, "main", forbidden)
    root = pathlib.Path(repro.__file__).parent
    names = [
        ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
        for path in sorted(root.rglob("__main__.py"))
    ]
    assert "repro.__main__" in names and "repro.verify.__main__" in names
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
        importlib.import_module(name)
