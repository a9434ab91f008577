"""The ``biggerfish`` command line: one parser for every command.

Usage::

    biggerfish [run] [EXPERIMENT ...] [options]
    biggerfish COMMAND [options]
    python -m repro COMMAND [options]

Each command's package registers it through ``add_parser(sub,
engine_flags)``, which adds a subparser and sets ``handler(args) ->
int`` on it; :func:`main` parses once and calls the handler.  A first
argument that is not a command name goes to ``run``, so ``biggerfish
table1``, ``biggerfish --list`` and bare ``biggerfish`` run experiments.
Exit codes: 0 success, 1 the command ran and found a failure, 2 usage or
input errors.  The flag reference lives in ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.data import cli as data_cli
from repro.experiments import runner
from repro.lint import cli as lint_cli
from repro.serve import cli as serve_cli
from repro.verify import cli as verify_cli


def _engine_flags() -> argparse.ArgumentParser:
    """The execution-engine flags shared by ``run`` and ``data build``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: BIGGERFISH_JOBS or 1 = serial)",
    )
    flags.add_argument(
        "--retries",
        type=int,
        default=None,
        help="re-execution attempts per failed task "
        "(default: BIGGERFISH_RETRIES or 2; retries are bit-identical)",
    )
    flags.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon and retry a parallel task running longer than this "
        "(default: BIGGERFISH_TASK_TIMEOUT or no timeout)",
    )
    return flags


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``biggerfish`` command line and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="biggerfish",
        description=(
            "Reproduce 'There's Always a Bigger Fish' (ISCA 2022) on a "
            "simulated machine: run experiments, build datasets, train and "
            "serve models, and check and lint the code."
        ),
    )
    sub = parser.add_subparsers(title="commands", metavar="COMMAND")
    engine_flags = _engine_flags()
    for module in (runner, lint_cli, verify_cli, data_cli, serve_cli):
        module.add_parser(sub, engine_flags)
    if not argv or (argv[0] not in sub.choices and argv[0] not in ("-h", "--help")):
        argv.insert(0, "run")
    args = parser.parse_args(argv)
    return args.handler(args)
