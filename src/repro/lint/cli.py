"""The ``biggerfish lint`` command (also ``python -m repro.lint``).

Usage::

    biggerfish lint                       # lint src/ and tests/
    biggerfish lint src/repro/sim         # specific paths
    biggerfish lint --format json         # machine-readable output
    biggerfish lint --format sarif        # SARIF 2.1.0 for code scanning
    biggerfish lint --select concurrency  # one whole rule family
    biggerfish lint --select unseeded-rng,wall-clock-in-sim
    biggerfish lint --ignore env-dependent-hash
    biggerfish lint --baseline .lint-baseline.json
    biggerfish lint --write-baseline      # grandfather current findings
    biggerfish lint --list-rules
    biggerfish lint --explain unseeded-rng

Exit codes: 0 clean (inline-suppressed and baselined findings do not
fail the run), 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.lint import Baseline, all_rules, get_rule, lint_paths
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.suppress import DEFAULT_BASELINE_NAME

#: Directories linted when no path argument is given.
DEFAULT_PATHS = ("src", "tests")


def add_parser(sub, engine_flags: argparse.ArgumentParser) -> None:
    """Register ``lint`` on the ``biggerfish`` parser."""
    parser = sub.add_parser(
        "lint",
        help="determinism + concurrency linter",
        description=(
            "AST-based determinism & concurrency-safety linter: seeded-RNG "
            "plumbing, simulated-time-only simulation code, order-stable "
            "iteration, and project-wide lock discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif emits SARIF 2.1.0",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids or families (determinism, "
        "concurrency) to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids or families to skip",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print one rule's documentation and exit",
    )
    parser.set_defaults(handler=_run)


def _split_ids(values: Optional[Sequence[str]]) -> Optional[list[str]]:
    if values is None:
        return None
    ids = []
    for value in values:
        ids.extend(part.strip() for part in value.split(",") if part.strip())
    return ids


def _resolve_baseline(args: argparse.Namespace) -> tuple[pathlib.Path, Optional[Baseline]]:
    """The baseline path in effect plus its loaded contents (if present).

    An explicit ``--baseline`` must exist unless it is about to be written.
    """
    path = pathlib.Path(args.baseline or DEFAULT_BASELINE_NAME)
    if path.exists() or (args.baseline and not args.write_baseline):
        return path, Baseline.load(path)
    return path, None


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.id:32} [{rule.family}/{rule.severity}] {rule.summary}"
            )
        return 0
    if args.explain is not None:
        try:
            rule = get_rule(args.explain)
        except KeyError:
            print(f"biggerfish lint: unknown rule {args.explain!r}", file=sys.stderr)
            return 2
        print(f"{rule.id} — {rule.summary}\n")
        print(rule.docs.strip())
        return 0
    paths = args.paths or [path for path in DEFAULT_PATHS if pathlib.Path(path).is_dir()]
    if not paths:
        print("biggerfish lint: no paths given and no default directory found",
              file=sys.stderr)
        return 2
    try:
        baseline_path, baseline = _resolve_baseline(args)
        run = lint_paths(
            paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            baseline=None if args.write_baseline else baseline,
        )
    except KeyError as error:
        print(
            f"biggerfish lint: unknown rule or family {error.args[0]!r}",
            file=sys.stderr,
        )
        return 2
    except (FileNotFoundError, ValueError) as error:
        print(f"biggerfish lint: {error}", file=sys.stderr)
        return 2
    if args.write_baseline:
        Baseline.write(baseline_path, run.findings)
        print(f"wrote {len(run.findings)} finding(s) to {baseline_path}")
        return 0
    if args.format == "json":
        report = render_json(run)
    elif args.format == "sarif":
        report = render_sarif(run)
    else:
        report = render_text(run)
    if report:
        print(report)
    return 0 if run.ok else 1
