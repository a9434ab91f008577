"""``biggerfish verify`` — sweep the differential oracles.

Usage::

    biggerfish verify --seeds 25
    biggerfish verify --oracles sim.synthesize,timers.crossing --seeds 5
    biggerfish verify --seed-list 3,17 --sites 1 --traces 1 --shrink
    biggerfish verify --list
    biggerfish verify --seeds 25 --jobs 4 --json verify_report.json

Exit status: 0 when every oracle passes every case, 1 on any failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
from typing import List

from repro.engine.engine import resolve_jobs
from repro.jsondoc import write_json
from repro.verify.driver import VerifyReport, make_cases, sweep
from repro.verify.oracle import ORACLES, list_oracles
from repro.verify.shrink import shrink, shrink_report


def add_parser(sub, engine_flags: argparse.ArgumentParser) -> None:
    """Register ``verify`` on the ``biggerfish`` parser."""
    parser = sub.add_parser(
        "verify",
        help="differential-oracle sweeps",
        description=(
            "Run every optimized path against its reference implementation "
            "over a sweep of seeded cases."
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=10,
        metavar="N",
        help="sweep seeds 0..N-1 (default: 10)",
    )
    parser.add_argument(
        "--seed-list",
        default=None,
        metavar="S0,S1,...",
        help="explicit comma-separated seeds (overrides --seeds)",
    )
    parser.add_argument(
        "--oracles",
        default=None,
        metavar="NAME,...",
        help="comma-separated oracle names (default: all registered)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered oracles and exit"
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="minimize the first failing case of each failing oracle",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $BIGGERFISH_JOBS or 1)",
    )
    parser.add_argument(
        "--sites", type=int, default=2, help="sites per case (default: 2)"
    )
    parser.add_argument(
        "--traces", type=int, default=2, help="traces per site (default: 2)"
    )
    parser.add_argument(
        "--horizon-ms",
        type=float,
        default=400.0,
        help="simulated horizon per trace in ms (default: 400)",
    )
    parser.set_defaults(handler=functools.partial(_run, parser))


def _parse_seeds(args: argparse.Namespace, parser: argparse.ArgumentParser) -> List[int]:
    if args.seed_list is not None:
        try:
            seeds = [int(part) for part in args.seed_list.split(",") if part.strip()]
        except ValueError:
            parser.error(f"--seed-list must be comma-separated integers, got {args.seed_list!r}")
        if not seeds:
            parser.error("--seed-list is empty")
        return seeds
    if args.seeds < 1:
        parser.error(f"--seeds must be positive, got {args.seeds}")
    return list(range(args.seeds))


def _print_oracle_list() -> None:
    import repro.verify.oracles  # noqa: F401 - registration side effect

    width = max(len(name) for name in list_oracles())
    for name in list_oracles():
        oracle = ORACLES[name]
        print(f"{name:<{width}}  [{oracle.mode:>9}]  {oracle.description}")


def _print_report(report: VerifyReport) -> None:
    for name in sorted(report.oracles):
        oracle_report = report.oracles[name]
        status = "PASS" if oracle_report.ok else "FAIL"
        print(f"{status}  {name}  ({len(oracle_report.results)} cases)")
        counterexample = oracle_report.counterexample
        if counterexample is not None:
            print(f"      case: {counterexample.case.describe()}")
            print(f"      {counterexample.failure}")
    verdict = "all oracles agree" if report.ok else (
        f"{report.n_failures} of {report.n_cases} cases failed"
    )
    print(f"verify: {verdict} in {report.elapsed_s:.1f}s")


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.list:
        _print_oracle_list()
        return 0

    seeds = _parse_seeds(args, parser)
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    oracle_names = None
    if args.oracles is not None:
        oracle_names = [part.strip() for part in args.oracles.split(",") if part.strip()]
        if not oracle_names:
            parser.error("--oracles is empty")

    try:
        cases = make_cases(
            seeds, sites=args.sites, traces=args.traces, horizon_ms=args.horizon_ms
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = sweep(cases, oracles=oracle_names, jobs=jobs)
    except KeyError as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))

    _print_report(report)

    report_dict = report.as_dict()
    if not report.ok and args.shrink:
        shrunk = []
        for name in sorted(report.oracles):
            counterexample = report.oracles[name].counterexample
            if counterexample is None:
                continue
            result = shrink(name, counterexample.case)
            print(shrink_report(result))
            shrunk.append(result.as_dict())
        report_dict["shrunk"] = shrunk

    if args.json == "-":
        print(json.dumps(report_dict, indent=2, sort_keys=True))
    elif args.json:
        write_json(args.json, report_dict)
    return 0 if report.ok else 1
