"""The ``biggerfish bench`` command.

Usage::

    biggerfish bench                        # run all scenarios, print times
    biggerfish bench --list                 # names + descriptions
    biggerfish bench sim.synthesize --repeat 7 --warmup 2
    biggerfish bench --out benchmarks/results --label main
    biggerfish bench --compare benchmarks/results/bench_main.json
    biggerfish bench --compare OLD.json --against NEW.json   # no run

Exit codes: 0 on success, 1 when ``--compare`` finds a regression or a
scenario missing from the candidate, 2 on usage/format errors (unknown
scenario, malformed or old-schema baseline JSON).

Also runnable as ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import compare as bench_compare
from repro.bench import harness
from repro.bench.results import BenchFormatError, BenchReport, default_results_dir
from repro.bench.scenarios import SCENARIOS, list_scenarios


def add_parser(sub, engine_flags: argparse.ArgumentParser) -> None:
    """Register ``bench`` on the ``biggerfish`` parser."""
    parser = sub.add_parser(
        "bench",
        help="perf-regression harness",
        description=(
            "Run seeded performance scenarios, record schema-versioned "
            "bench_*.json results, and gate on regressions vs a baseline."
        ),
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names (default: all; see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument(
        "--warmup", type=int, default=harness.DEFAULT_WARMUP,
        help="untimed repetitions per scenario before measuring",
    )
    parser.add_argument(
        "--repeat", type=int, default=harness.DEFAULT_REPEAT,
        help="timed repetitions per scenario",
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--label", default="run",
        help="result label; the file is written as bench_<label>.json",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write bench_<label>.json here (default with --save: "
        "benchmarks/results under the repo)",
    )
    parser.add_argument(
        "--save", action="store_true",
        help="write the result JSON even without an explicit --out",
    )
    parser.add_argument(
        "--no-obs", action="store_true",
        help="skip the instrumented (untimed) repetition that records "
        "obs counters and span aggregates",
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="bench_*.json to compare against; exit 1 on regression",
    )
    parser.add_argument(
        "--against", default=None, metavar="CANDIDATE",
        help="with --compare: load the candidate from this file instead "
        "of running scenarios",
    )
    parser.add_argument(
        "--threshold", type=float, default=bench_compare.DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help="relative slowdown tolerated before a scenario regresses "
        "(e.g. 0.10 = 10%%); widened automatically for noisy scenarios",
    )
    parser.add_argument(
        "--noise-factor", type=float, default=bench_compare.DEFAULT_NOISE_FACTOR,
        help="multiplier on the observed coefficient of variation used "
        "to widen --threshold for noisy scenarios",
    )
    parser.set_defaults(handler=_run)


def _list_command() -> int:
    for name in list_scenarios():
        scenario = SCENARIOS[name]
        print(f"{name:20s} [{scenario.scale}] {scenario.description}")
    return 0


def _run(args: argparse.Namespace) -> int:
    if args.list:
        return _list_command()
    unknown = [name for name in args.scenarios if name not in SCENARIOS]
    if unknown:
        print(
            f"biggerfish bench: unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(list_scenarios())})",
            file=sys.stderr,
        )
        return 2
    if args.against and not args.compare:
        print("biggerfish bench: --against requires --compare", file=sys.stderr)
        return 2

    try:
        config = harness.BenchConfig(
            warmup=args.warmup,
            repeat=args.repeat,
            seed=args.seed,
            instrument=not args.no_obs,
        )
    except ValueError as error:
        print(f"biggerfish bench: {error}", file=sys.stderr)
        return 2

    try:
        if args.against:
            candidate = BenchReport.load(args.against)
        else:
            candidate = harness.run_bench(
                args.scenarios or None, config, label=args.label, progress=print
            )
    except BenchFormatError as error:
        print(f"biggerfish bench: {error}", file=sys.stderr)
        return 2

    if not args.against and (args.out or args.save):
        out_dir = args.out or default_results_dir()
        path = candidate.write(out_dir)
        print(f"bench: wrote {path}")

    if not args.compare:
        if args.against is None and not (args.out or args.save):
            for name, record in sorted(candidate.scenarios.items()):
                print(
                    f"{name:20s} best {record.best_s:8.4f}s  "
                    f"median {record.median_s:8.4f}s  cv {record.cv * 100:4.1f}%"
                )
        return 0

    try:
        baseline = BenchReport.load(args.compare)
        report = bench_compare.compare_reports(
            baseline,
            candidate,
            threshold=args.threshold,
            noise_factor=args.noise_factor,
        )
    except (BenchFormatError, ValueError) as error:
        print(f"biggerfish bench: {error}", file=sys.stderr)
        return 2
    print(report.format_table())
    if baseline.host and candidate.host and baseline.host != candidate.host:
        print(
            "bench: note — baseline and candidate were recorded on "
            "different hosts; absolute comparisons are indicative only",
        )
    return 0 if report.ok else 1
