"""``biggerfish data`` — build, inspect, verify and merge sharded stores.

Usage::

    biggerfish data build store/ --sites 20 --traces 30 --jobs 4
    biggerfish data build store/ --sites 20 --traces 30   # resume: skips
                                                          # checksum-valid shards
    biggerfish data ls store/
    biggerfish data ls store/ --shards
    biggerfish data verify store/
    biggerfish data merge out/ store-a/ store-b/
    python -m repro.data build store/ --sites 4 --traces 2

Exit status: 0 success, 1 verification failures or build errors, 2 usage
errors (unknown subcommand, bad shapes, a bad ``--jobs`` / ``--retries`` /
``--task-timeout`` value or environment setting, a bad ``--shard-sites``
value, config mismatch on resume).
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.data.format import ShardFormatError
from repro.data.manifest import DataError, DatasetConfig, DatasetManifest
from repro.data.reader import ShardedDataset, verify_store
from repro.data.writer import (
    BROWSER_KEYS,
    DEFAULT_SHARD_SITES,
    build_dataset,
    merge_stores,
)
from repro.engine.engine import ExecutionEngine


def add_parser(sub, engine_flags: argparse.ArgumentParser) -> None:
    """Register ``data`` and its ``build|ls|verify|merge`` commands."""
    parser = sub.add_parser(
        "data",
        help="sharded trace-dataset stores",
        description="Sharded trace-dataset stores: build, inspect, verify, merge.",
    )
    parser.set_defaults(handler=functools.partial(_run, parser))
    commands = parser.add_subparsers(dest="data_command", metavar="COMMAND")

    build = commands.add_parser(
        "build",
        parents=[engine_flags],
        help="collect a dataset into (or resume) a sharded store",
        description=(
            "Partition the closed-world catalog into shards and collect them "
            "in parallel; re-running with the same config skips shards whose "
            "checksums already match."
        ),
    )
    build.add_argument("store", help="store directory (created if missing)")
    build.add_argument(
        "--sites", type=int, required=True, help="closed-world catalog prefix size"
    )
    build.add_argument(
        "--traces", type=int, required=True, help="traces collected per site"
    )
    build.add_argument(
        "--trace-seconds",
        type=float,
        default=2.0,
        help="trace duration in seconds (default: 2.0)",
    )
    build.add_argument(
        "--period-ms",
        type=float,
        default=10.0,
        help="measurement period in milliseconds (default: 10.0)",
    )
    build.add_argument(
        "--browser",
        default="chrome",
        choices=sorted(BROWSER_KEYS),
        help="browser profile traces are collected under (default: chrome)",
    )
    build.add_argument("--seed", type=int, default=0, help="collection seed")
    build.add_argument(
        "--shard-sites",
        type=int,
        default=DEFAULT_SHARD_SITES,
        metavar="N",
        help=f"catalog sites per shard (default: {DEFAULT_SHARD_SITES})",
    )

    ls = commands.add_parser(
        "ls",
        help="summarize a store from its manifest (and lazy labels)",
        description="Print the store's config, size and class breakdown.",
    )
    ls.add_argument("store", help="store directory")
    ls.add_argument(
        "--shards", action="store_true", help="also list per-shard rows/sites/checksums"
    )

    verify = commands.add_parser(
        "verify",
        help="re-hash every shard against the manifest",
        description=(
            "Check manifest schema, shard existence, sizes, SHA-256 checksums, "
            "label counts and matrix shapes.  Exit 1 on any problem."
        ),
    )
    verify.add_argument("store", help="store directory")

    merge = commands.add_parser(
        "merge",
        help="concatenate complete stores into a new store",
        description=(
            "Copy the sources' shards verbatim into one store with disjoint "
            "site ranges.  Sources must share trace length, period, duration "
            "and browser."
        ),
    )
    merge.add_argument("out", help="output store directory (must not be a store yet)")
    merge.add_argument("sources", nargs="+", help="two or more source stores")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_build(args: argparse.Namespace) -> int:
    try:
        engine = ExecutionEngine(
            jobs=args.jobs, retries=args.retries, task_timeout=args.task_timeout
        )
    except ValueError as exc:  # a bad engine setting
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = DatasetConfig(
        n_sites=args.sites,
        traces_per_site=args.traces,
        trace_seconds=args.trace_seconds,
        period_ms=args.period_ms,
        browser=args.browser,
        seed=args.seed,
    )
    manifest = build_dataset(
        args.store,
        config,
        shard_sites=args.shard_sites,
        engine=engine,
        progress=_progress,
    )
    print(
        f"{args.store}: {manifest.n_rows} rows x {manifest.trace_length} samples "
        f"in {len(manifest.shards)} shard(s)"
    )
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    manifest = DatasetManifest.load(args.store)
    config = manifest.config
    print(f"store:          {args.store}")
    print(f"status:         {manifest.status}")
    print(f"schema:         v{manifest.schema_version} (repro {manifest.repro_version})")
    print(
        f"config:         {config.n_sites} sites x {config.traces_per_site} traces, "
        f"{config.trace_seconds}s @ {config.period_ms}ms, "
        f"{config.browser}, seed {config.seed}"
    )
    print(
        f"size:           {manifest.n_rows} rows x {manifest.trace_length} samples, "
        f"{manifest.n_bytes} bytes in {len(manifest.shards)} shard(s)"
    )
    if manifest.status == "complete":
        dataset = ShardedDataset(args.store)
        print(f"classes:        {len(dataset.classes)}")
    if args.shards:
        for entry in manifest.shards:
            print(
                f"  {entry.name}  rows={entry.n_rows}  "
                f"sites=[{entry.site_start},{entry.site_stop})  "
                f"sha256={entry.sha256[:12]}..."
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    problems = verify_store(args.store)
    if problems:
        for problem in problems:
            print(f"FAIL  {problem}")
        print(f"{args.store}: {len(problems)} problem(s)")
        return 1
    manifest = DatasetManifest.load(args.store)
    print(
        f"{args.store}: OK — {len(manifest.shards)} shard(s), "
        f"{manifest.n_rows} rows verified"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    manifest = merge_stores(args.sources, args.out, progress=_progress)
    print(
        f"{args.out}: {manifest.n_rows} rows in {len(manifest.shards)} shard(s) "
        f"from {len(args.sources)} store(s)"
    )
    return 0


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.data_command is None:
        parser.print_help()
        return 2
    handler = {
        "build": _cmd_build,
        "ls": _cmd_ls,
        "verify": _cmd_verify,
        "merge": _cmd_merge,
    }[args.data_command]
    try:
        return handler(args)
    except (DataError, ShardFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if args.data_command in ("build", "merge") else 1
