"""Sharded dataset builder: partition a site catalog, collect in parallel.

:func:`build_dataset` turns a :class:`~repro.data.manifest.DatasetConfig`
into a store directory: the closed-world catalog prefix is partitioned
into contiguous site ranges of ``shard_sites`` sites each, every range
becomes one shard built by an independent task, and the tasks fan out
over the repo's :class:`~repro.engine.engine.ExecutionEngine` —
inheriting its retries, per-task timeouts and pool-respawn fault
tolerance for free.  Each task derives every RNG stream from the config
and its site range alone, so shard bytes are a pure function of
``(config, site range)``: parallel builds equal serial builds, and a
retried task rewrites byte-identical data.

Builds are **resumable**: shard files are written atomically (temp name
+ rename), a ``building`` manifest is kept up to date on disk, and a
re-run with the same config skips every shard whose file already hashes
to its recorded checksum — only missing or corrupt shards are rebuilt.
An existing shard file that predates its manifest entry (a build killed
between the rename and the manifest update) is adopted instead of being
rebuilt once every archive member passes its CRC check and its metadata,
labels and matrix shape match the shard it should be.

A store never mixes simulator versions: every shard records the
``repro.__version__`` that collected it, a build refuses to resume a
store of another version, an orphan shard of another version is
rebuilt, and only stores of one version merge.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.data.format import (
    ShardFormatError,
    check_members,
    read_labels,
    read_meta,
    shard_checksum,
    write_shard,
)
from repro.data.manifest import (
    SHARD_NAME_FORMAT,
    DataError,
    DatasetConfig,
    DatasetManifest,
    ShardEntry,
)
from repro.jsondoc import write_atomic

#: Default number of catalog sites per shard.
DEFAULT_SHARD_SITES = 8

#: Browser keys the config accepts (lower-case, CLI-friendly).
BROWSER_KEYS = ("chrome", "firefox", "safari", "tor")


def config_browser(config: DatasetConfig):
    """The :class:`~repro.workload.browser.Browser` a config names."""
    from repro.workload.browser import CHROME, FIREFOX, SAFARI, TOR_BROWSER

    browsers = {
        "chrome": CHROME,
        "firefox": FIREFOX,
        "safari": SAFARI,
        "tor": TOR_BROWSER,
    }
    try:
        base = browsers[config.browser]
    except KeyError:
        raise DataError(
            f"unknown browser {config.browser!r}; pick from {sorted(browsers)}"
        ) from None
    return dataclasses.replace(base, trace_seconds=config.trace_seconds)


def collector_for(config: DatasetConfig, engine=None, cache=None):
    """The collector a config describes — shared with the verify oracle.

    Both the shard tasks and the ``data.roundtrip`` reference path build
    their collector here, so "store contents == in-memory collection" is
    a statement about the *store machinery*, not about two collectors
    that merely look similar.
    """
    from repro.core.collector import TraceCollector
    from repro.sim.events import MS
    from repro.sim.machine import MachineConfig

    if config.noise is not None:
        raise DataError(
            "dataset schema v1 records noise=None only; collect noisy datasets "
            "through the library API and save them monolithically"
        )
    return TraceCollector(
        MachineConfig(),
        config_browser(config),
        period_ns=int(config.period_ms * MS),
        seed=config.seed,
        engine=engine,
        cache=cache,
    )


def config_sites(config: DatasetConfig) -> list:
    """The closed-world catalog prefix the config covers."""
    from repro.workload.catalog import closed_world

    return closed_world(config.n_sites)


def partition_sites(n_sites: int, shard_sites: int) -> List[Tuple[int, int]]:
    """Contiguous half-open ``[start, stop)`` site ranges, one per shard."""
    return [
        (start, min(start + shard_sites, n_sites))
        for start in range(0, n_sites, shard_sites)
    ]


def shard_meta(config: DatasetConfig, site_start: int, site_stop: int) -> dict:
    from repro import __version__

    sites = config_sites(config)[site_start:site_stop]
    return {
        "config": config.as_dict(),
        "repro_version": __version__,
        "site_start": site_start,
        "site_stop": site_stop,
        "sites": [site.name for site in sites],
    }


def _build_shard_task(task: tuple) -> Tuple[ShardEntry, int]:
    """Collect and write one shard; the engine's unit of work.

    Module-level so it pickles into worker processes; everything the
    shard contains derives from ``(config, site range)``, so a retry —
    or a concurrent attempt after a timeout — rewrites identical bytes.
    Returns the manifest entry plus the shard's trace length.
    """
    config_dict, site_start, site_stop, name, store_dir = task
    config = DatasetConfig.from_dict(config_dict)
    collector = collector_for(config)
    sites = config_sites(config)[site_start:site_stop]
    with obs.span("data.shard", shard=name, sites=len(sites)):
        x, labels = collector.collect(sites, config.traces_per_site).stacked()
        info = write_shard(
            Path(store_dir) / name, x, labels, shard_meta(config, site_start, site_stop)
        )
    obs.counter("data.shards_written").inc()
    obs.counter("data.rows_written").inc(info.n_rows)
    entry = ShardEntry(
        name=name,
        sha256=info.sha256,
        n_rows=info.n_rows,
        n_bytes=info.n_bytes,
        site_start=site_start,
        site_stop=site_stop,
    )
    return entry, x.shape[1]


def _adopt_existing(
    path: Path, config: DatasetConfig, site_start: int, site_stop: int
) -> Optional[Tuple[ShardEntry, int]]:
    """Validate an unmanifested shard file left by an interrupted build.

    Atomic renames mean any file present is complete, but not that it is
    intact; it is adopted iff every archive member passes its CRC check,
    its metadata names exactly this config, site range and simulator
    version, and its label count and matrix shape match the expected row
    count.  Anything else is rebuilt.
    """
    from repro import __version__

    try:
        check_members(path)
        meta = read_meta(path)
        labels = read_labels(path)
    except (ShardFormatError, OSError, ValueError):
        return None
    expected_rows = (site_stop - site_start) * config.traces_per_site
    if (
        meta.get("config") != config.as_dict()
        or meta.get("repro_version") != __version__
        or meta.get("site_start") != site_start
        or meta.get("site_stop") != site_stop
        or len(labels) != expected_rows
    ):
        return None
    from repro.data.format import open_x_mmap

    try:
        x = open_x_mmap(path)
    except (ShardFormatError, OSError, ValueError):
        return None
    if x.ndim != 2 or len(x) != expected_rows:
        return None
    entry = ShardEntry(
        name=path.name,
        sha256=shard_checksum(path),
        n_rows=expected_rows,
        n_bytes=path.stat().st_size,
        site_start=site_start,
        site_stop=site_stop,
    )
    return entry, x.shape[1]


def build_dataset(
    store_dir,
    config: DatasetConfig,
    *,
    shard_sites: int = DEFAULT_SHARD_SITES,
    engine=None,
    progress=None,
) -> DatasetManifest:
    """Build (or resume) the sharded store for ``config`` in ``store_dir``.

    ``engine`` is an optional :class:`~repro.engine.engine.ExecutionEngine`;
    without one, shards build serially in-process.  ``progress`` is an
    optional ``callable(str)`` the CLI uses to narrate long builds.
    Returns the completed manifest.
    """
    from repro import __version__

    if shard_sites < 1:
        raise DataError(f"shard_sites must be >= 1, got {shard_sites}")
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    ranges = partition_sites(config.n_sites, shard_sites)

    previous: dict = {}
    manifest_path = store_dir / "dataset.json"
    if manifest_path.exists():
        existing = DatasetManifest.load(store_dir)
        if existing.config != config:
            raise DataError(
                f"{store_dir} already holds a dataset built from a different "
                f"config; refusing to mix generations (use a new directory)"
            )
        if existing.repro_version != __version__:
            raise DataError(
                f"{store_dir} holds traces from repro "
                f"{existing.repro_version or '(unknown)'}, not {__version__}; "
                f"refusing to mix simulator versions (use a new directory)"
            )
        previous = existing.shard_by_name()

    manifest = DatasetManifest(
        config=config, repro_version=__version__, status="building"
    )
    trace_length = 0
    pending: List[tuple] = []
    placed: List[Optional[ShardEntry]] = [None] * len(ranges)

    with obs.span("data.build", shards=len(ranges), sites=config.n_sites):
        for index, (site_start, site_stop) in enumerate(ranges):
            name = SHARD_NAME_FORMAT.format(index=index)
            path = store_dir / name
            entry = previous.get(name)
            if (
                entry is not None
                and entry.site_start == site_start
                and entry.site_stop == site_stop
                and path.exists()
                and shard_checksum(path) == entry.sha256
            ):
                placed[index] = entry
                obs.counter("data.shards_skipped").inc()
                if progress is not None:
                    progress(f"data: {name} up to date, skipping")
                continue
            if entry is None and path.exists():
                adopted = _adopt_existing(path, config, site_start, site_stop)
                if adopted is not None:
                    placed[index], trace_length = adopted
                    obs.counter("data.shards_skipped").inc()
                    if progress is not None:
                        progress(f"data: {name} adopted from interrupted build")
                    continue
            pending.append((config.as_dict(), site_start, site_stop, name, str(store_dir)))

        # Record what is already valid before dispatching, so a crash
        # mid-build leaves a resumable "building" manifest behind.
        manifest.shards = [entry for entry in placed if entry is not None]
        manifest.save(store_dir)

        if pending:
            if progress is not None:
                progress(
                    f"data: building {len(pending)}/{len(ranges)} shard(s) in "
                    f"{store_dir}"
                )
            if engine is not None:
                outcomes = engine.map(_build_shard_task, pending, stage="data.build")
            else:
                outcomes = [_build_shard_task(task) for task in pending]
            for entry, length in outcomes:
                index = int(entry.name.split("-")[1].split(".")[0])
                placed[index] = entry
                trace_length = length

    entries = [entry for entry in placed if entry is not None]
    if len(entries) != len(ranges):
        raise DataError(f"{store_dir}: build finished with missing shards")
    if trace_length == 0:
        # Every shard was reused; read one header for the length.
        from repro.data.format import open_x_mmap

        trace_length = open_x_mmap(store_dir / entries[0].name).shape[1]
    manifest.shards = entries
    manifest.trace_length = int(trace_length)
    manifest.status = "complete"
    manifest.save(store_dir)
    if progress is not None:
        progress(
            f"data: {manifest.n_rows} rows x {manifest.trace_length} samples in "
            f"{len(entries)} shard(s), {manifest.n_bytes} bytes"
        )
    return manifest


def merge_stores(sources: Sequence, store_dir, progress=None) -> DatasetManifest:
    """Merge complete stores into a new store at ``store_dir``.

    Shard files are copied verbatim (checksums carry over) and renamed
    into one contiguous sequence; site ranges are offset so they stay
    disjoint.  Sources must agree on schema, simulator version, trace
    length and trace shape (``trace_seconds``/``period_ms``/``browser``),
    and the merged store keeps their version.  The merged manifest's
    config concatenates the site counts under the first source's other
    settings — a merged store is a *serving* artifact:
    its rows are exactly its sources', but it is no longer rebuildable
    from its config alone (see docs/DATA.md).
    """
    if len(sources) < 2:
        raise DataError("merge needs at least two source stores")
    store_dir = Path(store_dir)
    if (store_dir / "dataset.json").exists():
        raise DataError(f"{store_dir}: already a dataset store; merge into a new dir")
    manifests = [DatasetManifest.load(source) for source in sources]
    for source, manifest in zip(sources, manifests):
        if manifest.status != "complete":
            raise DataError(f"{source}: store is incomplete; finish the build first")
    first = manifests[0]
    for source, other in zip(sources[1:], manifests[1:]):
        if other.repro_version != first.repro_version:
            raise DataError(
                f"{source}: built by repro {other.repro_version or '(unknown)'}, "
                f"not {first.repro_version or '(unknown)'}; refusing to merge "
                f"traces of different simulator versions"
            )
        if other.trace_length != first.trace_length:
            raise DataError(
                f"{source}: trace length {other.trace_length} != "
                f"{first.trace_length}; refusing to merge"
            )
        for field_name in ("trace_seconds", "period_ms", "browser"):
            if getattr(other.config, field_name) != getattr(first.config, field_name):
                raise DataError(
                    f"{source}: config field {field_name!r} differs; merged rows "
                    f"would not be comparable"
                )
    store_dir.mkdir(parents=True, exist_ok=True)
    merged = DatasetManifest(
        config=dataclasses.replace(
            first.config, n_sites=sum(m.config.n_sites for m in manifests)
        ),
        trace_length=first.trace_length,
        repro_version=first.repro_version,
        status="building",
    )
    index = 0
    site_offset = 0
    with obs.span("data.merge", sources=len(sources)):
        for source, manifest in zip(sources, manifests):
            for entry in manifest.shards:
                name = SHARD_NAME_FORMAT.format(index=index)
                source_path = Path(source) / entry.name
                if shard_checksum(source_path) != entry.sha256:
                    raise DataError(
                        f"{source_path}: checksum mismatch; run "
                        f"'biggerfish data verify {source}' and rebuild"
                    )
                write_atomic(store_dir / name, source_path.read_bytes())
                merged.shards.append(
                    ShardEntry(
                        name=name,
                        sha256=entry.sha256,
                        n_rows=entry.n_rows,
                        n_bytes=entry.n_bytes,
                        site_start=entry.site_start + site_offset,
                        site_stop=entry.site_stop + site_offset,
                    )
                )
                index += 1
            site_offset += manifest.config.n_sites
    merged.status = "complete"
    merged.save(store_dir)
    if progress is not None:
        progress(
            f"data: merged {len(sources)} store(s) into {store_dir}: "
            f"{merged.n_rows} rows in {len(merged.shards)} shard(s)"
        )
    return merged
