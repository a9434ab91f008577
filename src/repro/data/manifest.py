"""``dataset.json`` — the schema-versioned manifest of a sharded store.

The manifest is the store's single source of truth: which shards exist,
how many rows and which site range each one carries, and the SHA-256
every shard file must hash to.  Readers refuse stores whose
``schema_version`` they don't understand; writers refuse to resume into
a store whose recorded :class:`DatasetConfig` differs from the build
being asked for.  The schema-evolution policy (what may be added
compatibly, what forces a version bump) is specified in
``docs/DATA.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.jsondoc import read_json, write_json

#: Bump on any incompatible change to the manifest or shard layout.
DATA_SCHEMA_VERSION = 1

#: File name of the manifest inside a store directory.
MANIFEST_NAME = "dataset.json"

#: Shard file-name pattern; the index is the shard's position in the
#: site partition, not a content hash — content addressing lives in the
#: manifest's per-shard ``sha256``.
SHARD_NAME_FORMAT = "shard-{index:04d}.npz"


class DataError(ValueError):
    """A store, manifest or shard violates the repro.data contract."""


@dataclass(frozen=True)
class DatasetConfig:
    """Everything that determines a store's traces, bit for bit.

    Mirrors the knobs of :class:`~repro.core.collector.TraceCollector`
    at the granularity the CLI exposes: the closed-world catalog prefix,
    per-site trace count, trace shape and browser, plus the collection
    seed.  Two stores built from equal configs hold identical rows
    regardless of sharding, worker count or resume history.
    """

    n_sites: int
    traces_per_site: int
    trace_seconds: float = 2.0
    period_ms: float = 10.0
    browser: str = "chrome"
    seed: int = 0
    noise: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_sites < 1 or self.traces_per_site < 1:
            raise DataError("need at least one site and one trace per site")
        if self.trace_seconds <= 0 or self.period_ms <= 0:
            raise DataError("trace_seconds and period_ms must be positive")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DataError(f"unknown dataset config field(s): {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise DataError(f"bad dataset config: {exc}") from None


@dataclass(frozen=True)
class ShardEntry:
    """One shard's identity: name, extent and required checksum."""

    name: str
    sha256: str
    n_rows: int
    n_bytes: int
    #: Half-open site range ``[site_start, site_stop)`` into the
    #: config's closed-world catalog.
    site_start: int
    site_stop: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardEntry":
        try:
            return cls(
                name=str(data["name"]),
                sha256=str(data["sha256"]),
                n_rows=int(data["n_rows"]),
                n_bytes=int(data["n_bytes"]),
                site_start=int(data["site_start"]),
                site_stop=int(data["site_stop"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad shard entry {data!r}: {exc}") from None


@dataclass
class DatasetManifest:
    """The parsed ``dataset.json`` of one store directory."""

    config: DatasetConfig
    trace_length: int = 0
    repro_version: str = ""
    #: "building" while shards are still being produced, "complete" once
    #: every shard landed; readers require "complete".
    status: str = "building"
    shards: List[ShardEntry] = field(default_factory=list)
    schema_version: int = DATA_SCHEMA_VERSION

    @property
    def n_rows(self) -> int:
        return sum(entry.n_rows for entry in self.shards)

    @property
    def n_bytes(self) -> int:
        return sum(entry.n_bytes for entry in self.shards)

    def shard_by_name(self) -> Dict[str, ShardEntry]:
        return {entry.name: entry for entry in self.shards}

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "repro_version": self.repro_version,
            "status": self.status,
            "config": self.config.as_dict(),
            "trace_length": self.trace_length,
            "n_rows": self.n_rows,
            "shards": [entry.as_dict() for entry in self.shards],
        }

    def save(self, store_dir) -> Path:
        """Atomically (re)write ``dataset.json`` in ``store_dir``."""
        return write_json(Path(store_dir) / MANIFEST_NAME, self.as_dict())

    @classmethod
    def load(cls, store_dir) -> "DatasetManifest":
        """Parse ``store_dir/dataset.json``, validating the schema."""
        path = Path(store_dir) / MANIFEST_NAME
        if not path.exists():
            raise DataError(f"{store_dir}: not a dataset store (no {MANIFEST_NAME})")
        data = read_json(
            path,
            noun="dataset manifest",
            version_key="schema_version",
            version=DATA_SCHEMA_VERSION,
            error=DataError,
        )
        status = str(data.get("status", ""))
        if status not in ("building", "complete"):
            raise DataError(f"{path}: unknown status {status!r}")
        if not isinstance(data.get("config"), dict):
            raise DataError(f"{path}: missing config block")
        if not isinstance(data.get("shards"), list):
            raise DataError(f"{path}: missing shards list")
        manifest = cls(
            config=DatasetConfig.from_dict(data["config"]),
            trace_length=int(data.get("trace_length", 0)),
            repro_version=str(data.get("repro_version", "")),
            status=status,
            shards=[ShardEntry.from_dict(entry) for entry in data["shards"]],
        )
        names = [entry.name for entry in manifest.shards]
        if len(names) != len(set(names)):
            raise DataError(f"{path}: duplicate shard names")
        return manifest
