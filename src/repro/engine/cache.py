"""Content-addressed on-disk trace cache.

A trace is fully determined by the configuration that produced it:
machine, browser, attacker, timer, attacker period, site signature,
trace index, collector seed — plus the package version, since any code
change may change the numbers.  The cache hashes a canonical rendition
of all of that into a key and stores the finished
:class:`~repro.core.trace.Trace` as a compressed ``.npz``, so warm
re-runs of ``biggerfish all`` and repeated benchmark invocations skip
simulation entirely.

Anything that cannot be canonically described (an exotic noise injector,
say) raises :class:`Uncacheable` during key construction and the
collector silently bypasses the cache for that call — correctness never
depends on cacheability.

The cache directory defaults to ``~/.cache/biggerfish/traces`` and is
overridable with ``BIGGERFISH_CACHE_DIR``; total size is capped (default
2 GiB, ``BIGGERFISH_CACHE_MAX_BYTES``) with least-recently-used eviction
(hits refresh an entry's mtime; the entry just written is never evicted).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import os
import pathlib
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.config import read_setting
from repro.obs import metrics as obs_metrics

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV_VAR = "BIGGERFISH_CACHE_DIR"
#: Environment variable overriding the size cap (bytes).
CACHE_MAX_BYTES_ENV_VAR = "BIGGERFISH_CACHE_MAX_BYTES"
#: Default size cap.
DEFAULT_MAX_BYTES = 2 * 1024**3
#: Bump to invalidate every existing entry on disk-format changes.
SCHEMA_VERSION = 1
#: What loading a missing, torn or stale-format entry raises: OSError for
#: a missing file, EOFError for an empty one, BadZipFile for a truncated
#: one, zlib.error for a corrupt deflate stream, RuntimeError when a
#: flipped zip flag asks for a password or an unknown compression method,
#: KeyError/ValueError for missing or malformed members.
_UNREADABLE_ENTRY = (
    OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile, zlib.error
)


class Uncacheable(TypeError):
    """Raised when an object cannot be canonically tokenized."""


def stable_token(obj: Any) -> str:
    """Canonical string for any cache-key component.

    Recursively handles primitives, enums, numpy arrays, dataclasses and
    containers; objects may opt in by exposing ``cache_token() -> str``.
    The token is stable across processes and sessions (no ``id()``, no
    ``hash()``), which is what makes the cache content-addressed.
    """
    if obj is None:
        return "none"
    if isinstance(obj, bool):
        return f"bool:{obj}"
    if isinstance(obj, int):
        return f"int:{obj}"
    if isinstance(obj, float):
        return f"float:{obj!r}"
    if isinstance(obj, str):
        return f"str:{obj}"
    if isinstance(obj, bytes):
        return f"bytes:{hashlib.sha256(obj).hexdigest()}"
    if isinstance(obj, enum.Enum):
        return f"enum:{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        digest = hashlib.sha256(data.tobytes()).hexdigest()
        return f"ndarray:{data.dtype}:{data.shape}:{digest}"
    if isinstance(obj, np.generic):
        return stable_token(obj.item())
    token_method = getattr(obj, "cache_token", None)
    if callable(token_method):
        return f"token:{type(obj).__qualname__}:{token_method()}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        parts = ",".join(
            f"{f.name}={stable_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"dc:{type(obj).__qualname__}({parts})"
    if isinstance(obj, (tuple, list)):
        return f"seq:[{','.join(stable_token(item) for item in obj)}]"
    if isinstance(obj, dict):
        try:
            entries = sorted(obj.items())
        except TypeError:
            # Mixed-type keys have no canonical order; surfacing the raw
            # TypeError would defeat the collector's "silently bypass the
            # cache" contract, which catches only Uncacheable.
            kinds = ", ".join(sorted({type(k).__name__ for k in obj}))
            raise Uncacheable(
                f"cannot canonically order dict keys of mixed types ({kinds})"
            ) from None
        parts = ",".join(
            f"{stable_token(k)}:{stable_token(v)}" for k, v in entries
        )
        return f"map:{{{parts}}}"
    raise Uncacheable(
        f"cannot build a cache token for {type(obj).__qualname__}; "
        "add a cache_token() method or make it a dataclass"
    )


def cache_key(components: Dict[str, Any]) -> str:
    """Hash named key components into a hex digest."""
    return key_from_parts(key_parts(components))


def key_parts(components: Dict[str, Any]) -> Dict[str, str]:
    """Each named component's part of a :func:`cache_key` body.

    Tokenizing is the costly step of a key, so a caller building many
    keys that share components tokenizes each shared one once and
    merges the parts; raises :class:`Uncacheable` like :func:`stable_token`.
    """
    return {
        name: f"{stable_token(name)}:{stable_token(value)}"
        for name, value in components.items()
    }


def key_from_parts(parts: Dict[str, str]) -> str:
    """The :func:`cache_key` of the components ``parts`` came from.

    The body is :func:`stable_token` of the component dict with the
    schema version added: its parts in name order, inside ``map:{...}``.
    """
    parts = {**key_parts({"schema": SCHEMA_VERSION}), **parts}
    body = "map:{" + ",".join(parts[name] for name in sorted(parts)) + "}"
    return hashlib.sha256(body.encode()).hexdigest()


def default_cache_dir() -> pathlib.Path:
    """Cache location: ``BIGGERFISH_CACHE_DIR`` or ``~/.cache/biggerfish``."""
    override = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    if override:
        return pathlib.Path(override).expanduser()
    return pathlib.Path("~/.cache/biggerfish/traces").expanduser()


@dataclass
class CacheStats:
    """Counters for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def merge(self, other: "CacheStats") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class TraceCache:
    """On-disk store of finished traces, addressed by configuration hash.

    Entries are sharded two hex characters deep (``ab/abcdef....npz``) to
    keep directories small at paper scale (100 sites x 100 traces x many
    configurations).  Writes are atomic (temp file + rename) so a killed
    run never leaves a torn entry.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ):
        self.path = pathlib.Path(path) if path is not None else default_cache_dir()
        self.max_bytes = read_setting(
            max_bytes, CACHE_MAX_BYTES_ENV_VAR, DEFAULT_MAX_BYTES,
            name="max_bytes", minimum=1,
        )
        self.stats = CacheStats()
        self._size_bytes: Optional[int] = None  # lazy directory scan

    def __repr__(self) -> str:
        return f"TraceCache({str(self.path)!r}, max_bytes={self.max_bytes})"

    # -- internals ------------------------------------------------------

    def _entry_path(self, key: str) -> pathlib.Path:
        return self.path / key[:2] / f"{key}.npz"

    def _entries(self) -> list[pathlib.Path]:
        """Finished entries; ``put``'s in-flight ``.tmp-*`` files are not."""
        if not self.path.exists():
            return []
        return sorted(
            p for p in self.path.glob("*/*.npz") if not p.name.startswith(".")
        )

    def _stat_entries(self) -> list[tuple[float, int, pathlib.Path]]:
        """``(mtime, size, path)`` per entry, skipping any that vanish
        between listing and stat (another handle's eviction or clear)."""
        stats = []
        for entry in self._entries():
            with contextlib.suppress(FileNotFoundError):
                st = entry.stat()
                stats.append((st.st_mtime, st.st_size, entry))
        return stats

    def _scan_size(self) -> int:
        if self._size_bytes is None:
            self._size_bytes = sum(size for _, size, _ in self._stat_entries())
        return self._size_bytes

    # -- get / put ------------------------------------------------------

    def get(self, key: str):
        """Load the trace stored under ``key``, or None on a miss."""
        from repro.core.trace import Trace, TraceSpec

        entry = self._entry_path(key)
        try:
            with np.load(entry, allow_pickle=False) as archive:
                trace = Trace(
                    spec=TraceSpec(
                        horizon_ns=int(archive["horizon_ns"]),
                        period_ns=int(archive["period_ns"]),
                    ),
                    observed_starts=archive["observed_starts"],
                    counters=archive["counters"],
                    label=str(archive["label"]),
                    attacker=str(archive["attacker"]),
                )
        except _UNREADABLE_ENTRY:
            # Missing, torn or stale-format entries all count as misses;
            # the caller re-simulates and overwrites.
            self.stats.misses += 1
            obs_metrics.counter("engine.cache.misses").inc()
            return None
        # Refresh mtime on every hit so eviction order is LRU, not FIFO —
        # without this the hottest entries are the first to be evicted.
        with contextlib.suppress(OSError):
            os.utime(entry)
        self.stats.hits += 1
        self.stats.bytes_read += entry.stat().st_size
        obs_metrics.counter("engine.cache.hits").inc()
        obs_metrics.counter("engine.cache.bytes_read").inc(entry.stat().st_size)
        return trace

    def put(self, key: str, trace) -> None:
        """Store a finished trace under ``key`` (atomic, then evict)."""
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        old_size = 0
        with contextlib.suppress(OSError):
            old_size = entry.stat().st_size
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".npz", dir=entry.parent
        )
        members = {
            "observed_starts": trace.observed_starts,
            "counters": trace.counters,
            "horizon_ns": np.int64(trace.spec.horizon_ns),
            "period_ns": np.int64(trace.spec.period_ns),
            "label": np.str_(trace.label),
            "attacker": np.str_(trace.attacker),
        }
        try:
            # np.savez_compressed's archive, at deflate level 1: the
            # default level costs about twice the time for 3 % less size.
            with os.fdopen(fd, "wb") as handle, zipfile.ZipFile(
                handle, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
            ) as archive:
                for name, value in members.items():
                    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array(
                            member, np.asanyarray(value), allow_pickle=False
                        )
            os.replace(tmp_name, entry)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        written = entry.stat().st_size
        self.stats.puts += 1
        self.stats.bytes_written += written
        obs_metrics.counter("engine.cache.puts").inc()
        obs_metrics.counter("engine.cache.bytes_written").inc(written)
        if self._size_bytes is None:
            # First put through a cold handle: the directory scan runs
            # after os.replace put the entry in place, so it already
            # counts the new bytes — adding `written` on top would
            # double-count every fresh entry and trigger premature
            # eviction.
            self._scan_size()
        else:
            self._size_bytes += written - old_size
        if self._size_bytes > self.max_bytes:
            self._evict_to_cap(protect=entry)

    def _evict_to_cap(self, protect: Optional[pathlib.Path] = None) -> None:
        """Drop least-recently-used entries until under the size cap.

        ``get`` refreshes mtime on every hit, so mtime order is LRU
        order.  ``protect`` — the entry that was just written — is never
        evicted: a put into a full cache must not delete the very trace
        its caller is about to rely on.
        """
        entries = sorted(self._stat_entries())
        size = sum(s for _, s, _ in entries)
        for _, entry_size, entry in entries:
            if size <= self.max_bytes:
                break
            if protect is not None and entry == protect:
                continue
            with contextlib.suppress(OSError):
                entry.unlink(missing_ok=True)
                size -= entry_size
                self.stats.evictions += 1
                obs_metrics.counter("engine.cache.evictions").inc()
        self._size_bytes = size

    # -- maintenance ----------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Entry count, byte totals and location (the ``cache info`` CLI)."""
        entries = self._stat_entries()
        size = sum(s for _, s, _ in entries)
        self._size_bytes = size
        return {
            "path": str(self.path),
            "entries": len(entries),
            "size_bytes": size,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for entry in self._entries():
            with contextlib.suppress(OSError):
                entry.unlink()
                removed += 1
        self._size_bytes = 0
        return removed
