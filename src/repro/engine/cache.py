"""Content-addressed on-disk trace cache.

A trace is fully determined by the configuration that produced it:
machine, browser, attacker, timer, attacker period, site signature,
trace index, collector seed — plus the package version, since any code
change may change the numbers.  The cache hashes a canonical rendition
of all of that into a key and stores the finished
:class:`~repro.core.trace.Trace` under it, so warm re-runs of
``biggerfish all`` and repeated benchmark invocations skip simulation
entirely.

An entry (schema 2) is one zlib stream deflated at level 1: a one-line
JSON header (``horizon_ns``, ``period_ns``, ``label``, ``attacker``,
``samples``), then ``observed_starts`` and ``counters`` as little-endian
float64.  A hit is one file read, one ``zlib.decompress``, one
``json.loads`` and one ``np.frombuffer``.  Schema-1 entries were
``.npz`` archives; their keys differ, so they are never read again, but
``info`` counts them, ``clear`` removes them and eviction drops them
before any schema-2 entry.

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
import json
import os
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro import obs
from repro.config import read_setting
from repro.jsondoc import write_atomic

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV_VAR = "BIGGERFISH_CACHE_DIR"
#: Environment variable overriding the size cap (bytes).
CACHE_MAX_BYTES_ENV_VAR = "BIGGERFISH_CACHE_MAX_BYTES"
#: Default size cap.
DEFAULT_MAX_BYTES = 2 * 1024**3
#: Bump to invalidate every existing entry on disk-format changes.
SCHEMA_VERSION = 2
#: File suffix of a schema-2 entry.
ENTRY_SUFFIX = ".zlib"
#: File suffix of a schema-1 entry, a zip of six ``.npy`` members.
_SCHEMA1_SUFFIX = ".npz"
#: zlib level of an entry: on an 8 s Chrome trace, level 6 (zlib's
#: default) takes about four times as long for 1.4 % fewer bytes.
_DEFLATE_LEVEL = 1
#: An entry header's fields and their JSON types.
_HEADER_FIELDS = {
    "horizon_ns": int,
    "period_ns": int,
    "label": str,
    "attacker": str,
    "samples": int,
}
#: What loading a missing, torn or malformed entry raises: OSError for
#: a missing file, zlib.error for an empty, truncated or corrupt stream
#: (the stream's checksum catches a flipped byte), ValueError for a
#: header or payload that is not a whole entry.
_UNREADABLE_ENTRY = (OSError, ValueError, zlib.error)


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


def _encode_entry(trace) -> bytes:
    """A trace as the bytes of a schema-2 entry."""
    header = {
        "horizon_ns": int(trace.spec.horizon_ns),
        "period_ns": int(trace.spec.period_ns),
        "label": trace.label,
        "attacker": trace.attacker,
        "samples": len(trace.counters),
    }
    values = np.concatenate([trace.observed_starts, trace.counters]).astype("<f8", copy=False)
    line = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    return zlib.compress(line + values.tobytes(), _DEFLATE_LEVEL)


def _decode_entry(raw: bytes):
    """The trace in a schema-2 entry's bytes.

    Raises ``zlib.error`` for a torn or corrupt stream and ``ValueError``
    for a header that is not a JSON object of the five fields, a payload
    whose length disagrees with the header, or a trace that
    :class:`~repro.core.trace.Trace` rejects (a negative counter, say).
    Both arrays are writable float64 views of one fresh buffer.
    """
    from repro.core.trace import Trace, TraceSpec

    payload = zlib.decompress(raw)
    start = payload.index(b"\n") + 1
    header = json.loads(payload[:start])
    if not isinstance(header, dict) or any(
        type(header.get(name)) is not kind for name, kind in _HEADER_FIELDS.items()
    ):
        raise ValueError("entry header is not an object of the schema-2 fields")
    samples = header["samples"]
    if len(payload) - start != 16 * samples:
        raise ValueError(
            f"entry holds {len(payload) - start} payload bytes, "
            f"its header says {samples} samples"
        )
    values = np.frombuffer(payload, dtype="<f8", offset=start).astype(np.float64)
    return Trace(
        spec=TraceSpec(horizon_ns=header["horizon_ns"], period_ns=header["period_ns"]),
        observed_starts=values[:samples],
        counters=values[samples:],
        label=header["label"],
        attacker=header["attacker"],
    )


@dataclass
class CacheStats:
    """Counters for one cache handle's lifetime: the run's one cache tally.

    Only the process that owns the handle counts; workers never touch
    the cache (see ``TraceCollector.__getstate__``).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class TraceCache:
    """On-disk store of finished traces, addressed by configuration hash.

    Entries are sharded two hex characters deep (``ab/abcdef....zlib``)
    to keep directories small at paper scale (100 sites x 100 traces x
    many configurations).  Writes are atomic (temp file + rename) so a
    killed run never leaves a torn entry.
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
        return self.path / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def _entries(self) -> list[pathlib.Path]:
        """Finished entries, schema-1 leftovers included; ``put``'s
        in-flight ``.``-prefixed temp files are not."""
        if not self.path.exists():
            return []
        return sorted(
            p
            for suffix in (ENTRY_SUFFIX, _SCHEMA1_SUFFIX)
            for p in self.path.glob(f"*/*{suffix}")
            if not p.name.startswith(".")
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
        entry = self._entry_path(key)
        with obs.span("engine.cache.get") as span:
            try:
                with open(entry, "rb") as handle:
                    raw = handle.read()
                trace = _decode_entry(raw)
            except _UNREADABLE_ENTRY:
                # Missing, torn or malformed entries all count as misses;
                # the caller re-simulates and overwrites.
                self.stats.misses += 1
                span.set(hit=False)
                return None
            # Refresh mtime on every hit so eviction order is LRU, not
            # FIFO — without this the hottest entries are the first to be
            # evicted.
            with contextlib.suppress(OSError):
                os.utime(entry)
            self.stats.hits += 1
            self.stats.bytes_read += len(raw)
            span.set(hit=True)
            return trace

    def put(self, key: str, trace) -> None:
        """Store a finished trace under ``key`` (atomic, then evict)."""
        with obs.span("engine.cache.put"):
            entry = self._entry_path(key)
            data = _encode_entry(trace)
            entry.parent.mkdir(parents=True, exist_ok=True)
            old_size = 0
            with contextlib.suppress(OSError):
                old_size = entry.stat().st_size
            write_atomic(entry, data)
            written = len(data)
            self.stats.puts += 1
            self.stats.bytes_written += written
            if self._size_bytes is None:
                # First put through a cold handle: the directory scan runs
                # after the rename put the entry in place, so it already
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

        Schema-1 leftovers go first, since nothing reads them again;
        then ``get`` refreshing mtime on every hit makes mtime order LRU
        order.  ``protect`` — the entry that was just written — is never
        evicted: a put into a full cache must not delete the very trace
        its caller is about to rely on.
        """
        entries = sorted(
            self._stat_entries(),
            key=lambda stat: (stat[2].suffix == ENTRY_SUFFIX, stat),
        )
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
