"""The on-disk shard format behind :mod:`repro.data`.

A shard is a ``.npz`` archive (a plain zip) with exactly three members,
written byte-deterministically so checksums are stable across rebuilds:

* ``x.npy`` — the ``(n_rows, trace_length)`` float64 trace matrix,
  **stored uncompressed** (``ZIP_STORED``) so the reader can memory-map
  it in place: :func:`open_x_mmap` locates the member's data offset
  inside the zip and hands back an ``np.memmap`` view — the zero-copy
  streaming path, no decompression, no whole-file read;
* ``labels.npy`` — the per-row labels as a fixed-width unicode array
  (never pickled objects), deflate-compressed;
* ``meta.json`` — free-form shard metadata, deflate-compressed.

Labels and metadata load without touching ``x.npy`` at all
(:func:`read_labels` / :func:`read_meta` decompress only their own zip
member), which is what makes catalog-level queries on a terabyte store
cheap.  The full format specification lives in ``docs/DATA.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs

#: Member names inside each shard archive.
X_MEMBER = "x.npy"
LABELS_MEMBER = "labels.npy"
META_MEMBER = "meta.json"

#: Fixed zip timestamp (the DOS epoch) so shard bytes — and therefore
#: checksums — depend only on content, never on build time.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

#: Size of a zip local-file-header before the variable name/extra fields.
_LOCAL_HEADER_BASE = 30


class ShardFormatError(ValueError):
    """A shard archive is malformed, truncated or from another layout."""


@dataclass(frozen=True)
class ShardInfo:
    """What :func:`write_shard` produced, ready for a manifest entry."""

    n_rows: int
    n_bytes: int
    sha256: str


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def write_shard(path, x: np.ndarray, labels, meta: dict) -> ShardInfo:
    """Write one shard archive; returns its row count, size and checksum.

    ``x`` must be a 2-D float64 matrix with one label per row.  The
    archive is assembled in memory so the checksum covers exactly the
    bytes on disk; callers that need atomicity write to a temp name and
    rename.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShardFormatError(f"shard matrix must be 2-D, got shape {x.shape}")
    labels = list(labels)
    if len(labels) != len(x):
        raise ShardFormatError(f"{len(labels)} labels for {len(x)} rows")
    if len(x) == 0:
        raise ShardFormatError("refusing to write an empty shard")
    label_array = np.array([str(label) for label in labels])
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        _write_member(archive, X_MEMBER, _npy_bytes(x), zipfile.ZIP_STORED)
        _write_member(
            archive, LABELS_MEMBER, _npy_bytes(label_array), zipfile.ZIP_DEFLATED
        )
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        _write_member(archive, META_MEMBER, meta_bytes, zipfile.ZIP_DEFLATED)
    blob = buffer.getvalue()
    Path(path).write_bytes(blob)
    return ShardInfo(
        n_rows=len(x), n_bytes=len(blob), sha256=hashlib.sha256(blob).hexdigest()
    )


def _write_member(
    archive: zipfile.ZipFile, name: str, payload: bytes, compress_type: int
) -> None:
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = compress_type
    # Regular-file external attributes (0644) for deterministic bytes.
    info.external_attr = 0o644 << 16
    archive.writestr(info, payload)


def shard_checksum(path) -> str:
    """SHA-256 of the shard file's bytes (streamed, not loaded whole)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _open_archive(path, source=None):
    """Open a shard's zip (from ``source`` if given); damage raises ShardFormatError."""
    try:
        with zipfile.ZipFile(path if source is None else source) as archive:
            yield archive
    except zipfile.BadZipFile as exc:
        raise ShardFormatError(
            f"{path}: damaged shard archive ({exc}); "
            "check its store with 'biggerfish data verify'"
        ) from None


def read_labels(path) -> np.ndarray:
    """The shard's label array, without touching the trace payload."""
    with _open_archive(path) as archive:
        payload = _member_bytes(archive, path, LABELS_MEMBER)
    labels = np.load(io.BytesIO(payload), allow_pickle=False)
    return labels.astype(str)


def read_meta(path) -> dict:
    """The shard's metadata dict, without touching the trace payload."""
    with _open_archive(path) as archive:
        payload = _member_bytes(archive, path, META_MEMBER)
    meta = json.loads(payload.decode("utf-8"))
    if not isinstance(meta, dict):
        raise ShardFormatError(f"{path}: {META_MEMBER} is not a JSON object")
    return meta


def _member_bytes(archive: zipfile.ZipFile, path, name: str) -> bytes:
    try:
        return archive.read(name)
    except KeyError:
        raise ShardFormatError(f"{path}: missing archive member {name!r}") from None


def open_x_mmap(path) -> np.ndarray:
    """Zero-copy handle on the shard's trace matrix.

    Locates ``x.npy`` inside the zip, parses its npy header in place and
    memory-maps the raw array data at its file offset — the OS pages
    rows in on demand, nothing is decompressed or copied up front.  The
    returned array is **read-only** and aliases the file.

    Falls back to an ordinary (copying) load — counted on the
    ``data.mmap_fallbacks`` metric — when the member is compressed or
    oddly laid out, so schema-compatible shards from foreign writers
    still read correctly, just not zero-copy.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        with _open_archive(path, handle) as archive:
            try:
                info = archive.getinfo(X_MEMBER)
            except KeyError:
                raise ShardFormatError(
                    f"{path}: missing archive member {X_MEMBER!r}"
                ) from None
            if info.compress_type != zipfile.ZIP_STORED:
                obs.counter("data.mmap_fallbacks").inc()
                return np.load(io.BytesIO(archive.read(X_MEMBER)), allow_pickle=False)
            # The central directory's name/extra lengths can differ from
            # the local header's, so re-read them at the member itself.
            handle.seek(info.header_offset)
            local = handle.read(_LOCAL_HEADER_BASE)
            if len(local) != _LOCAL_HEADER_BASE or local[:4] != b"PK\x03\x04":
                raise ShardFormatError(f"{path}: corrupt local header for {X_MEMBER}")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            data_offset = info.header_offset + _LOCAL_HEADER_BASE + name_len + extra_len
            handle.seek(data_offset)
            try:
                version = np.lib.format.read_magic(handle)
                shape, fortran_order, dtype = _read_array_header(handle, version)
            except ValueError as exc:
                raise ShardFormatError(f"{path}: bad npy header: {exc}") from None
            array_offset = handle.tell()
    if fortran_order:
        obs.counter("data.mmap_fallbacks").inc()
        with _open_archive(path) as archive:
            return np.load(io.BytesIO(archive.read(X_MEMBER)), allow_pickle=False)
    if int(np.prod(shape)) == 0:
        return np.empty(shape, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=array_offset, shape=shape)


def _read_array_header(handle, version):
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(handle)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(handle)
    raise ValueError(f"unsupported npy format version {version}")
