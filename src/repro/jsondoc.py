"""Atomic writes and validated loads for the repo's JSON documents.

Every schema-versioned JSON file the project keeps — ``run_manifest.json``,
a store's ``dataset.json``, a model's ``artifact.json`` and
``.lint-baseline.json`` — is written by :func:`write_json`
and read back by :func:`read_json`, so they share one on-disk format
(two-space indent, sorted keys, trailing newline), one crash-safety rule
and one set of load errors.  Each loader keeps its own field checks on
top.  The same rule, :func:`write_atomic`, writes the project's other
files: trace-cache entries, store shards and model weights.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any, Type


def write_atomic(path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically and return the path.

    The bytes go to a unique temp file beside the target, named with a
    leading ``.`` so scans for finished files skip it, which is then
    renamed over the target: readers see the old file or the new one,
    never a torn one.  On any failure the temp file is removed and the
    previous file is left as it was.  Nothing is fsynced: the rename
    makes the write atomic, not durable.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json(path, document: Any) -> Path:
    """Write ``document`` to ``path`` with :func:`write_atomic` and return
    the path."""
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return write_atomic(path, text.encode("utf-8"))


def read_json(
    path,
    *,
    noun: str,
    version_key: str,
    version: Any,
    error: Type[Exception] = ValueError,
) -> dict:
    """Load a schema-versioned JSON object from ``path``.

    An unreadable file, invalid JSON, a top level that is not an object,
    or a ``document[version_key]`` other than ``version`` raises
    ``error`` with a one-line message that names the path and the
    ``noun`` ("artifact", "lint baseline", ...).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read {noun} ({exc})") from exc
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise error(f"{path}: corrupted {noun}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise error(f"{path}: corrupted {noun}: not a JSON object")
    if document.get(version_key) != version:
        raise error(
            f"{path}: unsupported {noun} schema version "
            f"{document.get(version_key)!r} (this build reads version {version}; "
            f"re-record the {noun} with this build)"
        )
    return document
