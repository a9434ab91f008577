"""Atomic writes and validated loads for the repo's JSON documents.

Every schema-versioned JSON file the project keeps — ``run_manifest.json``,
a store's ``dataset.json``, a model's ``artifact.json`` and
``.lint-baseline.json`` — is written by :func:`write_json`
and read back by :func:`read_json`, so they share one on-disk format
(two-space indent, sorted keys, trailing newline), one crash-safety rule
and one set of load errors.  Each loader keeps its own field checks on
top.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Type


def write_json(path, document: Any) -> Path:
    """Write ``document`` to ``path`` atomically and return the path.

    The JSON is written to a temp file beside the target and renamed
    over it, so readers see the old file or the new one, never a torn
    one; on any failure the temp file is removed and the previous file
    is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


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
