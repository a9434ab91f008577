"""Inline suppressions and the checked-in findings baseline.

Inline suppression: append ``# lint: disable=<rule>`` to the offending
line (comma-separate several ids; ``disable=all`` silences every rule
on that line)::

    stamp = time.time()  # lint: disable=wall-clock-in-sim

Baseline: a JSON file of grandfathered findings, matched by
``rule:path:line`` fingerprint.  ``biggerfish lint --write-baseline``
records the current findings; subsequent runs report them separately
and exit 0.  The repository ships an **empty** baseline
(:data:`DEFAULT_BASELINE_NAME`) — every pre-existing violation was
fixed instead of grandfathered — so any entry appearing in it on a pull
request is a reviewable regression.
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterable, Sequence

from repro.jsondoc import read_json, write_json
from repro.lint.registry import Finding

#: Conventional baseline filename, looked up in the working directory.
DEFAULT_BASELINE_NAME = ".lint-baseline.json"

_DISABLE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")

_BASELINE_VERSION = 1


def suppressed_rules(lines: Sequence[str]) -> dict[int, frozenset]:
    """Map 1-based line numbers to the rule ids disabled on that line."""
    disabled: dict[int, frozenset] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _DISABLE.search(line)
        if match:
            ids = frozenset(part.strip() for part in match.group(1).split(","))
            disabled[lineno] = ids
    return disabled


class Baseline:
    """Set of grandfathered finding fingerprints."""

    def __init__(self, fingerprints: Iterable[str] = ()):
        self.fingerprints = frozenset(fingerprints)

    def __len__(self) -> int:
        return len(self.fingerprints)

    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.fingerprints

    @classmethod
    def load(cls, path: pathlib.Path) -> "Baseline":
        """Read a baseline file; raises ValueError on a malformed one."""
        payload = read_json(
            path,
            noun="lint baseline",
            version_key="version",
            version=_BASELINE_VERSION,
        )
        if "findings" not in payload:
            raise ValueError(f"{path}: not a lint baseline (missing 'findings')")
        fingerprints = []
        for entry in payload["findings"]:
            try:
                fingerprints.append(f"{entry['rule']}:{entry['path']}:{entry['line']}")
            except (TypeError, KeyError) as error:
                raise ValueError(f"{path}: malformed baseline entry {entry!r}") from error
        return cls(fingerprints)

    @staticmethod
    def write(path: pathlib.Path, findings: Sequence[Finding]) -> None:
        """Write ``findings`` as the new baseline for ``path``."""
        payload = {
            "version": _BASELINE_VERSION,
            "findings": [
                {
                    "rule": finding.rule,
                    "path": finding.path.replace("\\", "/"),
                    "line": finding.line,
                    "message": finding.message,
                }
                for finding in sorted(
                    findings, key=lambda f: (f.path, f.line, f.rule)
                )
            ],
        }
        write_json(path, payload)
