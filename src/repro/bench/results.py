"""Schema-versioned benchmark result files.

A bench run serializes to ``bench_<label>.json``: one
:class:`BenchReport` holding per-scenario :class:`ScenarioRecord`\\ s
(raw wall/CPU samples, never pre-aggregated — the comparison layer
decides what statistic to trust) plus enough host context to tell when
two files must not be compared across machines.

``SCHEMA_VERSION`` gates the file format: :func:`BenchReport.load`
raises :class:`BenchFormatError` — with the offending path and what was
found — on anything that is not a current-schema bench file, so a stale
baseline fails loudly instead of producing a nonsense comparison.
"""

from __future__ import annotations

import math
import os
import pathlib
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Optional

from repro.jsondoc import read_json, write_json

#: Bump on any incompatible change to the JSON layout below.
SCHEMA_VERSION = 1

#: File-name prefix shared by every result file (CI globs on this).
FILENAME_PREFIX = "bench_"


class BenchFormatError(ValueError):
    """A bench JSON file is malformed, truncated or from another schema."""


def _require(condition: bool, path: os.PathLike, message: str) -> None:
    if not condition:
        raise BenchFormatError(f"{path}: {message}")


@dataclass
class ScenarioRecord:
    """Measured samples for one scenario in one bench run."""

    name: str
    description: str
    scale: str
    seed: int
    warmup: int
    repeat: int
    #: Raw per-repetition samples, in seconds, in execution order.
    wall_s: List[float]
    cpu_s: List[float]
    #: Scenario-reported facts about the work done (event counts, sizes).
    meta: Dict[str, object] = field(default_factory=dict)
    #: Obs counter values and per-span aggregates from the instrumented
    #: (untimed) repetition; empty when instrumentation was skipped.
    obs: Dict[str, dict] = field(default_factory=dict)

    @property
    def best_s(self) -> float:
        """Fastest repetition — the standard microbenchmark statistic."""
        return min(self.wall_s)

    @property
    def mean_s(self) -> float:
        return sum(self.wall_s) / len(self.wall_s)

    @property
    def median_s(self) -> float:
        ordered = sorted(self.wall_s)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    @property
    def cv(self) -> float:
        """Coefficient of variation of the wall-time samples."""
        if len(self.wall_s) < 2:
            return 0.0
        mean = self.mean_s
        if mean <= 0:
            return 0.0
        var = sum((t - mean) ** 2 for t in self.wall_s) / (len(self.wall_s) - 1)
        return math.sqrt(var) / mean

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "scale": self.scale,
            "seed": self.seed,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "wall_s": [round(t, 6) for t in self.wall_s],
            "cpu_s": [round(t, 6) for t in self.cpu_s],
            "meta": self.meta,
            "obs": self.obs,
        }

    @classmethod
    def from_dict(cls, data: dict, path: os.PathLike) -> "ScenarioRecord":
        _require(isinstance(data, dict), path, "scenario entry is not an object")
        for key in ("name", "wall_s", "cpu_s"):
            _require(key in data, path, f"scenario entry missing {key!r}")
        wall = data["wall_s"]
        _require(
            isinstance(wall, list)
            and len(wall) > 0
            and all(isinstance(t, (int, float)) and t >= 0 for t in wall),
            path,
            f"scenario {data.get('name')!r} has no usable wall_s samples",
        )
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            scale=str(data.get("scale", "")),
            seed=int(data.get("seed", 0)),
            warmup=int(data.get("warmup", 0)),
            repeat=int(data.get("repeat", len(wall))),
            wall_s=[float(t) for t in wall],
            cpu_s=[float(t) for t in data["cpu_s"]],
            meta=dict(data.get("meta", {})),
            obs=dict(data.get("obs", {})),
        )


def host_fingerprint() -> Dict[str, object]:
    """Enough host context to flag cross-machine comparisons."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


@dataclass
class BenchReport:
    """One complete bench run: every scenario, plus provenance."""

    label: str
    scenarios: Dict[str, ScenarioRecord]
    host: Dict[str, object] = field(default_factory=host_fingerprint)
    created: str = ""

    def __post_init__(self) -> None:
        if not self.created:
            self.created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "created": self.created,
            "host": self.host,
            "scenarios": {
                name: record.as_dict() for name, record in sorted(self.scenarios.items())
            },
        }

    def write(self, out_dir: os.PathLike) -> pathlib.Path:
        """Write ``bench_<label>.json`` under ``out_dir`` and return the path."""
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return write_json(out / f"{FILENAME_PREFIX}{self.label}.json", self.as_dict())

    @classmethod
    def load(cls, path: os.PathLike) -> "BenchReport":
        """Read and validate a bench JSON file.

        Raises :class:`BenchFormatError` on missing files, non-JSON
        content, wrong schema versions and structurally broken records —
        always naming the path and the problem.
        """
        path = pathlib.Path(path)
        data = read_json(
            path,
            noun="baseline",
            version_key="schema",
            version=SCHEMA_VERSION,
            error=BenchFormatError,
        )
        raw_scenarios = data.get("scenarios")
        _require(
            isinstance(raw_scenarios, dict) and raw_scenarios,
            path,
            "no scenarios recorded",
        )
        scenarios = {
            name: ScenarioRecord.from_dict(entry, path)
            for name, entry in raw_scenarios.items()
        }
        return cls(
            label=str(data.get("label", path.stem)),
            scenarios=scenarios,
            host=dict(data.get("host", {})),
            created=str(data.get("created", "")),
        )


def default_results_dir(start: Optional[os.PathLike] = None) -> pathlib.Path:
    """``benchmarks/results`` under the repo containing ``start`` (or cwd).

    Falls back to ``<cwd>/benchmarks/results`` when no checkout root is
    found, so ``biggerfish bench --out`` stays optional outside the repo.
    """
    here = pathlib.Path(start) if start is not None else pathlib.Path.cwd()
    for candidate in (here, *here.parents):
        marker = candidate / "benchmarks" / "results"
        if marker.is_dir():
            return marker
    return here / "benchmarks" / "results"
