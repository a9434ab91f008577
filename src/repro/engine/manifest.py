"""Per-run JSON manifest.

Each ``biggerfish`` invocation with ``--save-dir`` writes a
``run_manifest.json`` next to the rendered tables recording what was run
and how long every stage took: per-experiment wall clock, per-stage
engine timings (collect / train / open-world) with per-task min/mean/max
spreads, cache hit/miss/byte counters, worker count, seed and scale,
plus the observability summary (``"profile"``) when the run was
profiled.  Two consecutive manifests are how the cold-vs-warm cache
speedup is measured and reported.

A run that dies mid-experiment still leaves a manifest: the runner marks
it ``"status": "failed"`` with the exception summary and writes whatever
was recorded up to the crash, so failed runs are diagnosable from their
save directory alone.  Writes are atomic (temp file + rename) so a
killed run never leaves a torn manifest either.
"""

from __future__ import annotations

import pathlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.engine.engine import ExecutionEngine
from repro.jsondoc import write_json

#: File name written inside ``--save-dir``.
MANIFEST_FILENAME = "run_manifest.json"

#: Version of the manifest layout, stored under ``"schema"``.
MANIFEST_SCHEMA = 1


@dataclass
class RunManifest:
    """Accumulates one CLI run's record, then serializes it."""

    scale: str
    seed: int
    jobs: int
    scale_params: Optional[Dict[str, Any]] = None
    created_unix: float = field(default_factory=time.time)
    experiments: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache: Optional[Dict[str, Any]] = None
    package_version: str = ""
    #: "ok" | "failed"; failed manifests carry an ``error`` summary.
    status: str = "ok"
    error: Optional[Dict[str, Any]] = None
    #: Fault-tolerance totals (retries/timeouts/lost tasks/pool respawns)
    #: folded in by :meth:`finalize`; omitted when the run saw no faults.
    faults: Optional[Dict[str, int]] = None
    #: Observability summary from :func:`repro.obs.export.summarize`.
    profile: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.package_version:
            from repro import __version__

            self.package_version = __version__

    def add_experiment(
        self,
        experiment_id: str,
        elapsed_s: float,
        stages: Dict[str, Dict[str, float]],
    ) -> None:
        """Record one experiment's wall clock and its stage breakdown."""
        self.experiments[experiment_id] = {
            "elapsed_s": round(elapsed_s, 6),
            "stages": stages,
        }

    def finalize(self, engine: ExecutionEngine) -> None:
        """Fold in the engine's cache statistics and fault totals."""
        if engine.cache is not None:
            self.cache = {
                **engine.cache.info(),
                **engine.cache.stats.as_dict(),
            }
        fault_totals = engine.fault_snapshot()
        if any(fault_totals.values()):
            self.faults = fault_totals

    def mark_failed(self, experiment_id: str, error: BaseException) -> None:
        """Record a mid-run crash so the partial manifest is diagnosable."""
        from repro.engine.engine import TaskFailedError

        self.status = "failed"
        frame = traceback.extract_tb(error.__traceback__)
        location = f"{frame[-1].filename}:{frame[-1].lineno}" if frame else ""
        self.error = {
            "experiment": experiment_id,
            "type": type(error).__name__,
            "message": str(error),
            "where": location,
        }
        if isinstance(error, TaskFailedError):
            # The structured record pinpoints which task died, on which
            # attempt, with the remote traceback tail.
            self.error["task"] = error.task_error.as_dict()

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "schema": MANIFEST_SCHEMA,
            "created_unix": round(self.created_unix, 3),
            "status": self.status,
            "scale": self.scale,
            "scale_params": self.scale_params,
            "seed": self.seed,
            "jobs": self.jobs,
            "package_version": self.package_version,
            "total_elapsed_s": round(
                sum(e["elapsed_s"] for e in self.experiments.values()), 6
            ),
            "experiments": self.experiments,
            "cache": self.cache,
        }
        if self.faults is not None:
            out["faults"] = self.faults
        if self.error is not None:
            out["error"] = self.error
        if self.profile is not None:
            out["profile"] = self.profile
        return out

    def write(self, directory: pathlib.Path) -> pathlib.Path:
        """Serialize to ``<directory>/run_manifest.json`` atomically.

        A crash mid-serialization leaves any previous manifest intact and
        no partial file behind (see :func:`repro.jsondoc.write_json`).
        """
        return write_json(pathlib.Path(directory) / MANIFEST_FILENAME, self.as_dict())
