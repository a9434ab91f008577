"""Registry of model artifacts, each loaded on first use.

Models are registered by name against an artifact directory: the
manifest is validated at registration, the weights are loaded on the
model's first request and kept for the registry's lifetime.  All
operations are thread-safe — the batching worker and CLI threads share
one registry.

Registry traffic is visible through :mod:`repro.obs`:
``serve.registry.hits`` and ``serve.registry.misses`` (loads).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.ml.artifact import ArtifactError, ArtifactInfo, load_artifact, load_info


@dataclass(frozen=True)
class LoadedModel:
    """A loaded model plus the artifact metadata it was loaded with."""

    name: str
    model: object
    info: ArtifactInfo

    @property
    def classes(self) -> Optional[tuple]:
        return self.info.classes


class ModelRegistry:
    """Name -> artifact mapping; each model is loaded once, on first use."""

    def __init__(self) -> None:
        self._paths: Dict[str, Path] = {}
        self._loaded: Dict[str, LoadedModel] = {}
        self._lock = threading.Lock()

    def add(self, name: str, artifact_path) -> ArtifactInfo:
        """Register an artifact under ``name`` (validated, not loaded).

        Reads and validates the manifest immediately so a bad path fails
        at registration time, but defers the weight arrays to first use.
        """
        info = load_info(artifact_path)
        with self._lock:
            if name in self._paths:
                raise ValueError(f"model {name!r} already registered")
            self._paths[name] = Path(artifact_path)
        return info

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._paths)

    def get(self, name: str) -> LoadedModel:
        """The named model, loading it on its first request."""
        with self._lock:
            if name not in self._paths:
                raise KeyError(
                    f"unknown model {name!r}; registered: {sorted(self._paths)}"
                )
            loaded = self._loaded.get(name)
            if loaded is not None:
                obs.counter("serve.registry.hits").inc()
                return loaded
            path = self._paths[name]
        # Load outside the lock: artifact IO can be slow and other
        # models' requests should not stall behind it.
        obs.counter("serve.registry.misses").inc()
        with obs.span("serve.registry.load", model=name):
            model = load_artifact(path)
            info = load_info(path)
        with self._lock:
            # Another thread may have loaded it first; keep that one.
            return self._loaded.setdefault(
                name, LoadedModel(name=name, model=model, info=info)
            )

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._paths

    def __len__(self) -> int:
        with self._lock:
            return len(self._paths)


__all__ = [
    "ArtifactError",
    "LoadedModel",
    "ModelRegistry",
]
