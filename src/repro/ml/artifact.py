"""Schema-versioned model artifacts: the file format.

A trained :class:`~repro.ml.models.Fingerprinter` can be persisted as an
*artifact directory* and reloaded bit-identically in another process —
the handoff point between ``biggerfish train`` and the serving layer
(:mod:`repro.serve`).  The layout is deliberately dull:

``artifact.json``
    Schema version, backend name, the backend's config (hyperparameters
    and fitted scalars), the label-encoder classes, and training
    provenance (seed, scale, ``repro.__version__`` and whatever the
    trainer records).  Everything a human needs to know about the model
    without loading a single array.

``weights.npz``
    Every learned array, under the names the backend gives them.

What goes into the config and the arrays is each backend's own
business: this module asks the model for its ``_state()`` when saving
and hands the config and arrays to its class's ``_restore`` when
loading (:mod:`repro.ml.models`).  Loading validates the schema version
and backend before touching any array; corrupted or future-schema
artifacts, and arrays that do not fit the backend's architecture, are
rejected with :class:`ArtifactError` rather than half-loaded.
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.jsondoc import read_json, write_atomic, write_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ml.models import Fingerprinter

#: Current artifact schema.  Bump when the on-disk layout changes; load
#: rejects any other version so older readers never misinterpret arrays.
SCHEMA_VERSION = 1

ARTIFACT_JSON = "artifact.json"
WEIGHTS_NPZ = "weights.npz"


class ArtifactError(Exception):
    """A model artifact is missing, corrupted, or from another schema."""


@dataclass(frozen=True)
class ArtifactInfo:
    """The metadata half of an artifact (everything but the arrays)."""

    schema_version: int
    backend: str
    repro_version: str
    config: dict
    classes: Optional[tuple] = None
    provenance: Optional[dict] = None

    @property
    def n_classes(self) -> Optional[int]:
        return len(self.classes) if self.classes is not None else None


def save_artifact(
    model,
    path,
    *,
    classes: Optional[Sequence[str]] = None,
    provenance: Optional[dict] = None,
) -> Path:
    """Persist a fitted fingerprinter as an artifact directory.

    ``classes`` is the label-encoder class list (sorted label order) the
    model was trained against; the serving layer uses it to turn argmax
    indices back into website names.  ``provenance`` is free-form
    training context (seed, scale name, dataset description) recorded
    verbatim; ``repro.__version__`` is always added.
    """
    import repro
    from repro.ml.models import Fingerprinter

    if not isinstance(model, Fingerprinter):
        raise ArtifactError(f"no artifact backend for {type(model).__name__}")
    model._require_fitted(ArtifactError)
    config, arrays = model._state()
    n_classes = config.get("n_classes")
    if classes is not None and n_classes is not None and len(classes) != n_classes:
        raise ArtifactError(
            f"{len(classes)} class labels for a {n_classes}-class model"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    info = ArtifactInfo(
        schema_version=SCHEMA_VERSION,
        backend=model.backend,
        repro_version=repro.__version__,
        config=config,
        classes=tuple(classes) if classes is not None else None,
        provenance=dict(provenance) if provenance else None,
    )
    document = asdict(info)
    document["classes"] = list(info.classes) if info.classes is not None else None
    document["weights"] = sorted(arrays)
    # Weights first, so a failed weights write leaves the previous
    # artifact as it was rather than new metadata over old weights.
    weights = io.BytesIO()
    np.savez(weights, **arrays)
    write_atomic(path / WEIGHTS_NPZ, weights.getvalue())
    write_json(path / ARTIFACT_JSON, document)
    return path


def load_info(path) -> ArtifactInfo:
    """Parse and validate an artifact's metadata (no arrays loaded)."""
    from repro.ml.models import BACKENDS

    path = Path(path)
    manifest = path / ARTIFACT_JSON
    if not manifest.is_file():
        raise ArtifactError(f"not a model artifact: {manifest} missing")
    document = read_json(
        manifest,
        noun="artifact",
        version_key="schema_version",
        version=SCHEMA_VERSION,
        error=ArtifactError,
    )
    backend = document.get("backend")
    if backend not in BACKENDS:
        raise ArtifactError(f"unknown artifact backend {backend!r}")
    config = document.get("config")
    if not isinstance(config, dict):
        raise ArtifactError("artifact manifest has no config object")
    classes = document.get("classes")
    if classes is not None and not (
        isinstance(classes, list) and all(isinstance(c, str) for c in classes)
    ):
        raise ArtifactError("artifact classes must be a list of strings")
    provenance = document.get("provenance")
    return ArtifactInfo(
        schema_version=SCHEMA_VERSION,
        backend=backend,
        repro_version=str(document.get("repro_version", "")),
        config=config,
        classes=tuple(classes) if classes is not None else None,
        provenance=provenance if isinstance(provenance, dict) else None,
    )


def load_artifact(path) -> "Fingerprinter":
    """Rebuild a fingerprinter from an artifact directory.

    The returned model is ready for ``predict_proba`` and is
    bit-identical to the instance that was saved.
    """
    from repro.ml.models import BACKENDS

    path = Path(path)
    info = load_info(path)
    weights = path / WEIGHTS_NPZ
    if not weights.is_file():
        raise ArtifactError(f"artifact {path} has no {WEIGHTS_NPZ}")
    try:
        with np.load(weights) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"corrupted weights in {weights}: {exc}") from exc
    try:
        return BACKENDS[info.backend]._restore(info.config, arrays)
    except KeyError as exc:
        raise ArtifactError(f"artifact {path} is missing {exc.args[0]!r}") from exc
