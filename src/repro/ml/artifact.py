"""Schema-versioned model artifacts for the fingerprinting backends.

A trained :class:`~repro.ml.models.Fingerprinter` can be persisted as an
*artifact directory* and reloaded bit-identically in another process —
the handoff point between ``biggerfish train`` and the serving layer
(:mod:`repro.serve`).  The layout is deliberately dull:

``artifact.json``
    Schema version, backend name, hyperparameters, the label-encoder
    classes, and training provenance (seed, scale, ``repro.__version__``
    and whatever the trainer records).  Everything a human needs to know
    about the model without loading a single array.

``weights.npz``
    Every learned array.  The LSTM backend's network parameters are
    keyed ``L{layer:02d}.{name}`` — the flat ``(layer_index, name)``
    parameter dict of :class:`~repro.ml.network.Sequential` made
    filename-safe — so a loaded network restores into a freshly rebuilt
    architecture and any key mismatch is a hard
    :class:`ArtifactError`, not a silently wrong model.

Loading validates the schema version and backend before touching any
array; corrupted or future-schema artifacts are rejected with
:class:`ArtifactError` rather than half-loaded.
"""

from __future__ import annotations

import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.jsondoc import read_json, write_json

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


def _require_fitted(model, attr: str) -> None:
    if not hasattr(model, attr):
        raise ArtifactError(
            f"cannot save an unfitted {type(model).__name__}; call fit() first"
        )


def _lstm_state(model) -> tuple[dict, Dict[str, np.ndarray]]:
    _require_fitted(model, "_network")
    arrays = {
        f"L{layer:02d}.{name}": array
        for (layer, name), array in model._network.parameters().items()
    }
    config = {
        "conv_filters": model.conv_filters,
        "lstm_units": model.lstm_units,
        "dropout": model.dropout,
        "epochs": model.epochs,
        "batch_size": model.batch_size,
        "patience": model.patience,
        "learning_rate": model.learning_rate,
        "validation_fraction": model.validation_fraction,
        "seed": model.seed,
        "input_length": int(model._input_length),
        "n_classes": int(model._n_classes),
        "input_mean": model._input_mean,
        "input_std": model._input_std,
    }
    return config, arrays


def _lstm_restore(config: dict, arrays: Dict[str, np.ndarray]):
    from repro.ml.models import LstmFingerprinter, build_paper_network

    model = LstmFingerprinter(
        conv_filters=config["conv_filters"],
        lstm_units=config["lstm_units"],
        dropout=config["dropout"],
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        patience=config["patience"],
        learning_rate=config["learning_rate"],
        validation_fraction=config["validation_fraction"],
        seed=config["seed"],
    )
    network = build_paper_network(
        config["input_length"],
        config["n_classes"],
        np.random.default_rng(config["seed"]),
        conv_filters=config["conv_filters"],
        lstm_units=config["lstm_units"],
        dropout=config["dropout"],
    )
    saved = {}
    for key, array in arrays.items():
        layer, _, name = key.partition(".")
        if not (layer.startswith("L") and layer[1:].isdigit() and name):
            raise ArtifactError(f"malformed weight key {key!r}")
        saved[(int(layer[1:]), name)] = array
    try:
        network.restore(saved)
    except ValueError as exc:
        raise ArtifactError(f"weights do not match the architecture: {exc}") from exc
    model._network = network
    model._input_mean = config["input_mean"]
    model._input_std = config["input_std"]
    model._input_length = config["input_length"]
    model._n_classes = config["n_classes"]
    return model


def _feature_state(model) -> tuple[dict, Dict[str, np.ndarray]]:
    _require_fitted(model, "_model")
    arrays = {
        "standardizer.mean": model._standardizer._mean,
        "standardizer.std": model._standardizer._std,
        "softmax.W": model._model.W,
        "softmax.b": model._model.b,
    }
    config = {
        "shape_bins": model.extractor.shape_bins,
        "diff_bins": model.extractor.diff_bins,
        "fft_bins": model.extractor.fft_bins,
        "learning_rate": model.learning_rate,
        "l2": model.l2,
        "epochs": model.epochs,
        "seed": model.seed,
        "n_classes": int(model._model.n_classes),
    }
    return config, arrays


def _feature_restore(config: dict, arrays: Dict[str, np.ndarray]):
    from repro.ml.features import FeatureExtractor, Standardizer
    from repro.ml.linear import SoftmaxRegression
    from repro.ml.models import FeatureFingerprinter

    model = FeatureFingerprinter(
        extractor=FeatureExtractor(
            shape_bins=config["shape_bins"],
            diff_bins=config["diff_bins"],
            fft_bins=config["fft_bins"],
        ),
        learning_rate=config["learning_rate"],
        l2=config["l2"],
        epochs=config["epochs"],
        seed=config["seed"],
    )
    standardizer = Standardizer()
    standardizer._mean = arrays["standardizer.mean"]
    standardizer._std = arrays["standardizer.std"]
    regression = SoftmaxRegression(
        n_classes=config["n_classes"],
        learning_rate=config["learning_rate"],
        l2=config["l2"],
        epochs=config["epochs"],
        seed=config["seed"],
    )
    regression.W = arrays["softmax.W"]
    regression.b = arrays["softmax.b"]
    if regression.W.shape[1] != config["n_classes"]:
        raise ArtifactError(
            f"weight matrix has {regression.W.shape[1]} classes, "
            f"metadata says {config['n_classes']}"
        )
    model._standardizer = standardizer
    model._model = regression
    return model


#: backend name -> (state extractor, restorer).  The names are the same
#: strings make_fingerprinter() accepts.
_BACKENDS = {
    "lstm": (_lstm_state, _lstm_restore),
    "feature": (_feature_state, _feature_restore),
}


def backend_name(model) -> str:
    """The artifact backend string for a fingerprinter instance."""
    from repro.ml.models import FeatureFingerprinter, LstmFingerprinter

    if isinstance(model, LstmFingerprinter):
        return "lstm"
    if isinstance(model, FeatureFingerprinter):
        return "feature"
    raise ArtifactError(f"no artifact backend for {type(model).__name__}")


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

    backend = backend_name(model)
    state, _ = _BACKENDS[backend]
    config, arrays = state(model)
    n_classes = config.get("n_classes")
    if classes is not None and n_classes is not None and len(classes) != n_classes:
        raise ArtifactError(
            f"{len(classes)} class labels for a {n_classes}-class model"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    info = ArtifactInfo(
        schema_version=SCHEMA_VERSION,
        backend=backend,
        repro_version=repro.__version__,
        config=config,
        classes=tuple(classes) if classes is not None else None,
        provenance=dict(provenance) if provenance else None,
    )
    document = asdict(info)
    document["classes"] = list(info.classes) if info.classes is not None else None
    document["weights"] = sorted(arrays)
    write_json(path / ARTIFACT_JSON, document)
    with open(path / WEIGHTS_NPZ, "wb") as handle:
        np.savez(handle, **arrays)
    return path


def load_info(path) -> ArtifactInfo:
    """Parse and validate an artifact's metadata (no arrays loaded)."""
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
    if backend not in _BACKENDS:
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
        _, restore = _BACKENDS[info.backend]
        return restore(info.config, arrays)
    except KeyError as exc:
        raise ArtifactError(f"artifact {path} is missing {exc.args[0]!r}") from exc
