"""Fingerprinting classifier backends.

Both backends subclass :class:`Fingerprinter` — ``fit(X, y, n_classes)``
and ``predict_proba(X)`` on raw normalized trace vectors — so the
fingerprinting pipeline can swap them freely:

* :class:`LstmFingerprinter` — the paper's architecture (footnote 2):
  two Conv1D(stride 3) + MaxPool1D(4) pairs, LSTM, Dropout(0.7), softmax
  output, trained with Adam (lr 0.001) and validation early stopping.
  Filter/unit counts are configurable; the defaults are scaled down from
  (256, 32) for laptop-speed training and can be set to the paper's
  values with ``LstmFingerprinter.paper_scale()``.
* :class:`FeatureFingerprinter` — engineered features + softmax
  regression; the fast backend used for full parameter sweeps.

Each backend states what a fitted model consists of once, beside
``fit``: ``_state()`` gives its artifact config (every dataclass field
plus the fitted values) and learned arrays, and ``_restore`` rebuilds
the model from them.  ``save``/``load`` write and read those through
:mod:`repro.ml.artifact`, which knows only the file format, and
:data:`BACKENDS` maps each artifact's backend name to its class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import ClassVar, Dict, Tuple, Type

import numpy as np

from repro import obs
from repro.ml.artifact import ArtifactError, load_artifact, save_artifact
from repro.ml.features import FeatureExtractor, Standardizer
from repro.ml.layers import Conv1D, Dense, Dropout, MaxPool1D, ReLU
from repro.ml.linear import SoftmaxRegression
from repro.ml.lstm import LSTM
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.ml.train import Trainer

#: A backend's artifact content: the JSON config and the learned arrays.
State = Tuple[dict, Dict[str, np.ndarray]]


def _field_values(instance) -> dict:
    """``instance``'s dataclass fields by name; a field holding a
    dataclass contributes that dataclass's fields in its place."""
    values = {}
    for item in fields(instance):
        value = getattr(instance, item.name)
        if is_dataclass(value):
            values.update(_field_values(value))
        else:
            values[item.name] = value
    return values


def _from_config(cls, config: dict, **given):
    """A ``cls`` built from ``given`` and, for its other dataclass
    fields, the values ``config`` records."""
    recorded = {item.name: config[item.name] for item in fields(cls) if item.name not in given}
    return cls(**given, **recorded)


class Fingerprinter(abc.ABC):
    """Base class of the classifier backends.

    A backend is a dataclass of hyperparameters that names its artifact
    ``backend`` and implements ``fit``, ``_predict`` and its fitted
    state, ``_state``/``_restore``.  ``fit`` and ``_restore`` set
    ``_input_length``, the row length ``predict_proba`` accepts (None
    accepts any); until then the model is unfitted.
    """

    #: The backend's name in an artifact, a key of :data:`BACKENDS`.
    backend: ClassVar[str]

    @abc.abstractmethod
    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: int) -> "Fingerprinter":
        """Train on ``(rows, length)`` traces with labels in ``[0, n_classes)``."""

    @abc.abstractmethod
    def _predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for float64 rows of the training length."""

    @abc.abstractmethod
    def _state(self) -> State:
        """The fitted model as an artifact's JSON config and learned arrays."""

    @classmethod
    @abc.abstractmethod
    def _restore(cls, config: dict, arrays: Dict[str, np.ndarray]) -> "Fingerprinter":
        """The fitted model :meth:`_state` described; a config or arrays that
        cannot be that model raise :class:`~repro.ml.artifact.ArtifactError`."""

    def _require_fitted(self, error: Type[Exception] = RuntimeError) -> None:
        if not hasattr(self, "_input_length"):
            raise error(f"{type(self).__name__} is unfitted; call fit() first")

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a ``(rows, training length)`` matrix.

        Raises ``ValueError`` naming both lengths for any other shape:
        the LSTM's pool sizes and steps and the features' pooling bins
        were derived from the training length, and rows of another length
        would be answered wrongly.  A feature model loaded from an
        artifact saved without its training length takes any length.
        """
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        length = self._input_length
        if length is not None and (x.ndim != 2 or x.shape[1] != length):
            raise ValueError(
                f"this model classifies rows of {length} samples "
                f"(its training length), got an array of shape {x.shape}"
            )
        with obs.span("ml.predict", backend=self.backend, rows=len(x)):
            return self._predict(x)

    def save(self, path, *, classes=None, provenance=None) -> Path:
        """Write this fitted model as an artifact directory at ``path``."""
        return save_artifact(self, path, classes=classes, provenance=provenance)

    @classmethod
    def load(cls, path) -> "Fingerprinter":
        """Load an artifact directory; it must hold this class."""
        model = load_artifact(path)
        if not isinstance(model, cls):
            raise ArtifactError(
                f"artifact at {path} holds a {type(model).__name__}, "
                f"not a {cls.__name__}"
            )
        return model


def build_paper_network(
    input_length: int,
    n_classes: int,
    rng: np.random.Generator,
    conv_filters: int = 32,
    lstm_units: int = 24,
    dropout: float = 0.7,
) -> Sequential:
    """The paper's CNN+LSTM, parameterized by width.

    With ``conv_filters=256, lstm_units=32`` this is exactly the
    published architecture.  Each kernel and pool shrinks to the length
    that reaches it, so rows of any positive length build; rows of 17
    samples or more keep the published sizes at the first pair.
    """
    if input_length < 1:
        raise ValueError(f"input length must be positive, got {input_length}")
    kernel, stride, pool = 8, 3, 4
    conv1 = Conv1D(1, conv_filters, min(kernel, input_length), stride, rng)
    length = conv1.output_length(input_length)
    pool1 = MaxPool1D(min(pool, length))
    length = pool1.output_length(length)
    conv2 = Conv1D(conv_filters, conv_filters, min(kernel, length), stride, rng)
    pool2 = MaxPool1D(min(pool, conv2.output_length(length)))
    lstm = LSTM(conv_filters, lstm_units, rng)
    return Sequential(
        [
            conv1,
            ReLU(),
            pool1,
            conv2,
            ReLU(),
            pool2,
            lstm,
            Dropout(dropout, rng),
            Dense(lstm_units, n_classes, rng),
        ]
    )


@dataclass
class LstmFingerprinter(Fingerprinter):
    """Paper-architecture backend (scaled widths by default)."""

    backend = "lstm"

    conv_filters: int = 32
    lstm_units: int = 24
    dropout: float = 0.7
    epochs: int = 40
    batch_size: int = 32
    patience: int = 5
    learning_rate: float = 0.001
    validation_fraction: float = 0.1
    seed: int = 0

    @classmethod
    def paper_scale(cls, **overrides) -> "LstmFingerprinter":
        """The exact published widths (slow on a laptop)."""
        defaults = dict(conv_filters=256, lstm_units=32)
        defaults.update(overrides)
        return cls(**defaults)

    def _build_network(
        self, input_length: int, n_classes: int, rng: np.random.Generator
    ) -> Sequential:
        """The network at this model's widths, as ``fit`` and ``_restore`` build it."""
        return build_paper_network(
            input_length, n_classes, rng,
            conv_filters=self.conv_filters,
            lstm_units=self.lstm_units,
            dropout=self.dropout,
        )

    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: int) -> "LstmFingerprinter":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        # Normalized traces live in a narrow band near 1.0; center and
        # rescale so the conv stack sees unit-variance inputs.
        self._input_mean = float(x.mean())
        self._input_std = float(x.std()) or 1.0
        self._input_length = x.shape[1]
        self._n_classes = n_classes
        x = (x - self._input_mean) / self._input_std
        rng = np.random.default_rng(self.seed)
        self._network = self._build_network(x.shape[1], n_classes, rng)
        x3 = x[:, :, None]
        # Carve a validation split for early stopping (paper: 9 % of the
        # dataset; here a fraction of the training fold).
        n_val = max(int(len(x) * self.validation_fraction), 1) if len(x) > 10 else 0
        order = rng.permutation(len(x))
        val_idx, train_idx = order[:n_val], order[n_val:]
        trainer = Trainer(
            epochs=self.epochs,
            batch_size=self.batch_size,
            patience=self.patience,
            optimizer=Adam(learning_rate=self.learning_rate),
            seed=self.seed,
        )
        trainer.fit(
            self._network,
            x3[train_idx],
            y[train_idx],
            x3[val_idx] if n_val else None,
            y[val_idx] if n_val else None,
        )
        return self

    def _predict(self, x: np.ndarray) -> np.ndarray:
        x = (x - self._input_mean) / self._input_std
        return self._network.predict_proba(x[:, :, None])

    def _state(self) -> State:
        """Network parameters are keyed ``L{layer:02d}.{name}``, the flat
        ``(layer_index, name)`` parameter dict of
        :class:`~repro.ml.network.Sequential` made filename-safe."""
        config = {
            **_field_values(self),
            "input_length": int(self._input_length),
            "n_classes": int(self._n_classes),
            "input_mean": self._input_mean,
            "input_std": self._input_std,
        }
        arrays = {
            f"L{layer:02d}.{name}": array
            for (layer, name), array in self._network.parameters().items()
        }
        return config, arrays

    @classmethod
    def _restore(cls, config: dict, arrays: Dict[str, np.ndarray]) -> "LstmFingerprinter":
        model = _from_config(cls, config)
        network = model._build_network(
            config["input_length"], config["n_classes"], np.random.default_rng(model.seed)
        )
        saved = {}
        for key, array in arrays.items():
            layer, _, name = key.partition(".")
            if not (layer.startswith("L") and layer[1:].isdigit() and name):
                raise ArtifactError(f"malformed weight key {key!r}")
            saved[(int(layer[1:]), name)] = array
        # Every parameter of the rebuilt architecture, and no other, must
        # be restored: a mismatch is a hard error, not a wrong model.
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


@dataclass
class FeatureFingerprinter(Fingerprinter):
    """Fast backend: engineered features + softmax regression."""

    backend = "feature"

    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)
    learning_rate: float = 0.05
    l2: float = 1e-4
    epochs: int = 300
    seed: int = 0

    def _regression(self, n_classes: int) -> SoftmaxRegression:
        """The classifier ``fit`` trains and ``_restore`` fills with saved weights."""
        return SoftmaxRegression(
            n_classes=n_classes,
            learning_rate=self.learning_rate,
            l2=self.l2,
            epochs=self.epochs,
            seed=self.seed,
        )

    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: int) -> "FeatureFingerprinter":
        x = np.asarray(x, dtype=np.float64)
        features = self.extractor.transform(x)
        self._input_length = x.shape[1]
        self._standardizer = Standardizer()
        features = self._standardizer.fit_transform(features)
        self._model = self._regression(n_classes).fit(
            features, np.asarray(y, dtype=np.int64)
        )
        return self

    def _predict(self, x: np.ndarray) -> np.ndarray:
        features = self._standardizer.transform(self.extractor.transform(x))
        return self._model.predict_proba(features)

    def _state(self) -> State:
        config = {**_field_values(self), "n_classes": int(self._model.n_classes)}
        if self._input_length is not None:
            config["input_length"] = int(self._input_length)
        arrays = {
            "standardizer.mean": self._standardizer.mean,
            "standardizer.std": self._standardizer.std,
            "softmax.W": self._model.W,
            "softmax.b": self._model.b,
        }
        return config, arrays

    @classmethod
    def _restore(cls, config: dict, arrays: Dict[str, np.ndarray]) -> "FeatureFingerprinter":
        model = _from_config(cls, config, extractor=_from_config(FeatureExtractor, config))
        standardizer = Standardizer()
        standardizer.mean = arrays["standardizer.mean"]
        standardizer.std = arrays["standardizer.std"]
        regression = model._regression(config["n_classes"])
        regression.W = arrays["softmax.W"]
        regression.b = arrays["softmax.b"]
        if regression.W.shape[1] != config["n_classes"]:
            raise ArtifactError(
                f"weight matrix has {regression.W.shape[1]} classes, "
                f"metadata says {config['n_classes']}"
            )
        # Artifacts saved before feature models recorded their training
        # length have no such field and take rows of any length.
        input_length = config.get("input_length")
        if input_length is not None and (type(input_length) is not int or input_length < 1):
            raise ArtifactError(f"input_length must be a positive integer, got {input_length!r}")
        model._input_length = input_length
        model._standardizer = standardizer
        model._model = regression
        return model


#: Artifact backend name -> backend class.
BACKENDS: Dict[str, Type[Fingerprinter]] = {
    cls.backend: cls for cls in (FeatureFingerprinter, LstmFingerprinter)
}


def make_fingerprinter(backend: str, seed: int = 0) -> Fingerprinter:
    """A backend by name: a key of :data:`BACKENDS`, or ``"lstm-paper"``
    for the LSTM at the published widths."""
    if backend == "lstm-paper":
        return LstmFingerprinter.paper_scale(seed=seed)
    if backend not in BACKENDS:
        raise ValueError(f"unknown classifier backend {backend!r}")
    return BACKENDS[backend](seed=seed)
