"""Fingerprinting classifier backends.

Both backends implement the same protocol — ``fit(X, y, n_classes)`` and
``predict_proba(X)`` on raw normalized trace vectors — so the
fingerprinting pipeline can swap them freely:

* :class:`LstmFingerprinter` — the paper's architecture (footnote 2):
  two Conv1D(stride 3) + MaxPool1D(4) pairs, LSTM, Dropout(0.7), softmax
  output, trained with Adam (lr 0.001) and validation early stopping.
  Filter/unit counts are configurable; the defaults are scaled down from
  (256, 32) for laptop-speed training and can be set to the paper's
  values with ``LstmFingerprinter.paper_scale()``.
* :class:`FeatureFingerprinter` — engineered features + softmax
  regression; the fast backend used for full parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro import obs
from repro.ml.features import FeatureExtractor, Standardizer
from repro.ml.layers import Conv1D, Dense, Dropout, MaxPool1D, ReLU
from repro.ml.linear import SoftmaxRegression
from repro.ml.lstm import LSTM
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.ml.train import Trainer


class Fingerprinter(Protocol):
    """Classifier protocol consumed by the fingerprinting pipeline.

    Fitted backends also persist as schema-versioned artifact
    directories (:mod:`repro.ml.artifact`): ``save(path)`` writes one,
    ``load(path)`` rebuilds a bit-identical model from one.
    """

    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: int) -> "Fingerprinter": ...

    def predict_proba(self, x: np.ndarray) -> np.ndarray: ...

    def save(self, path, *, classes=None, provenance=None): ...


class _ArtifactMixin:
    """save()/load() over :mod:`repro.ml.artifact` for both backends."""

    def save(self, path, *, classes=None, provenance=None):
        """Write this fitted model as an artifact directory at ``path``."""
        from repro.ml.artifact import save_artifact

        return save_artifact(self, path, classes=classes, provenance=provenance)

    @classmethod
    def load(cls, path):
        """Load an artifact directory; it must hold this backend."""
        from repro.ml.artifact import ArtifactError, load_artifact

        model = load_artifact(path)
        if not isinstance(model, cls):
            raise ArtifactError(
                f"artifact at {path} holds a {type(model).__name__}, "
                f"not a {cls.__name__}"
            )
        return model


def _rows_of_length(x: np.ndarray, length: int | None) -> np.ndarray:
    """``x`` as a float64 ``(rows, length)`` matrix.

    Raises ``ValueError`` naming both lengths for any other shape; a
    ``length`` of None accepts rows of any length.
    """
    x = np.asarray(x, dtype=np.float64)
    if length is not None and (x.ndim != 2 or x.shape[1] != length):
        raise ValueError(
            f"this model classifies rows of {length} samples "
            f"(its training length), got an array of shape {x.shape}"
        )
    return x


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
class LstmFingerprinter(_ArtifactMixin):
    """Paper-architecture backend (scaled widths by default)."""

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
        self._network = build_paper_network(
            x.shape[1], n_classes, rng,
            conv_filters=self.conv_filters,
            lstm_units=self.lstm_units,
            dropout=self.dropout,
        )
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

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a ``(rows, training length)`` matrix.

        Raises ``ValueError`` for any other shape: the pool sizes and
        LSTM steps were derived from the training length, and the
        network would run on any other length and answer wrongly.
        """
        if not hasattr(self, "_network"):
            raise RuntimeError("classifier not fitted")
        x = _rows_of_length(x, self._input_length)
        with obs.span("ml.predict", backend="lstm", rows=len(x)):
            x = (x - self._input_mean) / self._input_std
            return self._network.predict_proba(x[:, :, None])


@dataclass
class FeatureFingerprinter(_ArtifactMixin):
    """Fast backend: engineered features + softmax regression."""

    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)
    learning_rate: float = 0.05
    l2: float = 1e-4
    epochs: int = 300
    seed: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: int) -> "FeatureFingerprinter":
        x = np.asarray(x, dtype=np.float64)
        features = self.extractor.transform(x)
        self._input_length = x.shape[1]
        self._standardizer = Standardizer()
        features = self._standardizer.fit_transform(features)
        self._model = SoftmaxRegression(
            n_classes=n_classes,
            learning_rate=self.learning_rate,
            l2=self.l2,
            epochs=self.epochs,
            seed=self.seed,
        ).fit(features, np.asarray(y, dtype=np.int64))
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a ``(rows, training length)`` matrix.

        Raises ``ValueError`` for rows of any other length: the pooled
        features of another length describe another time scale.  A model
        loaded from an artifact saved without its training length takes
        rows of any length.
        """
        if not hasattr(self, "_model"):
            raise RuntimeError("classifier not fitted")
        x = _rows_of_length(x, self._input_length)
        with obs.span("ml.predict", backend="feature", rows=len(x)):
            features = self._standardizer.transform(self.extractor.transform(x))
            return self._model.predict_proba(features)


def make_fingerprinter(backend: str, seed: int = 0) -> Fingerprinter:
    """Factory for a backend by name (``"feature"`` or ``"lstm"``)."""
    if backend == "feature":
        return FeatureFingerprinter(seed=seed)
    if backend == "lstm":
        return LstmFingerprinter(seed=seed)
    if backend == "lstm-paper":
        return LstmFingerprinter.paper_scale(seed=seed)
    raise ValueError(f"unknown classifier backend {backend!r}")
