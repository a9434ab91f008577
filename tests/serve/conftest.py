"""Shared fixtures: a small trained artifact and a registry around it."""

import numpy as np
import pytest

from repro.ml.models import FeatureFingerprinter, LstmFingerprinter
from repro.serve.registry import ModelRegistry

CLASSES = ["a.com", "b.com", "c.com", "d.com"]


@pytest.fixture(scope="session")
def dataset():
    rng = np.random.default_rng(11)
    profiles = rng.normal(0.0, 0.3, size=(4, 120))
    x = np.concatenate(
        [1.0 + profiles[c] + rng.normal(0.0, 0.05, size=(10, 120)) for c in range(4)]
    )
    y = np.repeat(np.arange(4), 10)
    return x, y


@pytest.fixture(scope="session")
def model(dataset):
    x, y = dataset
    return FeatureFingerprinter(seed=2).fit(x, y, 4)


@pytest.fixture(scope="session")
def artifact_dir(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "model"
    model.save(path, classes=CLASSES, provenance={"seed": 2, "scale": "test"})
    return path


@pytest.fixture(scope="session")
def lstm_artifact_dir(dataset, tmp_path_factory):
    """A small LSTM model trained on the dataset's 120-sample rows."""
    x, y = dataset
    model = LstmFingerprinter(conv_filters=4, lstm_units=4, epochs=1, seed=2).fit(x, y, 4)
    path = tmp_path_factory.mktemp("artifact") / "lstm"
    model.save(path, classes=CLASSES)
    return path


@pytest.fixture()
def registry(artifact_dir):
    registry = ModelRegistry()
    registry.add("default", artifact_dir)
    return registry
