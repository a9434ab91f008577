"""Tests for schema-versioned model artifacts (save/load round trips)."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ml.artifact import (
    ARTIFACT_JSON,
    SCHEMA_VERSION,
    WEIGHTS_NPZ,
    ArtifactError,
    load_artifact,
    load_info,
    save_artifact,
)
from repro.ml.features import FeatureExtractor
from repro.ml.models import BACKENDS, FeatureFingerprinter, LstmFingerprinter
from tests.conftest import temp_files

#: Artifacts written by repro 1.4.0 while ``repro.ml.artifact`` still
#: restated each backend's fields: these models fitted on 18 rows of 40
#: samples, three classes of six, ``rng = np.random.default_rng(5)``,
#: ``np.concatenate([1 + rng.normal(0, 0.2, 40) + rng.normal(0, 0.05, (6, 40))
#: for _ in range(3)])``, saved with classes a/b/c.com and provenance
#: ``{"seed": 7, "scale": "golden"}``.  Every field is off its default.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MODELS = {
    "feature": FeatureFingerprinter(
        extractor=FeatureExtractor(shape_bins=6, diff_bins=4, fft_bins=5),
        learning_rate=0.1, l2=1e-3, epochs=20, seed=7,
    ),
    "lstm": LstmFingerprinter(
        conv_filters=3, lstm_units=2, dropout=0.5, epochs=2, batch_size=8,
        patience=2, learning_rate=0.005, validation_fraction=0.2, seed=7,
    ),
}


def npz_arrays(path) -> dict:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def same_arrays(a: dict, b: dict) -> bool:
    """Same keys, and per key the same dtype, shape and bytes."""
    return a.keys() == b.keys() and all(
        a[key].dtype == b[key].dtype
        and a[key].shape == b[key].shape
        and a[key].tobytes() == b[key].tobytes()
        for key in a
    )


class TestGoldenArtifacts:
    """Committed artifacts load into the backend's state bit for bit and
    save back to the same manifest.  Nothing here runs a fit or compares
    a prediction, so no BLAS result is involved."""

    @pytest.mark.parametrize("backend", sorted(GOLDEN_MODELS))
    def test_state_is_the_committed_config_and_arrays(self, backend):
        path = GOLDEN / backend
        model = BACKENDS[backend].load(path)
        assert type(model) is BACKENDS[backend]
        assert model == GOLDEN_MODELS[backend]
        config, arrays = model._state()
        committed = json.loads((path / ARTIFACT_JSON).read_text())["config"]
        assert json.dumps(config, sort_keys=True) == json.dumps(committed, sort_keys=True)
        assert same_arrays(arrays, npz_arrays(path / WEIGHTS_NPZ))

    @pytest.mark.parametrize("backend", sorted(GOLDEN_MODELS))
    def test_saving_again_writes_the_same_manifest(self, backend, tmp_path):
        path = GOLDEN / backend
        text = (path / ARTIFACT_JSON).read_text()
        document = json.loads(text)
        model = load_artifact(path)
        model.save(tmp_path / "m", classes=document["classes"], provenance=document["provenance"])
        expected = text.replace(
            f'"repro_version": "{document["repro_version"]}"',
            f'"repro_version": "{repro.__version__}"',
        )
        assert (tmp_path / "m" / ARTIFACT_JSON).read_text() == expected
        assert same_arrays(
            npz_arrays(tmp_path / "m" / WEIGHTS_NPZ), npz_arrays(path / WEIGHTS_NPZ)
        )

    @pytest.mark.parametrize("backend", sorted(GOLDEN_MODELS))
    def test_state_config_holds_every_dataclass_field(self, backend):
        model = load_artifact(GOLDEN / backend)
        config, _ = model._state()
        for item in dataclasses.fields(model):
            value = getattr(model, item.name)
            if dataclasses.is_dataclass(value):
                for inner in dataclasses.fields(value):
                    assert config[inner.name] == getattr(value, inner.name), inner.name
            else:
                assert config[item.name] == value, item.name

    def test_typed_load_names_the_class(self):
        assert type(FeatureFingerprinter.load(GOLDEN / "feature")) is FeatureFingerprinter
        assert type(LstmFingerprinter.load(GOLDEN / "lstm")) is LstmFingerprinter
        with pytest.raises(ArtifactError, match="LstmFingerprinter, not a FeatureFingerprinter"):
            FeatureFingerprinter.load(GOLDEN / "lstm")


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    profiles = rng.normal(0.0, 0.3, size=(4, 160))
    x = np.concatenate(
        [1.0 + profiles[c] + rng.normal(0.0, 0.05, size=(12, 160)) for c in range(4)]
    )
    y = np.repeat(np.arange(4), 12)
    return x, y


@pytest.fixture(scope="module")
def feature_model(dataset):
    x, y = dataset
    return FeatureFingerprinter(seed=3).fit(x, y, 4)


@pytest.fixture(scope="module")
def lstm_model(dataset):
    x, y = dataset
    return LstmFingerprinter(
        conv_filters=4, lstm_units=4, epochs=2, seed=3
    ).fit(x, y, 4)


CLASSES = ["a.com", "b.com", "c.com", "d.com"]


class TestRoundTrip:
    @pytest.mark.parametrize("which", ["feature", "lstm"])
    def test_bit_identical_predictions(self, which, dataset, feature_model, lstm_model, tmp_path):
        x, _ = dataset
        model = feature_model if which == "feature" else lstm_model
        model.save(tmp_path / which, classes=CLASSES)
        clone = load_artifact(tmp_path / which)
        np.testing.assert_array_equal(
            model.predict_proba(x), clone.predict_proba(x)
        )

    def test_typed_load_matches(self, dataset, feature_model, tmp_path):
        x, _ = dataset
        feature_model.save(tmp_path / "m")
        clone = FeatureFingerprinter.load(tmp_path / "m")
        np.testing.assert_array_equal(
            feature_model.predict_proba(x), clone.predict_proba(x)
        )

    def test_typed_load_rejects_other_backend(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        with pytest.raises(ArtifactError, match="FeatureFingerprinter"):
            LstmFingerprinter.load(tmp_path / "m")

    def test_info_records_provenance(self, feature_model, tmp_path):
        import repro

        feature_model.save(
            tmp_path / "m",
            classes=CLASSES,
            provenance={"seed": 3, "scale": "smoke"},
        )
        info = load_info(tmp_path / "m")
        assert info.schema_version == SCHEMA_VERSION
        assert info.backend == "feature"
        assert info.repro_version == repro.__version__
        assert info.classes == tuple(CLASSES)
        assert info.n_classes == 4
        assert info.provenance == {"seed": 3, "scale": "smoke"}
        assert info.config["seed"] == 3

    def test_feature_artifact_records_training_length(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        assert load_info(tmp_path / "m").config["input_length"] == 160
        with pytest.raises(ValueError, match=r"160 samples.*\(1, 120\)"):
            load_artifact(tmp_path / "m").predict_proba(np.ones((1, 120)))

    def test_feature_artifact_without_training_length_loads(
        self, dataset, feature_model, tmp_path
    ):
        """An artifact saved before feature models recorded their training
        length still loads, predicts as saved and takes any length."""
        x, _ = dataset
        feature_model.save(tmp_path / "m", classes=CLASSES)
        manifest = tmp_path / "m" / ARTIFACT_JSON
        document = json.loads(manifest.read_text())
        del document["config"]["input_length"]
        manifest.write_text(json.dumps(document))
        info = load_info(tmp_path / "m")
        assert info.schema_version == SCHEMA_VERSION == 1
        clone = load_artifact(tmp_path / "m")
        np.testing.assert_array_equal(feature_model.predict_proba(x), clone.predict_proba(x))
        assert clone.predict_proba(x[:, :120]).shape == (len(x), 4)
        clone.save(tmp_path / "again", classes=CLASSES)
        assert "input_length" not in load_info(tmp_path / "again").config

    @pytest.mark.parametrize("length", [0, -3, 1.5, "160", True])
    def test_malformed_training_length_rejected(self, feature_model, tmp_path, length):
        feature_model.save(tmp_path / "m")
        manifest = tmp_path / "m" / ARTIFACT_JSON
        document = json.loads(manifest.read_text())
        document["config"]["input_length"] = length
        manifest.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="input_length"):
            load_artifact(tmp_path / "m")

    def test_manifest_is_stable_json(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "a", classes=CLASSES)
        feature_model.save(tmp_path / "b", classes=CLASSES)
        assert (tmp_path / "a" / ARTIFACT_JSON).read_text() == (
            tmp_path / "b" / ARTIFACT_JSON
        ).read_text()


class TestCrashSafety:
    def test_failed_weights_write_keeps_previous_artifact(
        self, dataset, feature_model, tmp_path, fail_rename
    ):
        x, y = dataset
        path = feature_model.save(tmp_path / "model", classes=CLASSES)
        before = {name: (path / name).read_bytes() for name in (ARTIFACT_JSON, WEIGHTS_NPZ)}
        retrained = FeatureFingerprinter(seed=4).fit(x, y[::-1], 4)
        fail_rename(WEIGHTS_NPZ)
        with pytest.raises(OSError, match="injected"):
            retrained.save(path, classes=CLASSES[::-1])
        assert {name: (path / name).read_bytes() for name in before} == before
        assert temp_files(path) == []
        np.testing.assert_array_equal(
            load_artifact(path).predict_proba(x), feature_model.predict_proba(x)
        )


class TestValidation:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="unfitted"):
            FeatureFingerprinter().save(tmp_path / "m")

    def test_class_count_mismatch_rejected(self, feature_model, tmp_path):
        with pytest.raises(ArtifactError, match="class"):
            feature_model.save(tmp_path / "m", classes=["only", "two"])

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing"):
            load_info(tmp_path / "nope")

    def test_corrupted_manifest_rejected(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        (tmp_path / "m" / ARTIFACT_JSON).write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupted"):
            load_info(tmp_path / "m")

    def test_future_schema_rejected(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        manifest = tmp_path / "m" / ARTIFACT_JSON
        document = json.loads(manifest.read_text())
        document["schema_version"] = SCHEMA_VERSION + 1
        manifest.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="unsupported artifact schema"):
            load_artifact(tmp_path / "m")

    def test_unknown_backend_rejected(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        manifest = tmp_path / "m" / ARTIFACT_JSON
        document = json.loads(manifest.read_text())
        document["backend"] = "tensorflow"
        manifest.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="unknown artifact backend"):
            load_artifact(tmp_path / "m")

    def test_missing_weights_rejected(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        (tmp_path / "m" / WEIGHTS_NPZ).unlink()
        with pytest.raises(ArtifactError, match=WEIGHTS_NPZ):
            load_artifact(tmp_path / "m")

    def test_truncated_weights_rejected(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        weights = tmp_path / "m" / WEIGHTS_NPZ
        weights.write_bytes(weights.read_bytes()[:20])
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "m")

    def test_missing_array_rejected(self, feature_model, tmp_path):
        feature_model.save(tmp_path / "m")
        weights = tmp_path / "m" / WEIGHTS_NPZ
        with np.load(weights) as archive:
            arrays = {k: archive[k] for k in archive.files}
        del arrays["softmax.W"]
        with open(weights, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ArtifactError, match="softmax.W"):
            load_artifact(tmp_path / "m")

    def test_lstm_weight_key_mismatch_rejected(self, lstm_model, tmp_path):
        lstm_model.save(tmp_path / "m")
        weights = tmp_path / "m" / WEIGHTS_NPZ
        with np.load(weights) as archive:
            arrays = {k: archive[k] for k in archive.files}
        # Re-key one parameter to a layer the architecture doesn't have.
        key = sorted(arrays)[0]
        arrays["L99." + key.partition(".")[2]] = arrays.pop(key)
        with open(weights, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ArtifactError, match="architecture"):
            load_artifact(tmp_path / "m")


class TestSaveArtifactFunction:
    def test_non_fingerprinter_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact backend"):
            save_artifact(object(), tmp_path / "m")
