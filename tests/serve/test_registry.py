"""Tests for the model registry."""

import shutil

import pytest

from repro.ml.artifact import WEIGHTS_NPZ, ArtifactError
from repro.serve.registry import ModelRegistry

from tests.serve.conftest import CLASSES


class TestRegistry:
    def test_lazy_load_and_metadata(self, registry, artifact_dir, tmp_path):
        loaded = registry.get("default")
        assert loaded.classes == tuple(CLASSES)
        assert loaded.info.backend == "feature"
        # Registration reads the manifest only: weights that go missing
        # after it fail the first request, not the add.
        hollow = tmp_path / "hollow"
        shutil.copytree(artifact_dir, hollow)
        registry.add("hollow", hollow)
        (hollow / WEIGHTS_NPZ).unlink()
        with pytest.raises(ArtifactError):
            registry.get("hollow")

    def test_add_validates_manifest(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(ArtifactError):
            registry.add("bad", tmp_path / "nope")
        assert len(registry) == 0

    def test_duplicate_name_rejected(self, registry, artifact_dir):
        with pytest.raises(ValueError, match="already registered"):
            registry.add("default", artifact_dir)

    def test_unknown_model_raises(self, registry):
        with pytest.raises(KeyError, match="unknown model"):
            registry.get("nope")

    def test_contains_and_names(self, registry):
        assert "default" in registry
        assert "other" not in registry
        assert registry.names() == ["default"]

    def test_get_returns_same_instance_while_warm(self, registry):
        assert registry.get("default") is registry.get("default")
