"""Tests for feature extraction and standardization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.features import FeatureExtractor, Standardizer, mean_pool


class TestMeanPool:
    def test_exact_division(self):
        x = np.array([[1.0, 3.0, 5.0, 7.0]])
        np.testing.assert_allclose(mean_pool(x, 2), [[2.0, 6.0]])

    def test_remainder_cropped(self):
        x = np.array([[1.0, 3.0, 5.0, 7.0, 100.0]])
        np.testing.assert_allclose(mean_pool(x, 2), [[2.0, 6.0]])

    def test_short_input_padded(self):
        x = np.array([[1.0, 2.0]])
        pooled = mean_pool(x, 4)
        assert pooled.shape == (1, 4)
        np.testing.assert_allclose(pooled, [[1.0, 2.0, 2.0, 2.0]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            mean_pool(np.ones(5), 2)

    def test_rejects_zero_length_rows(self):
        """There is no edge to pad from; returning no columns would hand
        the caller a matrix of the wrong width."""
        with pytest.raises(ValueError, match="zero length"):
            mean_pool(np.ones((2, 0)), 4)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_width(self, length, bins):
        pooled = mean_pool(np.ones((2, length)), bins)
        assert pooled.shape == (2, bins)

    def test_preserves_mean_on_exact_division(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 64))
        pooled = mean_pool(x, 8)
        np.testing.assert_allclose(pooled.mean(axis=1), x.mean(axis=1))


class TestFeatureExtractor:
    def test_feature_count(self):
        extractor = FeatureExtractor()
        x = np.random.default_rng(0).random((5, 400))
        assert extractor.transform(x).shape == (5, extractor.n_features)

    def test_handles_short_traces(self):
        """Every length gives ``n_features`` columns; a 1-sample trace has
        no spectrum past DC, and lengths 2 and 3 have one bin, pooled by
        edge padding."""
        extractor = FeatureExtractor()
        spectral = slice(64 + 32, 64 + 32 + 96)
        for length in (1, 2, 3, 30):
            x = np.random.default_rng(length).random((2, length))
            features = extractor.transform(x)
            assert features.shape == (2, extractor.n_features)
            spectrum = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1))
            spectrum = spectrum / (spectrum.sum(axis=1, keepdims=True) + 1e-12)
            if length == 1:
                assert np.all(features[:, spectral] == 0.0)
            elif length <= 3:
                np.testing.assert_array_equal(
                    features[:, spectral], np.repeat(spectrum[:, 1:2], 96, axis=1)
                )

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            FeatureExtractor().transform(np.ones(10))

    def test_distinguishes_frequencies(self):
        """The spectral block separates different ripple frequencies."""
        t = np.arange(1600)
        slow = np.sin(2 * np.pi * t / 200)[None, :]
        fast = np.sin(2 * np.pi * t / 20)[None, :]
        extractor = FeatureExtractor()
        f_slow = extractor.transform(slow)
        f_fast = extractor.transform(fast)
        spectral = slice(64 + 32, 64 + 32 + 32)
        assert not np.allclose(f_slow[0, spectral], f_fast[0, spectral])

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureExtractor(shape_bins=0)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        z = Standardizer().fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), np.ones(4), atol=1e-9)

    def test_constant_column_safe(self):
        x = np.ones((10, 2))
        z = Standardizer().fit_transform(x)
        assert np.isfinite(z).all()

    def test_transform_uses_training_stats(self):
        standardizer = Standardizer()
        train = np.array([[0.0], [2.0]])
        standardizer.fit(train)
        z = standardizer.transform(np.array([[4.0]]))
        assert z[0, 0] == pytest.approx(3.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.ones((1, 2)))
