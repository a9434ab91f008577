"""Tests for the fingerprinting classifier backends."""

import numpy as np
import pytest

from repro.ml.models import (
    FeatureFingerprinter,
    LstmFingerprinter,
    build_paper_network,
    make_fingerprinter,
)


def toy_traces(n_per_class=10, n_classes=3, length=120, seed=0):
    """Traces with class-specific dip positions, like site signatures."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls in range(n_classes):
        base = np.ones(length)
        start = 10 + cls * 30
        base[start : start + 20] = 0.6
        xs.append(base + rng.normal(0, 0.03, size=(n_per_class, length)))
        ys.append(np.full(n_per_class, cls))
    return np.clip(np.concatenate(xs), 0, None), np.concatenate(ys)


class TestBuildPaperNetwork:
    def test_structure(self, rng):
        net = build_paper_network(300, 10, rng)
        logits = net.forward(np.random.default_rng(0).random((2, 300, 1)))
        assert logits.shape == (2, 10)

    def test_paper_scale_widths(self):
        model = LstmFingerprinter.paper_scale()
        assert model.conv_filters == 256
        assert model.lstm_units == 32
        assert model.dropout == 0.7

    def test_handles_short_inputs(self, rng):
        net = build_paper_network(40, 4, rng)
        logits = net.forward(np.random.default_rng(0).random((2, 40, 1)))
        assert logits.shape == (2, 4)

    @pytest.mark.parametrize("length", [17, 18, 40, 3000])
    def test_first_pair_keeps_published_sizes_from_17_samples(self, rng, length):
        conv1, _, pool1 = build_paper_network(length, 3, rng).layers[:3]
        assert (conv1.kernel_size, conv1.stride, pool1.pool_size) == (8, 3, 4)

    def test_trace_length_rows_build_the_published_network(self, rng):
        layers = build_paper_network(3000, 3, rng).layers
        assert [(layers[i].kernel_size, layers[i].stride) for i in (0, 3)] == [(8, 3)] * 2
        assert [layers[i].pool_size for i in (2, 5)] == [4, 4]

    @pytest.mark.parametrize("length", [1, 2, 8, 16])
    def test_short_rows_fit_and_predict(self, length):
        """16 samples are an 8 s trace at P = 500 ms."""
        x, y = toy_traces(n_per_class=4)
        x = x[:, :length]
        model = LstmFingerprinter(conv_filters=4, lstm_units=3, epochs=2, seed=0)
        probs = model.fit(x, y, n_classes=3).predict_proba(x)
        assert probs.shape == (len(x), 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_empty_rows_rejected(self, rng):
        with pytest.raises(ValueError, match="input length must be positive"):
            build_paper_network(0, 3, rng)


class TestFeatureFingerprinter:
    def test_learns_toy_problem(self):
        x, y = toy_traces()
        model = FeatureFingerprinter(seed=0).fit(x, y, n_classes=3)
        assert (model.predict_proba(x).argmax(axis=1) == y).mean() > 0.95

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FeatureFingerprinter().predict_proba(np.ones((1, 50)))

    def test_proba_shape(self):
        x, y = toy_traces()
        model = FeatureFingerprinter(seed=0).fit(x, y, n_classes=3)
        assert model.predict_proba(x[:5]).shape == (5, 3)

    @pytest.fixture(scope="class")
    def small_model(self):
        x, y = toy_traces(n_per_class=4)
        return FeatureFingerprinter(epochs=5, seed=0).fit(x, y, n_classes=3)

    @pytest.mark.parametrize("length", [90, 400])
    def test_wrong_length_rejected(self, small_model, length):
        """Pooled features of another length describe another time scale."""
        with pytest.raises(ValueError, match=rf"120 samples.*\(2, {length}\)"):
            small_model.predict_proba(np.ones((2, length)))


class TestLstmFingerprinter:
    def test_learns_toy_problem(self):
        x, y = toy_traces(n_per_class=15)
        model = LstmFingerprinter(
            conv_filters=8, lstm_units=8, dropout=0.0, epochs=60,
            batch_size=8, learning_rate=0.005, patience=20, seed=0,
        )
        model.fit(x, y, n_classes=3)
        accuracy = (model.predict_proba(x).argmax(axis=1) == y).mean()
        assert accuracy > 0.9

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LstmFingerprinter().predict_proba(np.ones((1, 50)))

    @pytest.fixture(scope="class")
    def small_model(self):
        x, y = toy_traces(n_per_class=4)
        model = LstmFingerprinter(conv_filters=4, lstm_units=4, epochs=1, seed=0)
        return model.fit(x, y, n_classes=3)

    @pytest.mark.parametrize("length", [90, 400])
    def test_wrong_length_rejected(self, small_model, length):
        """The architecture is derived from the training length (120)."""
        with pytest.raises(ValueError, match=rf"120 samples.*\(2, {length}\)"):
            small_model.predict_proba(np.ones((2, length)))

    def test_one_dimensional_row_rejected(self, small_model):
        with pytest.raises(ValueError, match=r"120 samples.*\(120,\)"):
            small_model.predict_proba(np.ones(120))

    def test_training_length_accepted(self, small_model):
        assert small_model.predict_proba(np.ones((2, 120))).shape == (2, 3)


class TestFactory:
    def test_known_backends(self):
        assert isinstance(make_fingerprinter("feature"), FeatureFingerprinter)
        assert isinstance(make_fingerprinter("lstm"), LstmFingerprinter)
        paper = make_fingerprinter("lstm-paper")
        assert isinstance(paper, LstmFingerprinter)
        assert paper.conv_filters == 256

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_fingerprinter("svm")

    def test_seed_passed_through(self):
        assert make_fingerprinter("feature", seed=9).seed == 9
