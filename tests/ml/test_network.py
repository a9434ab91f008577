"""Tests for Sequential networks and end-to-end learning."""

import tracemalloc

import numpy as np
import pytest

from repro.ml.layers import Dense, Dropout, ReLU
from repro.ml.models import build_paper_network
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.verify.compare import diff_structures


def two_moons(n=200, seed=0):
    """A small nonlinear binary classification problem."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, np.pi, n)
    labels = rng.integers(0, 2, n)
    x = np.column_stack(
        [
            np.cos(angles) + labels * 1.0 + rng.normal(0, 0.1, n),
            np.sin(angles) * (1 - 2 * labels) + rng.normal(0, 0.1, n),
        ]
    )
    return x, labels


class TestSequential:
    def make(self, rng):
        return Sequential([Dense(2, 16, rng), ReLU(), Dense(16, 2, rng)])

    def test_needs_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_predict_proba_shape(self, rng):
        net = self.make(rng)
        probs = net.predict_proba(np.ones((5, 2)))
        assert probs.shape == (5, 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_training_reduces_loss(self, rng):
        net = self.make(rng)
        x, y = two_moons()
        optimizer = Adam(learning_rate=0.01)
        first = net.train_batch(x, y, optimizer)
        for _ in range(100):
            last = net.train_batch(x, y, optimizer)
        assert last < first / 2

    def test_learns_nonlinear_boundary(self, rng):
        net = self.make(rng)
        x, y = two_moons()
        optimizer = Adam(learning_rate=0.01)
        for _ in range(200):
            net.train_batch(x, y, optimizer)
        accuracy = (net.predict(x) == y).mean()
        assert accuracy > 0.95

    def test_snapshot_restore_roundtrip(self, rng):
        net = self.make(rng)
        x, y = two_moons()
        snapshot = net.snapshot()
        before = net.predict_proba(x)
        optimizer = Adam(learning_rate=0.05)
        for _ in range(20):
            net.train_batch(x, y, optimizer)
        after_training = net.predict_proba(x)
        assert not np.allclose(before, after_training)
        net.restore(snapshot)
        np.testing.assert_allclose(net.predict_proba(x), before)

    def test_restore_rejects_mismatched_snapshot(self, rng):
        net = self.make(rng)
        other = Sequential([Dense(2, 2, rng)])
        with pytest.raises(ValueError):
            net.restore(other.snapshot())

    def test_snapshot_is_a_copy(self, rng):
        net = self.make(rng)
        snapshot = net.snapshot()
        for key, array in net.parameters().items():
            array += 1.0
            assert not np.allclose(snapshot[key], array)
            break

    def test_predict_proba_batches_consistent(self, rng):
        net = self.make(rng)
        x = rng.normal(size=(300, 2))
        np.testing.assert_allclose(
            net.predict_proba(x, batch_size=7), net.predict_proba(x, batch_size=300)
        )


def assert_same_bits(a, b):
    failure = diff_structures(a, b, mode="bit")
    assert failure is None, failure


#: Chains in which the caller's batch would reach a ReLU unless
#: Sequential copied it first, and the small paper network.
CHAINS = {
    "relu-first": lambda rng: Sequential([ReLU(), Dense(3, 2, rng)]),
    "through-dropout": lambda rng: Sequential([Dropout(0.5, rng), ReLU(), Dense(3, 2, rng)]),
    "relu-last": lambda rng: Sequential([Dense(3, 4, rng), ReLU()]),
    "paper": lambda rng: build_paper_network(30, 2, rng, conv_filters=4, lstm_units=3),
}


def chain_batch(name, rng, rows=5):
    shape = (rows, 30, 1) if name == "paper" else (rows, 3)
    return rng.normal(size=shape), rng.integers(0, 2, size=rows)


class TestOwnership:
    """Layers write the chain's arrays in place; never the caller's."""

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_caller_input_is_never_written(self, rng, name):
        net = CHAINS[name](rng)
        x, labels = chain_batch(name, rng)
        original = x.copy()
        net.forward(x)
        net.forward(x, training=True)
        net.predict_proba(x)
        net.train_batch(x, labels, Adam())
        assert_same_bits(x, original)

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_returned_arrays_are_not_overwritten_later(self, rng, name):
        net = CHAINS[name](rng)
        x, labels = chain_batch(name, rng)
        outputs = [net.forward(x), net.forward(x, training=True), net.predict_proba(x)]
        kept = [array.copy() for array in outputs]
        other, other_labels = chain_batch(name, rng)
        net.forward(other)
        net.predict_proba(other)
        net.train_batch(other, other_labels, Adam())
        assert_same_bits(outputs, kept)

    def test_train_batch_first_layer_gradients_equal_a_full_backward(self):
        def network():
            return build_paper_network(
                40, 3, np.random.default_rng(5), conv_filters=4, lstm_units=3
            )

        rng = np.random.default_rng(6)
        x, labels = rng.normal(size=(4, 40, 1)), rng.integers(0, 3, size=4)
        trained = network()

        def no_input_gradient(grad):
            raise AssertionError("train_batch asked the first layer for its input gradient")

        trained.layers[0].backward = no_input_gradient
        trained.train_batch(x, labels, Adam())
        full = network()
        full.loss.forward(full.forward(x, training=True), labels)
        grad = full.loss.backward()
        for layer in reversed(full.layers):
            grad = layer.backward(grad)
        assert_same_bits(trained.layers[0].grads(), full.layers[0].grads())


def kept_arrays(layer) -> list:
    """Names of the attributes through which ``layer`` holds an array
    other than its parameters and gradients (looking into dicts)."""
    own = {id(array) for array in (*layer.params().values(), *layer.grads().values())}
    kept = []
    for name, value in vars(layer).items():
        items = value.values() if isinstance(value, dict) else [value]
        if any(isinstance(item, np.ndarray) and id(item) not in own for item in items):
            kept.append(name)
    return kept


class TestInferenceKeepsNoBackwardState:
    def test_no_layer_holds_an_array_after_predict_proba(self):
        """What a training step kept for backward is gone after a
        prediction, the training forward's inputs and masks included."""
        net = build_paper_network(60, 3, np.random.default_rng(2), conv_filters=4, lstm_units=3)
        rng = np.random.default_rng(3)
        x, labels = rng.normal(size=(4, 60, 1)), rng.integers(0, 3, size=4)
        net.train_batch(x, labels, Adam())
        assert kept_arrays(net.layers[0]) == ["_patches"]
        net.predict_proba(x)
        kept = {f"{i}.{type(layer).__name__}": kept_arrays(layer) for i, layer in enumerate(net.layers)}
        assert kept == {key: [] for key in kept}


class TestAllocationBounds:
    """Peak bytes traced while the paper-width network works on 3000-sample
    rows.  NumPy 2.4 reads 13.9 MB per 2-row step and 2.8 MB per 1-row
    prediction; it read 15.9 and 4.4 MB while every ReLU returned a new
    array and inference pooling searched for first maxima.  Each bound
    sits just under the old peak, leaving room for other NumPy versions'
    temporaries."""

    @pytest.fixture(scope="class")
    def warm(self):
        net = build_paper_network(
            3000, 8, np.random.default_rng(0), conv_filters=256, lstm_units=32
        )
        rng = np.random.default_rng(1)
        x, labels = rng.normal(size=(2, 3000, 1)), rng.integers(0, 8, size=2)
        optimizer = Adam()
        net.train_batch(x, labels, optimizer)  # Adam's state and every cache exist
        return net, optimizer, x, labels

    @staticmethod
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_two_row_train_batch(self, warm):
        net, optimizer, x, labels = warm
        assert self.peak_bytes(lambda: net.train_batch(x, labels, optimizer)) < 15.5e6

    def test_one_row_predict_proba(self, warm):
        net, _, x, _ = warm
        net.predict_proba(x[:1])
        assert self.peak_bytes(lambda: net.predict_proba(x[:1])) < 4.0e6
