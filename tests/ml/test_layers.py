"""Gradient and behaviour tests for the numpy layers."""

import numpy as np
import pytest

from repro.ml.layers import Conv1D, Dense, Dropout, MaxPool1D, ReLU
from repro.ml.layers_ref import ReferenceConv1D, ReferenceMaxPool1D, ReferenceReLU
from repro.ml.lstm import LSTM
from repro.verify.compare import diff_structures

INF, NAN = np.inf, np.nan


def assert_same_bits(a, b):
    """Equal values with equal sign bits; NaN equals NaN."""
    failure = diff_structures(a, b, mode="bit")
    assert failure is None, failure


def numeric_gradient(f, x, epsilon=1e-6):
    """Central-difference gradient of scalar f w.r.t. array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + epsilon
        f_plus = f()
        x[idx] = original - epsilon
        f_minus = f()
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * epsilon)
        it.iternext()
    return grad


def check_input_gradient(layer, x, tolerance=1e-5):
    """Backward's input gradient matches numeric differentiation of a
    random linear readout of the layer output."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=True)
    readout = rng.normal(size=out.shape)
    analytic = layer.backward(readout)

    def loss():
        return float((layer.forward(x, training=False) * readout).sum())

    numeric = numeric_gradient(loss, x)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=tolerance)


def check_param_gradient(layer, x, tolerance=1e-5):
    rng = np.random.default_rng(1)
    out = layer.forward(x, training=True)
    readout = rng.normal(size=out.shape)
    layer.backward(readout)
    analytic = {k: v.copy() for k, v in layer.grads().items()}
    for name, param in layer.params().items():
        def loss():
            return float((layer.forward(x, training=False) * readout).sum())
        numeric = numeric_gradient(loss, param)
        np.testing.assert_allclose(
            analytic[name], numeric, rtol=1e-4, atol=tolerance,
            err_msg=f"param {name}",
        )


#: Every layer whose backward reads state its forward kept, with an input shape.
STATEFUL_LAYERS = {
    "dense": (lambda rng: Dense(4, 3, rng), (5, 4)),
    "relu": (lambda rng: ReLU(), (5, 4)),
    "conv1d": (lambda rng: Conv1D(2, 3, 3, 2, rng), (2, 11, 2)),
    "maxpool1d": (lambda rng: MaxPool1D(3), (2, 10, 4)),
    "lstm": (lambda rng: LSTM(2, 3, rng), (2, 4, 2)),
}


@pytest.mark.parametrize("name", sorted(STATEFUL_LAYERS))
def test_backward_after_an_inference_forward_raises(rng, name):
    """An inference forward drops what an earlier training forward kept."""
    make, shape = STATEFUL_LAYERS[name]
    layer = make(rng)
    x = rng.normal(size=shape)
    out = layer.forward(x.copy(), training=True)
    layer.forward(x.copy(), training=False)
    with pytest.raises(RuntimeError, match="before a training forward"):
        layer.backward(np.ones_like(out))


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng)
        assert layer.forward(np.ones((5, 4))).shape == (5, 3)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        check_input_gradient(layer, rng.normal(size=(5, 4)))

    def test_param_gradients(self, rng):
        layer = Dense(4, 3, rng)
        check_param_gradient(layer, rng.normal(size=(5, 4)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng).backward(np.ones((1, 2)))

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert list(out[0]) == [0.0, 0.0, 2.0]

    def test_gradient_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert list(grad[0]) == [0.0, 5.0]

    def test_forward_and_backward_overwrite_their_argument(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, NAN, 2.0]])
        assert layer.forward(x, training=True) is x
        assert_same_bits(x, np.array([[-0.0, 0.0, NAN, 2.0]]))
        grad = np.array([[5.0, -5.0, 5.0, -5.0]])
        assert layer.backward(grad) is grad
        assert_same_bits(grad, np.array([[0.0, -0.0, 0.0, -5.0]]))

    def test_matches_reference(self, rng):
        x = np.where(rng.random((3, 7, 4)) < 0.2, NAN, rng.normal(size=(3, 7, 4)))
        grad = rng.normal(size=x.shape)
        layer, reference = ReLU(), ReferenceReLU()
        assert_same_bits(layer.forward(x.copy(), training=True), reference.forward(x))
        assert_same_bits(layer.backward(grad.copy()), reference.backward(grad))


class TestDropout:
    def test_inference_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_some(self, rng):
        layer = Dropout(0.5, rng)
        out = layer.forward(np.ones((10, 50)), training=True)
        zero_fraction = np.mean(out == 0)
        assert 0.3 < zero_fraction < 0.7

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.7, rng)
        out = layer.forward(np.ones((50, 200)), training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, rng)
        out = layer.forward(np.ones((4, 8)), training=True)
        grad = layer.backward(np.ones((4, 8)))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_rate_validated(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestConv1D:
    def test_output_length(self, rng):
        layer = Conv1D(1, 2, kernel_size=8, stride=3, rng=rng)
        assert layer.output_length(32) == 9

    def test_forward_shape(self, rng):
        layer = Conv1D(2, 5, kernel_size=4, stride=2, rng=rng)
        out = layer.forward(rng.normal(size=(3, 20, 2)))
        assert out.shape == (3, 9, 5)

    def test_known_convolution(self, rng):
        layer = Conv1D(1, 1, kernel_size=2, stride=1, rng=rng)
        layer.W[:] = np.array([[1.0], [2.0]])  # w = [1, 2]
        layer.b[:] = 0.5
        x = np.array([[[1.0], [2.0], [3.0]]])
        out = layer.forward(x)
        # windows [1,2] -> 1+4=5, [2,3] -> 2+6=8; +bias
        np.testing.assert_allclose(out[0, :, 0], [5.5, 8.5])

    def test_input_gradient(self, rng):
        layer = Conv1D(2, 3, kernel_size=3, stride=2, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 11, 2)))

    def test_param_gradients(self, rng):
        layer = Conv1D(2, 3, kernel_size=3, stride=2, rng=rng)
        check_param_gradient(layer, rng.normal(size=(2, 11, 2)))

    def test_too_short_input_rejected(self, rng):
        layer = Conv1D(1, 1, kernel_size=8, stride=1, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 4, 1)))

    def test_channel_mismatch_rejected(self, rng):
        layer = Conv1D(2, 1, kernel_size=2, stride=1, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 10, 3)))


class TestMaxPool1D:
    def test_forward(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0], [3.0], [2.0], [5.0], [9.0]]])
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, :, 0], [3.0, 5.0])  # 9 cropped

    def test_gradient_routes_to_argmax(self):
        layer = MaxPool1D(2)
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[10.0], [20.0]]]))
        np.testing.assert_allclose(grad[0, :, 0], [0.0, 10.0, 0.0, 20.0])

    def test_input_gradient_numeric(self, rng):
        layer = MaxPool1D(3)
        check_input_gradient(layer, rng.normal(size=(2, 10, 4)))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            MaxPool1D(4).forward(np.ones((1, 3, 1)))

    def test_index_is_the_smallest_unsigned_dtype(self):
        x = np.ones((1, 600, 2))
        for pool, dtype in ((1, np.uint8), (4, np.uint8), (256, np.uint8), (300, np.uint16)):
            layer = MaxPool1D(pool)
            layer.forward(x, training=True)
            assert layer._argmax.dtype == dtype


def route(block):
    """Input gradient of one pooled block given an output gradient of 1."""
    layer = MaxPool1D(len(block))
    layer.forward(np.array(block, dtype=float)[None, :, None], training=True)
    return layer.backward(np.ones((1, 1, 1)))[0, :, 0]


class TestMaxPool1DRouting:
    """The gradient of a block goes to its first maximum, as argmax picks
    it; every other position gets +0.0."""

    @pytest.mark.parametrize(
        "block, first",
        [
            ([-0.0, -0.0, -0.0, -0.0], 0),
            ([-1.0, -0.0, 0.0, -0.0], 1),
            ([0.0, -0.0], 0),
            ([1.0, 3.0, 2.0, 3.0], 1),
            ([1.0, NAN, 2.0, NAN], 1),
            ([NAN, 5.0, INF], 0),
            ([-INF, -INF, -INF], 0),
            ([-INF, -5.0, -INF], 1),
            ([2.0, INF, INF, 1.0], 1),
        ],
        ids=[
            "all-negative-zero", "negative-positive-zero-tie", "positive-zero-first",
            "equal-positives", "nan-block", "nan-before-inf", "all-negative-inf",
            "finite-among-negative-inf", "inf-tie",
        ],
    )
    def test_gradient_goes_to_the_first_maximum(self, block, first):
        assert int(np.argmax(block)) == first
        expected = np.zeros(len(block))
        expected[first] = 1.0
        assert_same_bits(route(block), expected)

    def test_nan_block_outputs_nan_and_other_blocks_keep_routing(self):
        layer = MaxPool1D(2)
        x = np.array([[[NAN], [1.0], [-0.0], [0.0], [3.0], [3.0]]])
        out = layer.forward(x, training=True)
        assert np.isnan(out[0, 0, 0]) and out[0, 2, 0] == 3.0
        grad = layer.backward(np.array([[[5.0], [6.0], [7.0]]]))
        assert_same_bits(grad[0, :, 0], np.array([5.0, 0.0, 6.0, 0.0, 7.0, 0.0]))

    def test_pool_size_one_is_identity(self, rng):
        layer = MaxPool1D(1)
        x = rng.normal(size=(2, 5, 3))
        x[0, 0, 0] = -0.0
        assert_same_bits(layer.forward(x, training=True), x)
        grad = rng.normal(size=x.shape)
        assert_same_bits(layer.backward(grad), grad)

    def test_cropped_remainder_gets_positive_zero_gradient(self, rng):
        layer = MaxPool1D(3)
        x = rng.normal(size=(2, 8, 4))
        out = layer.forward(x, training=True)
        dx = layer.backward(rng.normal(size=out.shape))
        assert_same_bits(dx[:, 6:], np.zeros((2, 2, 4)))

    @pytest.mark.parametrize("pool", [1, 2, 3, 4, 5])
    def test_matches_reference(self, rng, pool):
        values = np.array([-0.0, 0.0, 1.0, -1.0, INF, -INF])
        for x in (rng.choice(values, size=(3, 4 * pool + 2, 5)), rng.normal(size=(3, 13, 5))):
            layer, reference = MaxPool1D(pool), ReferenceMaxPool1D(pool)
            assert_same_bits(layer.forward(x, training=True), reference.forward(x))
            grad = rng.normal(size=(3, x.shape[1] // pool, 5))
            assert_same_bits(layer.backward(grad), reference.backward(grad))


class TestConv1DMatchesReference:
    @pytest.mark.parametrize("stride", [2, 3, 5], ids=["below", "at", "above"])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_forward_and_backward(self, stride, channels):
        layer = Conv1D(channels, 6, 3, stride, np.random.default_rng(9))
        reference = ReferenceConv1D(channels, 6, 3, stride, np.random.default_rng(9))
        rng = np.random.default_rng([stride, channels])
        x = rng.normal(size=(3, 20, channels))
        assert_same_bits(layer.forward(x, training=True), reference.forward(x))
        grad = rng.normal(size=(3, layer.output_length(20), 6))
        assert_same_bits(layer.backward(grad), reference.backward(grad))
        assert_same_bits(layer.grads(), reference.grads())
