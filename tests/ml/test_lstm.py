"""Gradient and behaviour tests for the LSTM layer."""

import numpy as np
import pytest

from repro.ml.lstm import LSTM
from tests.ml.test_layers import numeric_gradient


class TestLSTMForward:
    def test_output_shape(self, rng):
        layer = LSTM(3, 5, rng)
        out = layer.forward(rng.normal(size=(4, 7, 3)))
        assert out.shape == (4, 5)

    def test_output_bounded(self, rng):
        """h = o * tanh(c) with o in (0,1), so |h| < 1."""
        layer = LSTM(3, 5, rng)
        out = layer.forward(rng.normal(size=(4, 20, 3)) * 10)
        assert np.abs(out).max() < 1.0

    def test_zero_input_near_zero_output(self, rng):
        layer = LSTM(2, 3, rng)
        out = layer.forward(np.zeros((2, 5, 2)))
        assert np.abs(out).max() < 0.1

    def test_channel_mismatch_rejected(self, rng):
        layer = LSTM(2, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 5, 4)))

    def test_forget_bias_initialized_open(self, rng):
        layer = LSTM(2, 4, rng)
        np.testing.assert_array_equal(layer.b[4:8], np.ones(4))

    def test_order_sensitivity(self, rng):
        """An LSTM is not a bag-of-timesteps: order changes the output."""
        layer = LSTM(1, 4, rng)
        x = rng.normal(size=(1, 6, 1))
        out_forward = layer.forward(x)
        out_reversed = layer.forward(x[:, ::-1])
        assert not np.allclose(out_forward, out_reversed)


class TestLSTMGradients:
    def test_input_gradient(self, rng):
        layer = LSTM(2, 3, rng)
        x = rng.normal(size=(2, 4, 2))
        readout = rng.normal(size=(2, 3))
        layer.forward(x, training=True)
        analytic = layer.backward(readout)

        def loss():
            return float((layer.forward(x) * readout).sum())

        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)

    def test_param_gradients(self, rng):
        layer = LSTM(2, 3, rng)
        x = rng.normal(size=(2, 4, 2))
        readout = rng.normal(size=(2, 3))
        layer.forward(x, training=True)
        layer.backward(readout)
        analytic = {k: v.copy() for k, v in layer.grads().items()}
        for name, param in layer.params().items():
            def loss():
                return float((layer.forward(x) * readout).sum())
            numeric = numeric_gradient(loss, param)
            np.testing.assert_allclose(
                analytic[name], numeric, rtol=1e-4, atol=1e-5, err_msg=name
            )

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            LSTM(2, 3, rng).backward(np.ones((1, 3)))
