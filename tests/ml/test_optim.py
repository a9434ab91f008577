"""Tests for optimizers."""

import numpy as np
import pytest

from repro.ml.layers_ref import ReferenceAdam
from repro.ml.optim import SGD, Adam
from repro.verify.compare import diff_structures


def forbid_allocation(monkeypatch):
    """Make any further optimizer-state allocation fail the test."""

    def allocate(*args, **kwargs):
        raise AssertionError("optimizer state allocated after the first step")

    monkeypatch.setattr(np, "zeros_like", allocate)
    monkeypatch.setattr(np, "empty_like", allocate)


def quadratic_descent(optimizer, steps=300, start=5.0):
    """Minimize f(x) = x^2 with the given optimizer; return final |x|."""
    x = np.array([start])
    for _ in range(steps):
        grad = 2 * x
        optimizer.step({(0, "x"): x}, {(0, "x"): grad})
    return abs(float(x[0]))


class TestSGD:
    def test_descends_quadratic(self):
        assert quadratic_descent(SGD(learning_rate=0.1)) < 1e-3

    def test_momentum_accelerates(self):
        slow = quadratic_descent(SGD(learning_rate=0.01), steps=50)
        fast = quadratic_descent(SGD(learning_rate=0.01, momentum=0.9), steps=50)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0)
        with pytest.raises(ValueError):
            SGD(learning_rate=0.1, momentum=1.0)

    def test_updates_in_place(self):
        x = np.array([1.0])
        SGD(learning_rate=0.5).step({(0, "x"): x}, {(0, "x"): np.array([1.0])})
        assert x[0] == 0.5

    def test_velocity_allocated_on_first_step_only(self, monkeypatch):
        x = np.array([1.0, 2.0])
        sgd = SGD(learning_rate=0.1, momentum=0.9)
        sgd.step({(0, "x"): x}, {(0, "x"): np.array([1.0, -1.0])})
        forbid_allocation(monkeypatch)
        sgd.step({(0, "x"): x}, {(0, "x"): np.array([1.0, -1.0])})
        assert x[0] < 1.0 and x[1] > 2.0


class TestAdam:
    def test_descends_quadratic(self):
        assert quadratic_descent(Adam(learning_rate=0.1), steps=500) < 1e-3

    def test_default_lr_is_paper_value(self):
        assert Adam().learning_rate == 0.001

    def test_first_step_size_near_lr(self):
        """Bias correction: the first Adam step is ~learning_rate."""
        x = np.array([10.0])
        Adam(learning_rate=0.01).step({(0, "x"): x}, {(0, "x"): np.array([4.0])})
        assert abs(10.0 - x[0]) == pytest.approx(0.01, rel=1e-3)

    def test_scale_invariance(self):
        """Adam's step is (almost) invariant to gradient magnitude."""
        x_small = np.array([1.0])
        x_big = np.array([1.0])
        adam_a, adam_b = Adam(learning_rate=0.1), Adam(learning_rate=0.1)
        for _ in range(5):
            adam_a.step({(0, "x"): x_small}, {(0, "x"): np.array([1e-3])})
            adam_b.step({(0, "x"): x_big}, {(0, "x"): np.array([1e3])})
        assert x_small[0] == pytest.approx(x_big[0], abs=1e-4)

    def test_state_keyed_per_parameter(self):
        x, y = np.array([1.0]), np.array([1.0])
        adam = Adam(learning_rate=0.1)
        adam.step({(0, "x"): x, (1, "x"): y}, {(0, "x"): np.array([1.0]), (1, "x"): np.array([-1.0])})
        assert x[0] < 1.0 < y[0]

    def test_state_allocated_on_first_step_only(self, monkeypatch):
        """m, v and the scratch buffers are made once per parameter."""
        x = np.array([1.0, 2.0])
        adam = Adam(learning_rate=0.1)
        adam.step({(0, "x"): x}, {(0, "x"): np.array([1.0, -1.0])})
        forbid_allocation(monkeypatch)
        adam.step({(0, "x"): x}, {(0, "x"): np.array([1.0, -1.0])})
        assert x[0] < 1.0 and x[1] > 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=-1)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)

    def test_matches_reference_bit_for_bit_in_place(self):
        rng = np.random.default_rng(3)
        shapes = {(0, "W"): (6, 4), (0, "b"): (4,), (2, "W"): (4, 3)}
        params = {key: rng.normal(size=shape) for key, shape in shapes.items()}
        expected = {key: array.copy() for key, array in params.items()}
        arrays = dict(params)
        adam, reference = Adam(learning_rate=0.01), ReferenceAdam(learning_rate=0.01)
        for _ in range(6):
            grads = {key: rng.normal(size=shape) for key, shape in shapes.items()}
            grads[(0, "b")][:2] = (0.0, -0.0)
            untouched = {key: array.copy() for key, array in grads.items()}
            adam.step(params, grads)
            reference.step(expected, grads)
            assert diff_structures(params, expected, mode="bit") is None
            assert diff_structures(grads, untouched, mode="bit") is None
        assert all(params[key] is arrays[key] for key in shapes)
