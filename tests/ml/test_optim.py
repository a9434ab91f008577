"""Tests for optimizers."""

import numpy as np
import pytest

from repro.ml.layers_ref import ReferenceAdam
from repro.ml.optim import _CHUNK, Adam
from repro.verify.compare import diff_structures


def forbid_allocation(monkeypatch):
    """Make any further optimizer-state allocation fail the test."""

    def allocate(*args, **kwargs):
        raise AssertionError("optimizer state allocated after the first step")

    for name in ("zeros_like", "empty_like", "zeros", "empty"):
        monkeypatch.setattr(np, name, allocate)


def quadratic_descent(optimizer, steps=300, start=5.0):
    """Minimize f(x) = x^2 with the given optimizer; return final |x|."""
    x = np.array([start])
    for _ in range(steps):
        grad = 2 * x
        optimizer.step({(0, "x"): x}, {(0, "x"): grad})
    return abs(float(x[0]))


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

    @pytest.mark.parametrize(
        "size",
        [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5],
        ids=["one", "chunk-1", "chunk", "chunk+1", "3chunk+5"],
    )
    def test_chunked_update_equals_one_shot(self, size):
        """Every element, the last chunk's included, goes through the same
        operations as in the whole-array reference update."""
        rng = np.random.default_rng(size)
        params = {(0, "W"): rng.normal(size=(size,)), (1, "W"): rng.normal(size=(size, 2))}
        expected = {key: array.copy() for key, array in params.items()}
        adam, reference = Adam(), ReferenceAdam()
        for _ in range(3):
            grads = {key: rng.normal(size=array.shape) for key, array in params.items()}
            grads[(0, "W")][-1] = -0.0
            adam.step(params, grads)
            reference.step(expected, grads)
        assert diff_structures(params, expected, mode="bit") is None

    def test_scratch_is_at_most_one_chunk(self):
        adam = Adam()
        params = {(0, "W"): np.zeros(3 * _CHUNK + 5), (1, "b"): np.zeros(3)}
        adam.step(params, {key: np.ones_like(array) for key, array in params.items()})
        assert [len(adam._state[key][2]) for key in params] == [_CHUNK, 3]

    def test_non_contiguous_parameter_rejected(self):
        param = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            Adam().step({(0, "W"): param}, {(0, "W"): np.ones_like(param)})
