"""The ``ml.network`` oracle passes on the shipped kernels and catches
broken ones.

Each mutation is monkeypatched into a shipped layer only; the retained
references in ``repro.ml.layers_ref`` override the patched methods, so
the two sides diverge exactly where the mutation does.
"""

import numpy as np
import pytest

import repro.verify.oracles  # noqa: F401 - registers the oracles
from repro.ml.layers import Conv1D, MaxPool1D, ReLU
from repro.ml.layers_ref import ReferenceConv1D, ReferenceMaxPool1D, ReferenceReLU, as_reference
from repro.ml.network import Sequential
from repro.ml.optim import _CHUNK, Adam
from repro.verify.oracle import Case, get_oracle
from repro.verify.shrink import shrink

SMALL = Case(seed=0, sites=1, traces=1, horizon_ms=100.0)


def run(case=SMALL):
    return get_oracle("ml.network").run_case(case)


def positive_zero(self, x, training=False):
    """A rectifier that emits +0.0 where ``ReLU`` emits -0.0."""
    self._mask = x > 0
    return np.maximum(x, 0.0)


class TestPasses:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_default_cases(self, seed):
        assert run(Case(seed=seed)) is None

    @pytest.mark.parametrize(
        "case",
        [
            Case(seed=4, sites=1, traces=1, horizon_ms=50.0),
            Case(seed=5, sites=1, traces=1, horizon_ms=0.5),
            Case(seed=6, sites=4, traces=5, horizon_ms=1000.0),
        ],
        ids=["shrinker-floor", "shortest-input", "wide"],
    )
    def test_every_case_shape_is_a_valid_network(self, case):
        assert run(case) is None


class TestAsReference:
    def test_switches_kernels_and_keeps_state(self, rng):
        conv = Conv1D(2, 3, 4, 2, rng)
        weights = conv.W
        assert as_reference(conv) is conv
        assert type(conv) is ReferenceConv1D and conv.W is weights
        assert type(as_reference(MaxPool1D(2))) is ReferenceMaxPool1D
        assert type(as_reference(ReLU())) is ReferenceReLU


class TestCatchesBrokenKernels:
    def test_pool_routing_ties_to_the_last_maximum_fails(self, monkeypatch):
        forward = MaxPool1D.forward

        def last_maximum(self, x, training=False):
            out = forward(self, x, training)
            if not training:
                return out  # an inference forward routes nothing
            n, length, channels = x.shape
            blocks = x[:, : out.shape[1] * self.pool_size].reshape(
                n, out.shape[1], self.pool_size, channels
            )
            from_end = blocks[:, :, ::-1].argmax(axis=2)
            self._argmax = (self.pool_size - 1 - from_end).astype(self._argmax.dtype)
            return out

        monkeypatch.setattr(MaxPool1D, "forward", last_maximum)
        failure = run()
        assert failure is not None
        # A block of the first ReLU's -0.0 sends its gradient to another
        # position, which the ReLU's backward turns into a zero of the
        # gradient's sign there.
        assert failure.startswith("$.network.steps[0].input_grads[1]")

    def test_relu_emitting_positive_zero_fails(self, monkeypatch):
        """Only the sign of the rectified zeros differs."""
        monkeypatch.setattr(ReLU, "forward", positive_zero)
        failure = run()
        assert failure is not None
        assert failure.startswith("$.network.activations[1]")
        assert "-0.0" in failure

    def test_one_perturbed_gradient_element_fails(self, monkeypatch):
        backward = Conv1D.backward

        def nudged(self, grad):
            dx = backward(self, grad)
            self.dW[0, 0] = np.nextafter(self.dW[0, 0], np.inf)
            return dx

        monkeypatch.setattr(Conv1D, "backward", nudged)
        failure = run()
        assert failure is not None
        assert failure.startswith("$.conv.channels=1 stride=2.dW")
        assert "(1 of 12 elements differ)" in failure

    def test_train_batch_without_first_layer_gradients_fails(self, monkeypatch):
        def skips_first_layer(self, x, labels, optimizer):
            loss = self.loss.forward(self.forward(x, training=True), labels)
            grad = self.loss.backward()
            for layer in reversed(self.layers[1:]):
                grad = layer.backward(grad)
            optimizer.step(self.parameters(), self.gradients())
            return loss

        monkeypatch.setattr(Sequential, "train_batch", skips_first_layer)
        failure = run()
        assert failure is not None
        assert failure.startswith("$.network.train_batch[0].grads.0.W")

    def test_adam_dropping_the_last_element_of_a_full_chunk_fails(self, monkeypatch):
        """The small network's parameters fit in one partial chunk; only
        the chunk-edge probes reach a full one."""
        update = Adam._update

        def short_by_one(self, *arrays_and_biases):
            *arrays, bias1, bias2 = arrays_and_biases
            n = len(arrays[0]) - (len(arrays[0]) == _CHUNK)
            update(self, *(array[:n] for array in arrays), bias1, bias2)

        monkeypatch.setattr(Adam, "_update", short_by_one)
        failure = run()
        assert failure is not None
        assert failure.startswith(f"$.adam.0.size={_CHUNK}: first mismatch at element {_CHUNK - 1}")

    def test_failure_shrinks_to_the_floor(self, monkeypatch):
        monkeypatch.setattr(ReLU, "forward", positive_zero)
        result = shrink("ml.network", Case(seed=0))
        assert (result.shrunk.sites, result.shrunk.traces) == (1, 1)
        assert result.shrunk.horizon_ms == 50.0
