"""Neural-network layers implemented on numpy.

The paper's classifier (footnote 2) is a CNN+LSTM: two pairs of Conv1D
(256 filters, stride 3, ReLU) + MaxPool1D (pool 4), an LSTM (32 units),
Dropout (0.7) and a softmax classification layer, trained with Adam.
This module provides every feed-forward layer; the recurrent layer
lives in :mod:`repro.ml.lstm`.

Conventions: inputs are ``(batch, time, channels)`` for temporal layers
and ``(batch, features)`` for dense layers.  Each layer implements
``forward(x, training)`` and ``backward(grad)`` (which must be called
after a training forward pass and returns the gradient w.r.t. the
input), and exposes trainable arrays via ``params()`` / ``grads()``.
Array ownership is set out on :class:`Layer`.
"""

from __future__ import annotations

import abc
from typing import Dict

import numpy as np


class Layer(abc.ABC):
    """Base class for all layers.

    Ownership: inside :class:`~repro.ml.network.Sequential` every
    activation and gradient handed to a layer belongs to the chain, so a
    layer may overwrite the array it is handed and return it, as
    ``ReLU`` does forward and backward.  That is safe because no layer
    keeps an array it returns, whether it computed it or passed its
    input through (``Dropout`` at inference): the array is the chain's,
    read by the next layer only.  After a training forward a layer may
    keep an input it does not return (``Dense``, ``Conv1D`` and ``LSTM``
    do, for ``backward``); an inference forward keeps nothing that only
    ``backward`` reads, so ``backward`` after one raises
    ``RuntimeError``.  ``Sequential`` hands its first layer a copy of
    the caller's input, so the caller's array to ``forward`` or
    ``predict_proba`` is never written.
    """

    @abc.abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch."""

    @abc.abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad`` (d-loss/d-output) to d-loss/d-input."""

    def backward_params(self, grad: np.ndarray) -> None:
        """Only the parameter gradients of :meth:`backward`, for a first
        layer whose input gradient nobody reads."""
        self.backward(grad)

    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameter arrays, by name."""
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :meth:`params`, valid after ``backward``."""
        return {}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        if in_features < 1 or out_features < 1:
            raise ValueError("dense dimensions must be positive")
        self.W = _glorot(rng, in_features, out_features, (in_features, out_features))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward")
        self.dW = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.W.T

    def params(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"W": self.dW, "b": self.db}


class ReLU(Layer):
    """Elementwise rectifier, ``x * (x > 0)``, written into its argument.

    Forward overwrites the activation it is handed and backward the
    gradient (see :class:`Layer` on ownership); each returns its
    argument.  Negatives become ``-0.0``.
    """

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.multiply(x, mask, out=x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward")
        return np.multiply(grad, self._mask, out=grad)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad if self._mask is None else grad * self._mask


class Conv1D(Layer):
    """1-D valid convolution over ``(batch, time, channels)`` input."""

    def __init__(
        self,
        in_channels: int,
        filters: int,
        kernel_size: int,
        stride: int,
        rng: np.random.Generator,
    ):
        if min(in_channels, filters, kernel_size, stride) < 1:
            raise ValueError("conv parameters must be positive")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        fan_in = in_channels * kernel_size
        self.W = _glorot(rng, fan_in, filters, (fan_in, filters))
        self.b = np.zeros(filters)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._patches: np.ndarray | None = None
        self._in_shape: tuple | None = None

    def output_length(self, in_length: int) -> int:
        if in_length < self.kernel_size:
            raise ValueError(
                f"input length {in_length} shorter than kernel {self.kernel_size}"
            )
        return (in_length - self.kernel_size) // self.stride + 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, length, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        l_out = self.output_length(length)
        windows = np.lib.stride_tricks.sliding_window_view(x, self.kernel_size, axis=1)
        windows = windows[:, :: self.stride][:, :l_out]  # (n, l_out, C, K)
        patches = windows.reshape(n, l_out, channels * self.kernel_size)
        self._patches = patches if training else None
        self._in_shape = x.shape
        out = patches @ self.W
        out += self.b
        return out

    def backward_params(self, grad: np.ndarray) -> None:
        if self._patches is None or self._in_shape is None:
            raise RuntimeError("backward called before a training forward")
        flat_patches = self._patches.reshape(-1, self.W.shape[0])
        flat_grad = grad.reshape(-1, self.filters)
        self.dW = flat_patches.T @ flat_grad
        self.db = flat_grad.sum(axis=0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.backward_params(grad)
        n, l_out, _ = grad.shape
        flat_grad = grad.reshape(-1, self.filters)
        d_patches = (flat_grad @ self.W.T).reshape(
            n, l_out, self.in_channels, self.kernel_size
        )
        # col2im: tap k of output step t read input step t * stride + k.
        dx = np.zeros(self._in_shape)
        span = (l_out - 1) * self.stride + 1
        for k in range(self.kernel_size):
            dx[:, k : k + span : self.stride] += d_patches[:, :, :, k]
        return dx

    def params(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"W": self.dW, "b": self.db}


class MaxPool1D(Layer):
    """Non-overlapping temporal max pooling; trailing remainder is cropped.

    The gradient of a block goes to its first maximum, as ``argmax``
    picks it: ``-0.0`` and ``+0.0`` tie, and a NaN is the maximum of its
    block.  Only a training forward finds those positions, so only a
    training forward can be followed by ``backward``.
    """

    def __init__(self, pool_size: int):
        if pool_size < 1:
            raise ValueError(f"pool size must be positive, got {pool_size}")
        self.pool_size = pool_size
        #: Smallest unsigned dtype holding a position in a block.
        self._index_dtype = np.min_scalar_type(pool_size - 1)
        self._argmax: np.ndarray | None = None
        self._in_shape: tuple | None = None

    def output_length(self, in_length: int) -> int:
        out = in_length // self.pool_size
        if out < 1:
            raise ValueError(
                f"input length {in_length} shorter than pool {self.pool_size}"
            )
        return out

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, length, channels = x.shape
        l_out = self.output_length(length)
        cropped = x[:, : l_out * self.pool_size]
        blocks = cropped.reshape(n, l_out, self.pool_size, channels)
        out = blocks.max(axis=2)
        self._in_shape = x.shape
        if not training:
            self._argmax = None
        elif np.isnan(out).any():
            # A NaN equals nothing, so only argmax finds the first one.
            self._argmax = blocks.argmax(axis=2).astype(self._index_dtype)
        else:
            # The first maximum's position is the number of leading
            # positions that differ from the block max; the last position
            # needs no comparison.
            first = np.zeros(out.shape, self._index_dtype)
            before = np.ones(out.shape, dtype=bool)
            differs = np.empty(out.shape, dtype=bool)
            for j in range(self.pool_size - 1):
                before &= np.not_equal(blocks[:, :, j], out, out=differs)
                first += before
            self._argmax = first
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._in_shape is None:
            raise RuntimeError("backward called before a training forward")
        n, l_out, channels = grad.shape
        length = self._in_shape[1]
        block = self.pool_size * channels
        # Flat position in the input of each block's first maximum.
        flat = np.multiply(self._argmax, channels, dtype=np.intp)
        flat += np.arange(channels)
        flat += np.arange(0, l_out * block, block)[:, None]
        flat += np.arange(0, n * length * channels, length * channels)[:, None, None]
        dx = np.zeros(self._in_shape)
        dx.put(flat, grad)
        return dx
