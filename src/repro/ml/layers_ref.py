"""Retained reference implementations of the ml hot paths.

:class:`~repro.ml.layers.MaxPool1D` finds each block's first maximum by
comparing positions with the block max and scatters its gradient through
one flat index; :class:`~repro.ml.layers.Conv1D` folds patch gradients
back onto its input through strided slices and adds its bias in place;
:class:`~repro.ml.optim.Adam` updates in place, chunk by chunk, through
two scratch arrays per parameter; :class:`~repro.ml.layers.ReLU`
rectifies the array it is handed.  This module keeps the code those
kernels replaced alive as an executable specification: a strided
``argmax`` and a ``meshgrid`` scatter for pooling, an index-array
col2im for the convolution, out-of-place arithmetic for Adam, and a
:class:`ReferenceReLU` that returns a new array, each exactly as it was
written (``np.maximum(x, 0.0)`` would emit ``+0.0`` where these
rectifiers emit ``-0.0``).

Each class subclasses the shipped layer and overrides only the methods
that differ, so construction, parameters and gradients are shared.  The
two implementations must agree **bit-for-bit** on every loss, gradient,
parameter, activation and prediction: that is the ``ml.network``
differential oracle in :mod:`repro.verify`.

:class:`ReferenceSoftmaxRegression` keeps the training loop that
:class:`~repro.ml.linear.SoftmaxRegression` ran before it trained in
place: separate ``W`` and ``b``, every intermediate a fresh array and
one Adam update per parameter.  The ``ml.linear`` oracle holds the two
to the same bits on ``W``, ``b`` and ``predict_proba``.

:class:`ReferenceFeatureExtractor` keeps the transform that
:class:`~repro.ml.features.FeatureExtractor` ran before it passed over
each row once: one expression per feature block, so the row mean is
taken twice, ``np.std`` centres the rows a second time, ``abs`` and the
energy normalization allocate whole new matrices.  The ``ml.features``
oracle holds the two to the same bits.

Nothing here is exported through ``repro.ml``'s public surface; the
verify harness and its tests are the only intended consumers.
"""

from __future__ import annotations

import numpy as np

from repro.ml.features import FeatureExtractor, mean_pool
from repro.ml.layers import Conv1D, Layer, MaxPool1D, ReLU
from repro.ml.linear import SoftmaxRegression
from repro.ml.losses import softmax
from repro.ml.optim import Adam


class ReferenceConv1D(Conv1D):
    """Conv1D with an out-of-place bias and an index-array col2im."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, length, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        l_out = self.output_length(length)
        windows = np.lib.stride_tricks.sliding_window_view(x, self.kernel_size, axis=1)
        windows = windows[:, :: self.stride][:, :l_out]  # (n, l_out, C, K)
        patches = windows.reshape(n, l_out, channels * self.kernel_size)
        self._patches = patches
        self._in_shape = x.shape
        return patches @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._patches is None or self._in_shape is None:
            raise RuntimeError("backward called before forward")
        n, l_out, _ = grad.shape
        flat_patches = self._patches.reshape(-1, self.W.shape[0])
        flat_grad = grad.reshape(-1, self.filters)
        self.dW = flat_patches.T @ flat_grad
        self.db = flat_grad.sum(axis=0)
        d_patches = (flat_grad @ self.W.T).reshape(
            n, l_out, self.in_channels, self.kernel_size
        )
        dx = np.zeros(self._in_shape)
        for k in range(self.kernel_size):
            positions = np.arange(l_out) * self.stride + k
            dx[:, positions, :] += d_patches[:, :, :, k]
        return dx


class ReferenceMaxPool1D(MaxPool1D):
    """MaxPool1D with an ``argmax`` forward and a ``meshgrid`` scatter."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, length, channels = x.shape
        l_out = self.output_length(length)
        cropped = x[:, : l_out * self.pool_size]
        blocks = cropped.reshape(n, l_out, self.pool_size, channels)
        self._argmax = blocks.argmax(axis=2)
        self._in_shape = x.shape
        return blocks.max(axis=2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._in_shape is None:
            raise RuntimeError("backward called before forward")
        n, l_out, channels = grad.shape
        blocks = np.zeros((n, l_out, self.pool_size, channels))
        n_idx, t_idx, c_idx = np.meshgrid(
            np.arange(n), np.arange(l_out), np.arange(channels), indexing="ij"
        )
        blocks[n_idx, t_idx, self._argmax, c_idx] = grad
        dx = np.zeros(self._in_shape)
        dx[:, : l_out * self.pool_size] = blocks.reshape(n, l_out * self.pool_size, channels)
        return dx


class ReferenceReLU(ReLU):
    """The rectifier as written: ``x * (x > 0)``, so negatives give ``-0.0``."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad * self._mask


class ReferenceAdam(Adam):
    """Adam with every intermediate a fresh array."""

    def step(self, params, grads) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for key, param in params.items():
            grad = grads[key]
            m, v, _, _ = self._slots(key, param)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class ReferenceSoftmaxRegression(SoftmaxRegression):
    """Softmax regression trained by the out-of-place loop, as written."""

    def _train(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, d = x.shape
        rng = np.random.default_rng(self.seed)
        self.W = rng.normal(0.0, 0.01, size=(d, self.n_classes))
        self.b = np.zeros(self.n_classes)
        onehot = np.zeros((n, self.n_classes))
        onehot[np.arange(n), y] = 1.0
        m_w = np.zeros_like(self.W)
        v_w = np.zeros_like(self.W)
        m_b = np.zeros_like(self.b)
        v_b = np.zeros_like(self.b)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.epochs + 1):
            probs = softmax(x @ self.W + self.b)
            grad_logits = (probs - onehot) / n
            grad_w = x.T @ grad_logits + self.l2 * self.W
            grad_b = grad_logits.sum(axis=0)
            for param, grad, m, v in (
                (self.W, grad_w, m_w, v_w),
                (self.b, grad_b, m_b, v_b),
            ):
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        return self.W, self.b


class ReferenceFeatureExtractor(FeatureExtractor):
    """The feature transform with one expression per feature block."""

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (n, length), got {x.shape}")
        shape = mean_pool(x, self.shape_bins)
        diffs = np.abs(np.diff(x, axis=1))
        if diffs.shape[1] == 0:
            diffs = np.zeros((len(x), 1))
        diff_pooled = mean_pool(diffs, self.diff_bins)
        spectrum = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1))
        spectrum = spectrum / (spectrum.sum(axis=1, keepdims=True) + 1e-12)
        band = spectrum[:, 1 : 1 + 4 * self.fft_bins]
        if band.shape[1] == 0:
            band = np.zeros((len(x), 1))
        fft_feats = mean_pool(band, self.fft_bins)
        stats = np.column_stack(
            [x.mean(axis=1), x.std(axis=1), x.min(axis=1), diffs.mean(axis=1)]
        )
        return np.concatenate([shape, diff_pooled, fft_feats, stats], axis=1)


#: Each shipped layer class and the reference that replaces its kernels.
_REFERENCE_LAYERS = {
    Conv1D: ReferenceConv1D,
    MaxPool1D: ReferenceMaxPool1D,
    ReLU: ReferenceReLU,
}


def as_reference(layer: Layer) -> Layer:
    """``layer`` with its kernels switched, in place, to the reference.

    The layer keeps its state, parameters included; only its class, and
    with it ``forward`` and ``backward``, changes.  A layer with no
    reference is returned as it is.
    """
    reference = _REFERENCE_LAYERS.get(type(layer))
    if reference is not None:
        layer.__class__ = reference
    return layer
