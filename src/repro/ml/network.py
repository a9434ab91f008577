"""Sequential network container: the spine of the paper's CNN+LSTM.

:class:`Sequential` chains :class:`~repro.ml.layers.Layer` objects,
fuses them with :class:`~repro.ml.losses.SoftmaxCrossEntropy`, and
exposes the flat ``{(layer_index, name): array}`` parameter/gradient
dicts the optimizers consume.  ``snapshot()``/``restore()`` give the
trainer its early-stopping rollback ("train until validation accuracy
starts decreasing", §4.1) without any serialization machinery.

>>> import numpy as np
>>> from repro.ml.layers import Dense
>>> net = Sequential([Dense(3, 2, rng=np.random.default_rng(0))])
>>> net.predict_proba(np.zeros((4, 3))).shape
(4, 2)
>>> saved = net.snapshot()
>>> net.restore(saved)   # parameters written back in place
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence

import numpy as np

from repro.ml.layers import Layer
from repro.ml.losses import SoftmaxCrossEntropy, softmax
from repro.ml.optim import Optimizer, ParamKey


class Sequential:
    """A stack of layers trained with softmax cross-entropy."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss = SoftmaxCrossEntropy()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """The last layer's output; ``x`` itself is never written.

        The first layer gets a copy of ``x``, so every array a layer is
        handed belongs to the chain (see :class:`~repro.ml.layers.Layer`).
        """
        x = np.array(x)
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities, computed in inference mode."""
        outputs = []
        for start in range(0, len(x), batch_size):
            logits = self.forward(x[start : start + batch_size], training=False)
            outputs.append(softmax(logits))
        return np.concatenate(outputs)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def train_batch(self, x: np.ndarray, labels: np.ndarray, optimizer: Optimizer) -> float:
        """One optimization step; returns the batch loss.

        The first layer computes its parameter gradients only: the
        gradient with respect to the batch is never read.
        """
        logits = self.forward(x, training=True)
        loss_value = self.loss.forward(logits, labels)
        grad = self.loss.backward()
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward_params(grad)
        optimizer.step(self.parameters(), self.gradients())
        return loss_value

    def parameters(self) -> Dict[ParamKey, np.ndarray]:
        return {
            (i, name): array
            for i, layer in enumerate(self.layers)
            for name, array in layer.params().items()
        }

    def gradients(self) -> Dict[ParamKey, np.ndarray]:
        return {
            (i, name): array
            for i, layer in enumerate(self.layers)
            for name, array in layer.grads().items()
        }

    def snapshot(self) -> Dict[ParamKey, np.ndarray]:
        """Deep copy of all parameters (for early-stopping restore)."""
        return {key: array.copy() for key, array in self.parameters().items()}

    def restore(self, snapshot: Dict[ParamKey, np.ndarray]) -> None:
        """Load parameters saved by :meth:`snapshot` (in place)."""
        params = self.parameters()
        if set(params) != set(snapshot):
            raise ValueError("snapshot does not match this network's parameters")
        for key, array in params.items():
            array[...] = snapshot[key]
