"""Gradient-descent optimizers.

The paper trains with Adam at learning rate 0.001 (footnote 2); plain
SGD with momentum is provided for tests and ablations.  Optimizers
mutate parameter arrays in place, keyed by ``(layer_index, name)`` so
state survives across steps.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple

import numpy as np

ParamKey = Tuple[int, str]


class Optimizer(abc.ABC):
    """Updates parameters given same-shaped gradients."""

    @abc.abstractmethod
    def step(self, params: Dict[ParamKey, np.ndarray], grads: Dict[ParamKey, np.ndarray]) -> None:
        """Apply one update in place."""


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: Dict[ParamKey, np.ndarray] = {}

    def step(self, params, grads) -> None:
        for key, param in params.items():
            grad = grads[key]
            if self.momentum:
                v = self._velocity.setdefault(key, np.zeros_like(param))
                v *= self.momentum
                v -= self.learning_rate * grad
                param += v
            else:
                param -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction; the paper's optimizer."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: Dict[ParamKey, np.ndarray] = {}
        self._v: Dict[ParamKey, np.ndarray] = {}
        self._scratch: Dict[ParamKey, Tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def step(self, params, grads) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for key, param in params.items():
            grad = grads[key]
            m = self._m.setdefault(key, np.zeros_like(param))
            v = self._v.setdefault(key, np.zeros_like(param))
            if key not in self._scratch:
                self._scratch[key] = (np.empty_like(param), np.empty_like(param))
            a, b = self._scratch[key]
            # m += (1 - beta1) * grad
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=a)
            # v += (1 - beta2) * grad * grad
            v *= self.beta2
            np.multiply(1.0 - self.beta2, grad, out=a)
            v += np.multiply(a, grad, out=a)
            # param -= learning_rate * (m / bias1) / (sqrt(v / bias2) + epsilon)
            np.divide(m, bias1, out=a)
            np.multiply(self.learning_rate, a, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += self.epsilon
            param -= np.divide(a, b, out=a)
