"""Gradient-descent optimizers.

The paper trains with Adam at learning rate 0.001 (footnote 2).
Optimizers mutate parameter arrays in place, keyed by
``(layer_index, name)`` so state survives across steps.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple

import numpy as np

ParamKey = Tuple[int, str]

#: Elements per chunk of an Adam update.  A chunk's six float64 arrays
#: take 1.5 MB, inside a 2 MB L2 cache; on the paper network's
#: parameters 32768 updated fastest of chunk sizes from 8192 to 131072.
_CHUNK = 32768


class Optimizer(abc.ABC):
    """Updates parameters given same-shaped gradients."""

    @abc.abstractmethod
    def step(self, params: Dict[ParamKey, np.ndarray], grads: Dict[ParamKey, np.ndarray]) -> None:
        """Apply one update in place."""


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction; the paper's optimizer.

    Each parameter is updated in chunks of :data:`_CHUNK` elements, all
    fourteen passes over one chunk before the next, so the chunk's six
    arrays stay in cache between passes.  Every element goes through the
    same operations as in one whole-array update, so the result is the
    same to the bit.
    """

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
        #: Per parameter: first moment m, second moment v and two flat
        #: scratch buffers of at most one chunk, allocated on the
        #: parameter's first step.
        self._state: Dict[ParamKey, Tuple[np.ndarray, ...]] = {}
        self._t = 0

    def _slots(self, key: ParamKey, param: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(m, v, a, b)`` for one parameter, created on its first step."""
        state = self._state.get(key)
        if state is None:
            scratch = min(param.size, _CHUNK)
            state = self._state[key] = (
                np.zeros_like(param),
                np.zeros_like(param),
                np.empty(scratch),
                np.empty(scratch),
            )
        return state

    def step(self, params, grads) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for key, param in params.items():
            if not param.flags.c_contiguous:
                raise ValueError(
                    f"parameter {key} is not C-contiguous; Adam updates it "
                    "in place through a flat view"
                )
            m, v, a, b = self._slots(key, param)
            flat = [array.reshape(-1) for array in (param, grads[key], m, v)]
            for start in range(0, param.size, _CHUNK):
                size = min(_CHUNK, param.size - start)
                chunk = [array[start : start + size] for array in flat]
                self._update(*chunk, a[:size], b[:size], bias1, bias2)

    def _update(self, param, grad, m, v, a, b, bias1: float, bias2: float) -> None:
        """The fourteen in-place passes over one chunk; all six arrays
        have the chunk's length."""
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
