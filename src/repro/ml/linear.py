"""Multinomial logistic regression on numpy.

The fast classifier backend: softmax regression with L2 regularization
trained full-batch with Adam.  On the engineered features of
:mod:`repro.ml.features` this is strong enough to reproduce every
accuracy *ordering* in the paper while training in milliseconds.

Training keeps ``W`` and ``b`` as one ``(features + 1, classes)`` block,
so each epoch's logits, softmax, gradient and single Adam update over
the block run in place through buffers allocated once per fit.  Each
step evaluates the expressions of the out-of-place loop it replaced, in
the same order, so both give the same bits: that loop is kept as
:class:`~repro.ml.layers_ref.ReferenceSoftmaxRegression`, and the
``ml.linear`` oracle of :mod:`repro.verify` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.ml.losses import softmax

#: Adam's moment decays and denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_update(params, grad, m, v, step, denom, learning_rate: float, t: int) -> None:
    """Adam step ``t`` on ``params`` in place; ``step`` and ``denom`` are scratch."""
    # m = beta1 * m + (1 - beta1) * grad
    m *= _BETA1
    m += np.multiply(grad, 1 - _BETA1, out=step)
    # v = beta2 * v + (1 - beta2) * grad * grad
    v *= _BETA2
    np.multiply(grad, 1 - _BETA2, out=step)
    v += np.multiply(step, grad, out=step)
    # params -= learning_rate * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1 - _BETA1**t, out=step)
    step *= learning_rate
    np.divide(v, 1 - _BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPS
    params -= np.divide(step, denom, out=step)


@dataclass
class SoftmaxRegression:
    """L2-regularized multinomial logistic regression."""

    n_classes: int
    learning_rate: float = 0.05
    l2: float = 1e-4
    epochs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError(f"need at least two classes, got {self.n_classes}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ValueError("invalid hyperparameters")
        self.W: np.ndarray | None = None
        self.b: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SoftmaxRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, features) aligned with y")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError("label outside class range")
        with obs.span("ml.linear.fit", samples=len(x), features=x.shape[1]):
            self.W, self.b = self._train(x, y)
        return self

    def _train(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(W, b)`` after ``epochs`` full-batch Adam steps from a seeded start."""
        n, d = x.shape
        k = self.n_classes
        rng = np.random.default_rng(self.seed)
        params = np.empty((d + 1, k))
        params[:d] = rng.normal(0.0, 0.01, size=(d, k))
        params[d] = 0.0
        w, b = params[:d], params[d]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        grad = np.empty_like(params)
        grad_w, grad_b = grad[:d], grad[d]
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        step = np.empty_like(params)
        denom = np.empty_like(params)
        step_w = step[:d]
        probs = np.empty((n, k))
        row = np.empty((n, 1))
        xt = x.T
        for t in range(1, self.epochs + 1):
            # probs = softmax(x @ W + b)
            np.matmul(x, w, out=probs)
            probs += b
            np.maximum.reduce(probs, axis=1, keepdims=True, out=row)
            probs -= row
            np.exp(probs, out=probs)
            np.add.reduce(probs, axis=1, keepdims=True, out=row)
            probs /= row
            # grad_logits = (probs - onehot) / n, in place of probs
            probs -= onehot
            probs /= n
            # grad_w = x.T @ grad_logits + l2 * W; grad_b = grad_logits.sum(axis=0)
            np.matmul(xt, probs, out=grad_w)
            grad_w += np.multiply(w, self.l2, out=step_w)
            np.add.reduce(probs, axis=0, out=grad_b)
            _adam_update(params, grad, m, v, step, denom, self.learning_rate, t)
        return w, b

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.W is None or self.b is None:
            raise RuntimeError("classifier not fitted")
        return softmax(np.asarray(x, dtype=np.float64) @ self.W + self.b)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)
