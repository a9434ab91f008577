"""LSTM layer with full backpropagation through time.

Matches the paper's recurrent stage: an LSTM with 32 units consuming
the conv/pool front-end's output sequence and emitting its final hidden
state.  Gate layout in the fused weight matrices is ``[i, f, g, o]``
(input, forget, candidate, output).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ml.layers import Layer, _glorot


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


class LSTM(Layer):
    """Single-layer LSTM; returns the final hidden state ``(batch, hidden)``."""

    def __init__(self, in_channels: int, hidden: int, rng: np.random.Generator):
        if in_channels < 1 or hidden < 1:
            raise ValueError("LSTM dimensions must be positive")
        self.in_channels = in_channels
        self.hidden = hidden
        self.Wx = _glorot(rng, in_channels, 4 * hidden, (in_channels, 4 * hidden))
        self.Wh = _glorot(rng, hidden, 4 * hidden, (hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)
        # Standard trick: bias the forget gate open at initialization.
        self.b[hidden : 2 * hidden] = 1.0
        self.dWx = np.zeros_like(self.Wx)
        self.dWh = np.zeros_like(self.Wh)
        self.db = np.zeros_like(self.b)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, T, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        H = self.hidden
        h = np.zeros((n, H))
        c = np.zeros((n, H))
        gates_i = np.empty((T, n, H))
        gates_f = np.empty((T, n, H))
        gates_g = np.empty((T, n, H))
        gates_o = np.empty((T, n, H))
        cells = np.empty((T, n, H))
        tanh_cells = np.empty((T, n, H))
        hiddens = np.empty((T + 1, n, H))
        hiddens[0] = h
        for t in range(T):
            z = x[:, t] @ self.Wx + h @ self.Wh + self.b
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H : 2 * H])
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = _sigmoid(z[:, 3 * H :])
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates_i[t], gates_f[t], gates_g[t], gates_o[t] = i, f, g, o
            cells[t], tanh_cells[t], hiddens[t + 1] = c, tc, h
        self._cache = {
            "x": x, "i": gates_i, "f": gates_f, "g": gates_g, "o": gates_o,
            "c": cells, "tc": tanh_cells, "h": hiddens,
        } if training else None
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward")
        cache = self._cache
        x = cache["x"]
        n, T, _ = x.shape
        H = self.hidden
        self.dWx.fill(0.0)
        self.dWh.fill(0.0)
        self.db.fill(0.0)
        dx = np.zeros_like(x)
        dh = grad.copy()
        dc = np.zeros((n, H))
        for t in reversed(range(T)):
            i, f, g, o = cache["i"][t], cache["f"][t], cache["g"][t], cache["o"][t]
            tc = cache["tc"][t]
            c_prev = cache["c"][t - 1] if t > 0 else np.zeros((n, H))
            h_prev = cache["h"][t]
            do = dh * tc
            dc = dc + dh * o * (1 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1 - i),
                    df * f * (1 - f),
                    dg * (1 - g * g),
                    do * o * (1 - o),
                ],
                axis=1,
            )
            self.dWx += x[:, t].T @ dz
            self.dWh += h_prev.T @ dz
            self.db += dz.sum(axis=0)
            dx[:, t] = dz @ self.Wx.T
            dh = dz @ self.Wh.T
            dc = dc * f
        return dx

    def params(self) -> Dict[str, np.ndarray]:
        return {"Wx": self.Wx, "Wh": self.Wh, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"Wx": self.dWx, "Wh": self.dWh, "b": self.db}
