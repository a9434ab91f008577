"""Feature extraction for the fast classifier backend.

Traces are long (up to 10 000 samples at paper scale).  The fast backend
summarizes each normalized trace into a compact feature vector:

* mean-pooled trace shape (coarse temporal profile),
* mean-pooled absolute first differences (where activity happens),
* low-frequency FFT magnitudes (periodic structure), and
* global summary statistics.

These capture the same information the CNN front-end learns — where the
counter dips and how violently — while training orders of magnitude
faster, enabling the full Table 1/2/3/4 sweeps on a laptop.  DESIGN.md
documents this as a declared substitution; the LSTM backend remains the
faithful architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs


def mean_pool(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Mean-pool rows of ``x`` down to ``n_bins`` columns."""
    if x.ndim != 2:
        raise ValueError(f"expected (n, length), got {x.shape}")
    n, length = x.shape
    if n_bins < 1:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if length == 0:
        raise ValueError("cannot pool rows of zero length")
    if length < n_bins:
        # Short inputs: repeat-edge pad up to the bin count.
        pad = np.repeat(x[:, -1:], n_bins - length, axis=1)
        return np.concatenate([x, pad], axis=1)
    usable = (length // n_bins) * n_bins
    return x[:, :usable].reshape(n, n_bins, -1).mean(axis=2)


@dataclass(frozen=True)
class FeatureExtractor:
    """Turns a batch of normalized traces into feature matrices."""

    shape_bins: int = 64
    diff_bins: int = 32
    fft_bins: int = 96

    def __post_init__(self) -> None:
        if min(self.shape_bins, self.diff_bins, self.fft_bins) < 1:
            raise ValueError("all feature bin counts must be positive")

    @property
    def n_features(self) -> int:
        return self.shape_bins + self.diff_bins + self.fft_bins + 4

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Features for a batch of traces ``(n, length)``, ``length >= 1``.

        A 1-sample trace has no differences and no spectrum past DC; both
        blocks are zeros for it.  Each row pass runs once: the row mean
        serves the centring and the summary, the centred rows feed the
        spectrum and are then squared in place for the standard deviation
        (the operations ``np.std`` runs), and only the pooled band of the
        spectrum is energy-normalized.  ``ReferenceFeatureExtractor`` in
        :mod:`repro.ml.layers_ref` keeps the expression-per-feature form,
        and the ``ml.features`` oracle holds the two to the same bits.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (n, length), got {x.shape}")
        n, length = x.shape
        with obs.span("ml.features", rows=n, length=length):
            shape = mean_pool(x, self.shape_bins)
            diffs = np.subtract(x[:, 1:], x[:, :-1]) if length > 1 else np.zeros((n, 1))
            np.abs(diffs, out=diffs)
            diff_pooled = mean_pool(diffs, self.diff_bins)
            mean = x.mean(axis=1, keepdims=True)
            centred = np.subtract(x, mean)
            spectrum = np.abs(np.fft.rfft(centred, axis=1))
            # Energy-normalize so per-load gain (session bandwidth, caching)
            # does not scale the spectral fingerprint, then pool narrowly:
            # burst micro-structure (packet trains, render cadence) shows up
            # as sharp lines in the 5-50 Hz band that survive 4-bin pooling.
            energy = spectrum.sum(axis=1, keepdims=True) + 1e-12
            band = spectrum[:, 1 : 1 + 4 * self.fft_bins]
            band = band / energy if band.shape[1] else np.zeros((n, 1))
            fft_feats = mean_pool(band, self.fft_bins)
            np.square(centred, out=centred)
            std = np.sqrt(np.add.reduce(centred, axis=1) / length)
            stats = np.column_stack([mean[:, 0], std, x.min(axis=1), diffs.mean(axis=1)])
            return np.concatenate([shape, diff_pooled, fft_feats, stats], axis=1)


class Standardizer:
    """Column-wise z-scoring fitted on the training split only."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "Standardizer":
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        self.std = np.where(std < 1e-12, 1.0, std)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean is None or self.std is None:
            raise RuntimeError("standardizer not fitted")
        return (x - self.mean) / self.std

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)
