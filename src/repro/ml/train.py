"""Training loop with the paper's early-stopping rule.

The paper trains until validation accuracy starts decreasing (§4.1).
``Trainer`` implements that: after every epoch it evaluates the
validation split, keeps a snapshot of the best parameters, and stops
when validation accuracy has not improved for ``patience`` epochs,
restoring the best snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.ml.network import Sequential
from repro.ml.optim import Adam, Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics."""

    losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    #: Why training ended: "early_stop", "max_epochs" or "no_validation".
    stop_reason: str = ""


@dataclass
class Trainer:
    """Mini-batch trainer with validation-based early stopping."""

    epochs: int = 30
    batch_size: int = 32
    patience: int = 3
    optimizer: Optional[Optimizer] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size and patience must be positive")

    def fit(
        self,
        network: Sequential,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train ``network``; returns the history.

        Without a validation split, runs all epochs with no early stop.
        """
        optimizer = self.optimizer or Adam(learning_rate=0.001)
        rng = np.random.default_rng(self.seed)
        history = TrainingHistory()
        best_accuracy = -1.0
        best_snapshot = None
        epochs_without_improvement = 0
        has_validation = x_val is not None and y_val is not None
        span = obs.span("ml.train", epochs=self.epochs, samples=len(x_train))
        with span:
            for epoch in range(self.epochs):
                epoch_started = time.perf_counter()
                order = rng.permutation(len(x_train))
                epoch_losses = []
                for start in range(0, len(x_train), self.batch_size):
                    batch = order[start : start + self.batch_size]
                    loss = network.train_batch(
                        x_train[batch], y_train[batch], optimizer
                    )
                    epoch_losses.append(loss)
                history.losses.append(float(np.mean(epoch_losses)))
                if not has_validation:
                    self._finish_epoch(epoch_started)
                    continue
                accuracy = evaluate_accuracy(network, x_val, y_val)
                history.val_accuracies.append(accuracy)
                if accuracy > best_accuracy:
                    best_accuracy = accuracy
                    best_snapshot = network.snapshot()
                    history.best_epoch = epoch
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.patience:
                        history.stopped_early = True
                        self._finish_epoch(epoch_started)
                        break
                self._finish_epoch(epoch_started)
            if history.stopped_early:
                history.stop_reason = "early_stop"
            elif has_validation:
                history.stop_reason = "max_epochs"
            else:
                history.stop_reason = "no_validation"
            span.set(
                epochs_run=len(history.losses),
                stop_reason=history.stop_reason,
                best_epoch=history.best_epoch,
            )
        if best_snapshot is not None:
            network.restore(best_snapshot)
        return history

    @staticmethod
    def _finish_epoch(epoch_started: float) -> None:
        elapsed = time.perf_counter() - epoch_started
        obs.histogram("ml.epoch_seconds").observe(elapsed)
        obs.counter("ml.epochs").inc()


def evaluate_accuracy(network: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy of ``network`` on ``(x, y)``."""
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty set")
    return float((network.predict(x) == np.asarray(y)).mean())
