"""K-fold cross-validation (paper §4.1).

The paper uses standard 10-fold CV: each fold serves once as the
held-out test set; the rest is split into training (81 % of the data)
and validation (9 %, handled inside the LSTM backend's early stopping).
Reported accuracy is the mean over folds, with its standard deviation
(the ``±`` in Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.ml.models import Fingerprinter
from repro.stats.summary import MeanStd, top_k_accuracy


def stratified_kfold(
    y: np.ndarray, n_folds: int, seed: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` with per-class balance.

    Stratification mirrors the paper's per-site trace counts: every fold
    holds out roughly the same number of traces of each website.
    """
    y = np.asarray(y)
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        rng.shuffle(members)
        fold_of[members] = np.arange(len(members)) % n_folds
    for fold in range(n_folds):
        test_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        if len(test_idx) == 0 or len(train_idx) == 0:
            raise ValueError(
                f"fold {fold} is degenerate; reduce n_folds or add data"
            )
        yield train_idx, test_idx


@dataclass
class CrossValResult:
    """Per-fold and aggregate accuracies."""

    fold_top1: list[float]
    fold_top5: list[float]

    @property
    def top1(self) -> MeanStd:
        return MeanStd.of(self.fold_top1)

    @property
    def top5(self) -> MeanStd:
        return MeanStd.of(self.fold_top5)


def _fold_task(task: tuple) -> np.ndarray:
    """Fit one fold and return its held-out probabilities; module-level
    so it pickles to workers.

    Each fold's classifier is seeded by ``make_classifier(fold)`` from
    the fold number alone, so fold results are independent of scheduling
    order — parallel CV is bit-identical to serial CV.
    """
    make_classifier, fold, x, y, n_classes, train_idx, test_idx = task
    classifier = make_classifier(fold)
    classifier.fit(x[train_idx], y[train_idx], n_classes)
    return classifier.predict_proba(x[test_idx])


def fold_probabilities(
    make_classifier: Callable[[int], Fingerprinter],
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_folds: int,
    seed: int,
    engine,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold CV's held-out ``(labels, probabilities)`` per fold.

    ``make_classifier(fold)`` builds a fresh model for each fold.
    ``engine`` is an :class:`~repro.engine.engine.ExecutionEngine` or
    None; with one, folds train concurrently under its ``train`` stage
    (``make_classifier`` must then be picklable — a dataclass or
    module-level callable, not a lambda).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    folds = list(stratified_kfold(y, n_folds, seed))
    tasks = [
        (make_classifier, fold, x, y, n_classes, train_idx, test_idx)
        for fold, (train_idx, test_idx) in enumerate(folds)
    ]
    if engine is not None:
        probabilities = engine.map(_fold_task, tasks, stage="train")
    else:
        probabilities = [_fold_task(task) for task in tasks]
    return [(y[test_idx], probs) for (_, test_idx), probs in zip(folds, probabilities)]


def cross_validate(
    make_classifier: Callable[[int], Fingerprinter],
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_folds: int = 10,
    seed: int = 0,
    top_k: int = 5,
    engine=None,
) -> CrossValResult:
    """Run k-fold CV (:func:`fold_probabilities`) and score each fold's
    top-1 and top-``top_k`` accuracy."""
    folds = fold_probabilities(make_classifier, x, y, n_classes, n_folds, seed, engine)
    return CrossValResult(
        fold_top1=[float((probs.argmax(axis=1) == truth).mean()) for truth, probs in folds],
        fold_top5=[
            top_k_accuracy(probs, truth, min(top_k, n_classes)) for truth, probs in folds
        ],
    )
