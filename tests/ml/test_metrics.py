"""Tests for the open-world error decomposition."""

import numpy as np
import pytest

from repro.ml.metrics import open_world_metrics


class TestOpenWorldMetrics:
    def test_decomposition(self):
        # classes: 0 = sensitive site A, 1 = non-sensitive.
        y_true = np.array([0, 0, 0, 1, 1, 1, 1])
        y_pred = np.array([0, 1, 0, 1, 1, 0, 1])
        metrics = open_world_metrics(y_true, y_pred, non_sensitive_class=1)
        assert metrics.missed_sensitive_rate == pytest.approx(1 / 3)
        assert metrics.false_accusation_rate == pytest.approx(1 / 4)
        assert metrics.sensitive_accuracy == pytest.approx(2 / 3)

    def test_needs_both_kinds(self):
        with pytest.raises(ValueError):
            open_world_metrics([0, 0], [0, 0], non_sensitive_class=1)
