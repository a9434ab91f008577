"""Open-world error decomposition beyond plain accuracy.

The paper reports top-1/top-5 accuracy and, for the open world, separate
sensitive/non-sensitive accuracies.  For the open-world deployment
question "how often does the attacker falsely accuse a site?" this
module splits the errors into false accusations and missed sensitive
visits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OpenWorldMetrics:
    """Attacker-relevant open-world numbers (§4.1's deployment view).

    ``false_accusation_rate``: fraction of non-sensitive visits labeled
    as some sensitive site — the attacker crying wolf.
    ``missed_sensitive_rate``: fraction of sensitive visits waved
    through as non-sensitive.
    """

    false_accusation_rate: float
    missed_sensitive_rate: float
    sensitive_accuracy: float


def open_world_metrics(
    y_true, y_pred, non_sensitive_class: int
) -> OpenWorldMetrics:
    """Open-world error decomposition."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    sensitive = y_true != non_sensitive_class
    if not sensitive.any() or sensitive.all():
        raise ValueError("need both sensitive and non-sensitive samples")
    false_accusation = float(
        (y_pred[~sensitive] != non_sensitive_class).mean()
    )
    missed = float((y_pred[sensitive] == non_sensitive_class).mean())
    correct_sensitive = float(
        (y_pred[sensitive] == y_true[sensitive]).mean()
    )
    return OpenWorldMetrics(
        false_accusation_rate=false_accusation,
        missed_sensitive_rate=missed,
        sensitive_accuracy=correct_sensitive,
    )
