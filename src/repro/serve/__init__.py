"""Model serving: batched inference over saved fingerprinting artifacts.

The training side of the repo ends at a fitted
:class:`~repro.ml.models.Fingerprinter`; this package is the deployment
side.  ``biggerfish train`` persists a model as a schema-versioned
artifact directory (:mod:`repro.ml.artifact`); here a
:class:`~repro.serve.registry.ModelRegistry` loads each registered
artifact on first use and keeps it, and a
:class:`~repro.serve.server.FingerprintServer` micro-batches concurrent
classification requests into single ``predict_proba`` calls —
bit-identical to one-at-a-time evaluation, with bounded-queue
backpressure, per-request deadlines and structured error results.
:mod:`repro.serve.cli` provides the ``biggerfish train / serve /
predict`` subcommands.
"""

from repro.serve.registry import ModelRegistry
from repro.serve.server import ERROR_CODES, FingerprintServer, PredictResult

__all__ = [
    "ERROR_CODES",
    "FingerprintServer",
    "ModelRegistry",
    "PredictResult",
]
