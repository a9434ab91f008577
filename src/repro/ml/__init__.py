"""From-scratch numpy deep-learning stack and fast feature classifier."""

from repro.ml.artifact import (
    ArtifactError,
    ArtifactInfo,
    load_artifact,
    load_info,
    save_artifact,
)
from repro.ml.crossval import CrossValResult, cross_validate, stratified_kfold
from repro.ml.encoding import LabelEncoder
from repro.ml.features import FeatureExtractor, Standardizer, mean_pool
from repro.ml.layers import Conv1D, Dense, Dropout, Layer, MaxPool1D, ReLU
from repro.ml.linear import SoftmaxRegression
from repro.ml.losses import SoftmaxCrossEntropy, softmax
from repro.ml.lstm import LSTM
from repro.ml.metrics import OpenWorldMetrics, open_world_metrics
from repro.ml.models import (
    FeatureFingerprinter,
    Fingerprinter,
    LstmFingerprinter,
    build_paper_network,
    make_fingerprinter,
)
from repro.ml.network import Sequential
from repro.ml.optim import Adam, Optimizer
from repro.ml.train import Trainer, TrainingHistory, evaluate_accuracy

__all__ = [
    "ArtifactError", "ArtifactInfo", "load_artifact", "load_info",
    "save_artifact",
    "CrossValResult", "cross_validate", "stratified_kfold", "LabelEncoder",
    "FeatureExtractor", "Standardizer", "mean_pool", "Conv1D", "Dense",
    "OpenWorldMetrics", "open_world_metrics",
    "Dropout", "Layer", "MaxPool1D", "ReLU", "SoftmaxRegression",
    "SoftmaxCrossEntropy", "softmax", "LSTM", "FeatureFingerprinter",
    "Fingerprinter", "LstmFingerprinter", "build_paper_network",
    "make_fingerprinter", "Sequential", "Adam", "Optimizer",
    "Trainer", "TrainingHistory", "evaluate_accuracy",
]
