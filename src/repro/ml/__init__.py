"""A compact, numpy-only machine-learning library.

Substitutes for the paper's Scikit-learn / TensorFlow / XGBoost / TPOT
stack (none of which is available offline): LSTM+FC sequence
regression, MLP and 1-D CNN baselines, CART / random forest / GBDT,
kNN, linear SVM, K-means, PCA, a LambdaMART-style pairwise ranker, a
small AutoML pipeline search, sequential pattern extraction, and the
evaluation metrics the paper reports (WMAPE, precision/recall, top-k
ranking accuracy, and the six distribution-divergence measures of
Table 1).

All models take an explicit ``seed`` and are deterministic.

The paper-baseline models that only the evaluation benchmarks use
(MLP, CNN, kNN, random forest, PCA and AutoML) load on first access,
so importing the package, as the core and the daemon do, skips them.
"""

import importlib

from repro.ml import metrics
from repro.ml.encoding import (
    InstructionVocabulary,
    abstract_instruction,
    encode_blocks,
    encode_sequence,
)
from repro.ml.lstm import LSTMRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.gbdt import GBDTClassifier, GBDTRegressor
from repro.ml.svm import LinearSVM
from repro.ml.kmeans import KMeans
from repro.ml.ranking import LambdaRanker
from repro.ml.spe import SequentialPatternExtractor

#: lazily loaded name -> its module under ``repro.ml``.
_LAZY = {
    "MLPClassifier": "mlp",
    "MLPRegressor": "mlp",
    "CNNRegressor": "cnn",
    "RandomForestRegressor": "forest",
    "KNNClassifier": "knn",
    "KNNRegressor": "knn",
    "PCA": "pca",
    "AutoMLRegressor": "automl",
    "AutoMLClassifier": "automl",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "metrics",
    "InstructionVocabulary",
    "abstract_instruction",
    "encode_blocks",
    "encode_sequence",
    "LSTMRegressor",
    "MLPClassifier",
    "MLPRegressor",
    "CNNRegressor",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GBDTClassifier",
    "GBDTRegressor",
    "KNNClassifier",
    "KNNRegressor",
    "LinearSVM",
    "KMeans",
    "PCA",
    "LambdaRanker",
    "AutoMLRegressor",
    "AutoMLClassifier",
    "SequentialPatternExtractor",
]
