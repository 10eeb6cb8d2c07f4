"""Train/evaluate harness for the ML substrate.

Wraps the fit → holdout-accuracy → mis-prediction-analysis flow the
evaluation sections repeat (Tables 1 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..relation import Relation
from .ensemble import AutoModel
from .model import Classifier, _remap_column


@dataclass
class TrainedModel:
    """A fitted classifier with its holdout evaluation."""

    model: Classifier
    target: str
    train_accuracy: float
    test_accuracy: float


def train_model(
    train: Relation,
    test: Relation,
    target: str,
    features: list[str] | None = None,
    model: Classifier | None = None,
) -> TrainedModel:
    """Fit a classifier (AutoModel by default) and score both splits."""
    model = model or AutoModel()
    model.fit(train, target, features)
    return TrainedModel(
        model=model,
        target=target,
        train_accuracy=model.accuracy(train),
        test_accuracy=model.accuracy(test),
    )


def misprediction_mask(
    model: Classifier, relation: Relation
) -> np.ndarray:
    """Rows where the model's prediction differs from the stored label."""
    codec = model._fitted_codec()
    predicted = model.predict(relation)
    actual = _remap_column(relation, model.target, codec)
    return predicted != actual


def mispredictions_caused_by_errors(
    model: Classifier,
    clean: Relation,
    corrupted: Relation,
) -> np.ndarray:
    """Rows mis-predicted on corrupted inputs but not on clean inputs.

    This is the paper's notion of *error-induced* mis-prediction (§5):
    the prediction flips away from the clean-data prediction because of
    an injected error in the features.
    """
    clean_predictions = model.predict(clean)
    corrupted_predictions = model.predict(corrupted)
    return clean_predictions != corrupted_predictions
