"""Base classifier API over relations.

The paper delegates model training to autogluon (§7); this package is
the stand-in substrate: categorical classifiers with a common
fit/predict interface operating directly on :class:`Relation` columns.

Feature handling is centralized here: models memorize the training
codecs, and at prediction time test columns are *remapped* onto the
training code space (values unseen at training time map to the
``UNSEEN`` code).  This matters in GUARDRAIL's evaluation because
injected garbage values are by construction unseen.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..relation import MISSING, Codec, Relation

UNSEEN: int = -1
"""Code assigned at prediction time to values unseen during training."""


class ModelError(ValueError):
    """Raised on invalid training or prediction inputs."""


class Classifier(ABC):
    """A categorical classifier with sklearn-flavoured fit/predict."""

    def __init__(self) -> None:
        self.target: str | None = None
        self.features: list[str] = []
        self._feature_codecs: dict[str, Codec] = {}
        self._target_codec: Codec | None = None

    # ------------------------------------------------------------------

    def fit(
        self,
        relation: Relation,
        target: str,
        features: list[str] | None = None,
    ) -> "Classifier":
        """Train on the categorical columns of ``relation``."""
        if target not in relation.schema:
            raise ModelError(f"unknown target attribute {target!r}")
        if features is None:
            features = [
                name
                for name in relation.schema.categorical_names()
                if name != target
            ]
        if not features:
            raise ModelError("need at least one feature")
        if target in features:
            raise ModelError("target cannot be a feature")
        self.target = target
        self.features = list(features)
        self._feature_codecs = {
            name: relation.codec(name) for name in self.features
        }
        self._target_codec = relation.codec(target)
        matrix = relation.codes_matrix(self.features)
        labels = relation.codes(target)
        keep = labels != MISSING
        self._fit_codes(matrix[keep], labels[keep])
        return self

    def predict(self, relation: Relation) -> np.ndarray:
        """Predicted target codes (train codec) for every row."""
        return self._predict_codes(self._remap(relation))

    def predict_values(self, relation: Relation) -> list[object]:
        """Predictions decoded through the training target codec."""
        values = self._fitted_codec().values
        return [values[code] for code in self.predict(relation).tolist()]

    def accuracy(self, relation: Relation) -> float:
        """Fraction of rows whose target matches the prediction."""
        codec = self._fitted_codec()
        predicted = self.predict(relation)
        actual = _remap_column(relation, self.target, codec)
        valid = actual != UNSEEN
        if not valid.any():
            return float("nan")
        return float(np.mean(predicted[valid] == actual[valid]))

    # ------------------------------------------------------------------

    def _fitted_codec(self) -> Codec:
        """The training target codec; raises :class:`ModelError` before fit."""
        if self._target_codec is None:
            raise ModelError("model is not fitted")
        return self._target_codec

    def _remap(self, relation: Relation) -> np.ndarray:
        """The feature code matrix of ``relation`` in the training code space."""
        self._fitted_codec()
        columns = [
            _remap_column(relation, name, self._feature_codecs[name])
            for name in self.features
        ]
        return np.column_stack(columns)

    @property
    def n_classes(self) -> int:
        """Number of target classes."""
        return self._fitted_codec().cardinality

    def decode_label(self, code: int) -> object:
        """Map a class code back to the original label value."""
        return self._fitted_codec().decode_one(int(code))

    # ------------------------------------------------------------------

    @abstractmethod
    def _fit_codes(self, matrix: np.ndarray, labels: np.ndarray) -> None:
        """Train from a feature code matrix and target codes."""

    @abstractmethod
    def _predict_codes(self, matrix: np.ndarray) -> np.ndarray:
        """Predict target codes from a (remapped) feature code matrix."""


def _remap_column(
    relation: Relation, name: str, train_codec: Codec
) -> np.ndarray:
    """Translate a column's codes into another codec's code space."""
    codec = relation.codec(name)
    if codec == train_codec:
        return relation.codes(name)
    translation = np.array(
        [
            train_codec.encode_one(value) if value in train_codec else UNSEEN
            for value in codec.values
        ],
        dtype=np.int32,
    )
    codes = relation.codes(name)
    out = np.full(codes.shape, UNSEEN, dtype=np.int32)
    valid = codes != MISSING
    out[valid] = translation[codes[valid]]
    return out
