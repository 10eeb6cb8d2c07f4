"""Categorical naive Bayes with Laplace smoothing."""

from __future__ import annotations

import numpy as np

from .model import Classifier, ModelError


class NaiveBayes(Classifier):
    """P(y | x) ∝ P(y) Π_j P(x_j | y) over integer-coded features.

    Unseen feature values contribute a uniform likelihood (they carry
    no evidence), so garbage injections degrade gracefully.
    """

    def __init__(self, smoothing: float = 1.0):
        super().__init__()
        if smoothing <= 0:
            raise ModelError("smoothing must be positive")
        self.smoothing = smoothing
        self._log_prior: np.ndarray | None = None
        # Per feature, shape (cardinality + 1, n_classes): row ``code``
        # holds log P(x_j = code | y); the last row, which UNSEEN and
        # MISSING (both -1) index, is zeros.
        self._log_likelihood: list[np.ndarray] = []

    def _fit_codes(self, matrix: np.ndarray, labels: np.ndarray) -> None:
        n_classes = self.n_classes
        class_counts = np.bincount(labels, minlength=n_classes).astype(
            np.float64
        )
        self._log_prior = np.log(
            (class_counts + self.smoothing)
            / (class_counts.sum() + self.smoothing * n_classes)
        )
        self._log_likelihood = []
        for j, name in enumerate(self.features):
            cardinality = self._feature_codecs[name].cardinality
            table = np.full((n_classes, cardinality), self.smoothing)
            column = matrix[:, j]
            valid = column >= 0
            np.add.at(table, (labels[valid], column[valid]), 1.0)
            table /= table.sum(axis=1, keepdims=True)
            self._log_likelihood.append(
                np.vstack([np.log(table).T, np.zeros(n_classes)])
            )

    def _scores(self, matrix: np.ndarray) -> np.ndarray:
        """Unnormalized log posteriors, one row per matrix row."""
        scores = np.tile(self._log_prior, (matrix.shape[0], 1))
        for j, table in enumerate(self._log_likelihood):
            # An unseen or missing code reads the zero row, and adding
            # 0.0 leaves a score unchanged, so this is bit-identical to
            # adding the likelihood to the seen codes' rows only.
            scores += table[matrix[:, j]]
        return scores

    def _predict_codes(self, matrix: np.ndarray) -> np.ndarray:
        return np.argmax(self._scores(matrix), axis=1).astype(np.int32)

    def predict_proba(self, relation) -> np.ndarray:
        """Posterior class probabilities per row."""
        scores = self._scores(self._remap(relation))
        scores -= scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)
