"""Multinomial logistic regression over one-hot encoded categoricals.

Trained with full-batch gradient descent + L2 regularization; small and
deterministic, which keeps the evaluation reproducible on one core.
"""

from __future__ import annotations

import numpy as np

from .model import UNSEEN, Classifier, ModelError


class LogisticRegression(Classifier):
    """Softmax regression on one-hot features (unseen codes → zero row)."""

    def __init__(
        self,
        l2: float = 1e-3,
        learning_rate: float = 0.5,
        n_iterations: int = 200,
    ):
        super().__init__()
        if n_iterations < 1:
            raise ModelError("n_iterations must be >= 1")
        self.l2 = l2
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self._weights: np.ndarray | None = None
        self._offsets = np.zeros(0, dtype=np.int64)
        self._width = 0

    def _one_hot(self, matrix: np.ndarray) -> np.ndarray:
        n_rows = matrix.shape[0]
        stride = self._width + 1
        out = np.zeros((n_rows, stride))
        out[:, -1] = 1.0  # bias
        flat = matrix + self._offsets + stride * np.arange(n_rows)[:, None]
        out.reshape(-1)[flat[matrix != UNSEEN]] = 1.0
        return out

    def _fit_codes(self, matrix: np.ndarray, labels: np.ndarray) -> None:
        cardinalities = [
            self._feature_codecs[name].cardinality for name in self.features
        ]
        self._offsets = np.cumsum([0] + cardinalities[:-1], dtype=np.int64)
        self._width = sum(cardinalities)

        design = self._one_hot(matrix)
        n_rows, n_cols = design.shape
        n_classes = self.n_classes
        targets = np.zeros((n_rows, n_classes))
        targets[np.arange(n_rows), labels] = 1.0

        weights = np.zeros((n_cols, n_classes))
        for _ in range(self.n_iterations):
            logits = design @ weights
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probabilities = exp / exp.sum(axis=1, keepdims=True)
            gradient = design.T @ (probabilities - targets) / n_rows
            gradient += self.l2 * weights
            weights -= self.learning_rate * gradient
        self._weights = weights

    def _predict_codes(self, matrix: np.ndarray) -> np.ndarray:
        # A sum of the weight rows the ones select would skip the dense
        # design, but BLAS's summation order decides the logits' last
        # bits, and predictions must not move with them.
        design = self._one_hot(matrix)
        logits = design @ self._weights
        return np.argmax(logits, axis=1).astype(np.int32)
