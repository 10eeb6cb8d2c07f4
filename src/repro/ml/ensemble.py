"""AutoML-style ensemble — the autogluon stand-in (paper §7).

The paper trains "various ML models (NN, tree-based models, etc.)" via
autogluon and ensembles them.  :class:`AutoModel` reproduces the shape
of that pipeline with the substrates in this package: it trains every
member model, scores each on an internal validation split, and predicts
by validation-accuracy-weighted voting.  Every member reads one shared
feature code matrix, remapped once per prediction, so members must
agree on their features and feature codecs.
"""

from __future__ import annotations

import numpy as np

from ..relation import Relation
from .decision_tree import DecisionTree
from .logistic import LogisticRegression
from .majority import MajorityClass
from .model import Classifier, ModelError
from .naive_bayes import NaiveBayes


class AutoModel(Classifier):
    """Train several classifiers, weight them by validation accuracy."""

    def __init__(
        self,
        members: list[Classifier] | None = None,
        validation_fraction: float = 0.2,
        seed: int = 0,
    ):
        super().__init__()
        self.validation_fraction = validation_fraction
        self.seed = seed
        self._member_factory = members
        self.members: list[Classifier] = []
        self.weights: list[float] = []

    def _default_members(self) -> list[Classifier]:
        return [
            NaiveBayes(),
            DecisionTree(max_depth=8),
            LogisticRegression(n_iterations=120),
            MajorityClass(),
        ]

    # AutoModel orchestrates other classifiers, so it overrides fit()
    # instead of the _fit_codes hook.
    def fit(
        self,
        relation: Relation,
        target: str,
        features: list[str] | None = None,
    ) -> "AutoModel":
        """Fit every member and weight it by validation accuracy."""
        rng = np.random.default_rng(self.seed)
        if relation.n_rows < 10:
            raise ModelError("need at least 10 rows to train AutoModel")
        train, validation = relation.split(
            1.0 - self.validation_fraction, rng
        )
        self.members = (
            list(self._member_factory)
            if self._member_factory is not None
            else self._default_members()
        )
        self.weights = []
        for member in self.members:
            member.fit(train, target, features)
            accuracy = member.accuracy(validation)
            self.weights.append(0.0 if np.isnan(accuracy) else accuracy)
        if not any(self.weights):
            self.weights = [1.0] * len(self.members)
        # Adopt the bookkeeping of the best member for codec handling.
        best = int(np.argmax(self.weights))
        reference = self.members[best]
        for member in self.members:
            if (
                member.features != reference.features
                or member._feature_codecs != reference._feature_codecs
            ):
                raise ModelError(
                    f"{type(member).__name__} was fitted on other features "
                    f"than {type(reference).__name__}; members share one "
                    "feature matrix"
                )
        self.target = reference.target
        self.features = reference.features
        self._feature_codecs = reference._feature_codecs
        self._target_codec = reference._target_codec
        return self

    def _predict_codes(self, matrix: np.ndarray) -> np.ndarray:
        """Weighted vote of the members over one remapped code matrix."""
        rows = np.arange(matrix.shape[0])
        votes = np.zeros((matrix.shape[0], self.n_classes))
        for member, weight in zip(self.members, self.weights):
            if weight <= 0:
                continue
            votes[rows, member._predict_codes(matrix)] += weight
        return np.argmax(votes, axis=1).astype(np.int32)

    def leaderboard(self) -> list[tuple[str, float]]:
        """(member name, validation accuracy) sorted best-first."""
        rows = [
            (type(member).__name__, weight)
            for member, weight in zip(self.members, self.weights)
        ]
        return sorted(rows, key=lambda row: -row[1])

    def _fit_codes(self, matrix, labels):  # pragma: no cover - unused
        raise NotImplementedError
