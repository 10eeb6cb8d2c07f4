"""CART-style decision tree for categorical features.

Splits are equality tests ``feature == code`` chosen by Gini impurity
reduction; unseen/missing codes at prediction time follow the majority
(higher-population) child.  Depth, minimum split size, and minimum gain
are the regularization knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import UNSEEN, Classifier, ModelError


@dataclass
class _Node:
    prediction: int
    feature: int | None = None
    code: int | None = None
    match: "_Node | None" = None
    rest: "_Node | None" = None
    majority_branch: str = "rest"

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p**2).sum())


class DecisionTree(Classifier):
    """Binary-split CART over integer-coded categorical features."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 10,
        min_gain: float = 1e-4,
    ):
        super().__init__()
        if max_depth < 1:
            raise ModelError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_gain = min_gain
        self._root: _Node | None = None
        self.n_nodes = 0
        # The fitted tree as parallel node arrays, root first; a leaf's
        # children are itself, so rows that reach one stay there.
        self._split_feature = np.zeros(0, dtype=np.intp)
        self._split_code = np.zeros(0, dtype=np.int32)
        self._match_child = np.zeros(0, dtype=np.intp)
        self._rest_child = np.zeros(0, dtype=np.intp)
        self._prediction = np.zeros(0, dtype=np.int32)
        self._unseen_to_match = np.zeros(0, dtype=bool)
        self._steps = 0

    def _fit_codes(self, matrix: np.ndarray, labels: np.ndarray) -> None:
        self.n_nodes = 0
        self._root = self._build(matrix, labels, depth=0)
        self._flatten(self._root)

    def _build(
        self, matrix: np.ndarray, labels: np.ndarray, depth: int
    ) -> _Node:
        self.n_nodes += 1
        counts = np.bincount(labels, minlength=self.n_classes)
        prediction = int(np.argmax(counts))
        node = _Node(prediction=prediction)
        if (
            depth >= self.max_depth
            or labels.size < self.min_samples_split
            or counts.max() == labels.size
        ):
            return node

        parent_impurity = _gini(counts.astype(np.float64))
        best_gain = self.min_gain
        best: tuple[int, int, np.ndarray] | None = None
        n = labels.size
        for feature in range(matrix.shape[1]):
            column = matrix[:, feature]
            for code in np.unique(column):
                if code < 0:
                    continue
                mask = column == code
                size = int(mask.sum())
                if size == 0 or size == n:
                    continue
                left = np.bincount(
                    labels[mask], minlength=self.n_classes
                ).astype(np.float64)
                right = counts - left
                weighted = (
                    size * _gini(left) + (n - size) * _gini(right)
                ) / n
                gain = parent_impurity - weighted
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, int(code), mask)
        if best is None:
            return node

        feature, code, mask = best
        node.feature = feature
        node.code = code
        node.match = self._build(matrix[mask], labels[mask], depth + 1)
        node.rest = self._build(matrix[~mask], labels[~mask], depth + 1)
        node.majority_branch = "match" if mask.sum() * 2 > n else "rest"
        return node

    def _flatten(self, root: _Node) -> None:
        nodes = [root]
        for node in nodes:  # breadth-first: the loop visits what it appends
            if not node.is_leaf:
                assert node.match is not None and node.rest is not None
                nodes += [node.match, node.rest]
        index = {id(node): i for i, node in enumerate(nodes)}
        table = [
            (0, 0, i, i, node.prediction, False)
            if node.is_leaf
            else (
                node.feature,
                node.code,
                index[id(node.match)],
                index[id(node.rest)],
                node.prediction,
                node.majority_branch == "match",
            )
            for i, node in enumerate(nodes)
        ]
        feature, code, match, rest, prediction, unseen_to_match = zip(*table)
        self._split_feature = np.array(feature, dtype=np.intp)
        self._split_code = np.array(code, dtype=np.int32)
        self._match_child = np.array(match, dtype=np.intp)
        self._rest_child = np.array(rest, dtype=np.intp)
        self._prediction = np.array(prediction, dtype=np.int32)
        self._unseen_to_match = np.array(unseen_to_match, dtype=bool)
        self._steps = self.depth()

    def _predict_codes(self, matrix: np.ndarray) -> np.ndarray:
        rows = np.arange(matrix.shape[0])
        node = np.zeros(matrix.shape[0], dtype=np.intp)
        # Every row descends one level per step.  A split's code is
        # never UNSEEN, so an unseen (or missing) value takes the match
        # branch only where that branch holds the majority.
        for _ in range(self._steps):
            value = matrix[rows, self._split_feature[node]]
            match = (value == self._split_code[node]) | (
                (value == UNSEEN) & self._unseen_to_match[node]
            )
            node = np.where(
                match, self._match_child[node], self._rest_child[node]
            )
        return self._prediction[node]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.match), walk(node.rest))

        return walk(self._root)
