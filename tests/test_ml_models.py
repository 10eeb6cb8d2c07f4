"""Tests for the ML substrate classifiers."""

import numpy as np
import pytest

from repro.ml import (
    UNSEEN,
    AutoModel,
    Classifier,
    DecisionTree,
    LogisticRegression,
    MajorityClass,
    ModelError,
    NaiveBayes,
    misprediction_mask,
)
from repro.pgm import DAG, random_sem
from repro.relation import Relation


@pytest.fixture
def dataset(rng):
    dag = DAG(["x1", "x2", "y"], [("x1", "y"), ("x2", "y")])
    sem = random_sem(dag, 3, determinism=0.95, rng=rng)
    relation = sem.sample(3000, rng)
    train, test = relation.split(0.7, rng)
    return train, test


ALL_MODELS = [NaiveBayes, DecisionTree, LogisticRegression, MajorityClass]


@pytest.mark.parametrize("model_cls", ALL_MODELS)
class TestCommonBehaviour:
    def test_beats_or_matches_chance(self, model_cls, dataset):
        train, test = dataset
        model = model_cls().fit(train, "y")
        accuracy = model.accuracy(test)
        assert accuracy >= 1 / 3 - 0.05

    def test_predict_values_decoded(self, model_cls, dataset):
        train, test = dataset
        model = model_cls().fit(train, "y")
        values = model.predict_values(test.head(5))
        assert len(values) == 5
        assert all(v.startswith("y=") for v in values)

    def test_unseen_value_handled(self, model_cls, dataset):
        train, test = dataset
        model = model_cls().fit(train, "y")
        weird = test.set_cell(0, "x1", "never-seen-value")
        predictions = model.predict(weird)
        assert predictions.shape == (test.n_rows,)

    def test_unfitted_predict_raises(self, model_cls, dataset):
        _, test = dataset
        assert_unfitted_raises(model_cls(), test)


def assert_unfitted_raises(model, relation):
    """Every entry point of an unfitted model raises ModelError."""
    entry_points = [
        model.predict,
        model.predict_values,
        model.accuracy,
        lambda relation: model.n_classes,
        lambda relation: model.decode_label(0),
        lambda relation: misprediction_mask(model, relation),
    ]
    for call in entry_points:
        with pytest.raises(ModelError, match="not fitted"):
            call(relation)


class TestLearnedModels:
    @pytest.mark.parametrize(
        "model_cls", [NaiveBayes, DecisionTree, LogisticRegression]
    )
    def test_clearly_beats_majority(self, model_cls, dataset):
        train, test = dataset
        model = model_cls().fit(train, "y")
        majority = MajorityClass().fit(train, "y")
        assert model.accuracy(test) > majority.accuracy(test) + 0.05


class TestFitValidation:
    def test_unknown_target(self, dataset):
        train, _ = dataset
        with pytest.raises(ModelError, match="unknown target"):
            NaiveBayes().fit(train, "nope")

    def test_target_as_feature_rejected(self, dataset):
        train, _ = dataset
        with pytest.raises(ModelError, match="cannot be a feature"):
            NaiveBayes().fit(train, "y", ["y", "x1"])

    def test_explicit_feature_subset(self, dataset):
        train, test = dataset
        model = NaiveBayes().fit(train, "y", ["x1"])
        assert model.features == ["x1"]
        assert model.accuracy(test) > 0.3


class TestNaiveBayes:
    def test_proba_sums_to_one(self, dataset):
        train, test = dataset
        model = NaiveBayes().fit(train, "y")
        proba = model.predict_proba(test.head(10))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_invalid_smoothing(self):
        with pytest.raises(ModelError):
            NaiveBayes(smoothing=0.0)

    def test_unfitted_proba_raises(self, dataset):
        _, test = dataset
        with pytest.raises(ModelError, match="not fitted"):
            NaiveBayes().predict_proba(test)


class TestDecisionTree:
    def test_depth_respected(self, dataset):
        train, _ = dataset
        model = DecisionTree(max_depth=2).fit(train, "y")
        assert model.depth() <= 2

    def test_pure_leaf_short_circuit(self):
        relation = Relation.from_rows(
            [{"x": "a", "y": "only"}] * 20
        )
        model = DecisionTree().fit(relation, "y")
        assert model.n_nodes == 1

    def test_invalid_depth(self):
        with pytest.raises(ModelError):
            DecisionTree(max_depth=0)


class TestAutoModel:
    def test_leaderboard_sorted(self, dataset):
        train, test = dataset
        model = AutoModel().fit(train, "y")
        board = model.leaderboard()
        assert len(board) == 4
        scores = [s for _, s in board]
        assert scores == sorted(scores, reverse=True)

    def test_at_least_as_good_as_majority(self, dataset):
        train, test = dataset
        auto = AutoModel().fit(train, "y")
        majority = MajorityClass().fit(train, "y")
        assert auto.accuracy(test) >= majority.accuracy(test) - 0.02

    def test_custom_members(self, dataset):
        train, test = dataset
        auto = AutoModel(members=[MajorityClass()]).fit(train, "y")
        assert len(auto.members) == 1

    def test_too_few_rows_rejected(self):
        relation = Relation.from_rows([{"x": "a", "y": "b"}] * 5)
        with pytest.raises(ModelError, match="at least 10"):
            AutoModel().fit(relation, "y")

    def test_unfitted_predict_raises(self, dataset):
        _, test = dataset
        assert_unfitted_raises(AutoModel(), test)

    @pytest.mark.parametrize("refit", ["subset", "codec"])
    def test_member_with_other_features_rejected(self, refit, dataset):
        class Stray(NaiveBayes):
            """Fits one feature only, or a codec with one more value."""

            def fit(self, relation, target, features=None):
                if refit == "subset":
                    return super().fit(relation, target, ["x1"])
                relation = relation.set_cell(0, "x1", "stray-value")
                return super().fit(relation, target, features)

        train, _ = dataset
        auto = AutoModel(members=[NaiveBayes(), Stray()])
        with pytest.raises(ModelError, match="other features"):
            auto.fit(train, "y")


class TestTrainHarness:
    def test_train_model(self, dataset):
        from repro.ml import train_model

        train, test = dataset
        trained = train_model(train, test, "y")
        assert 0.0 <= trained.test_accuracy <= 1.0
        assert trained.target == "y"

    def test_error_induced_flips(self, dataset, rng):
        from repro.errors import inject_errors
        from repro.ml import mispredictions_caused_by_errors

        train, test = dataset
        model = NaiveBayes().fit(train, "y")
        report = inject_errors(
            test, n_errors=50, attributes=["x1", "x2"], rng=rng
        )
        flips = mispredictions_caused_by_errors(
            model, test, report.relation
        )
        # Flips only happen on corrupted rows.
        assert set(np.nonzero(flips)[0]) <= report.error_rows()


# ----------------------------------------------------------------------
# The inference that predicted from per-model remaps, masked Naive Bayes
# sums, a recursive tree walk and a per-feature one-hot, kept verbatim as
# the reference: every prediction and probability must stay bit-identical.


def reference_nb_scores(model, matrix):
    # The reference tables were (n_classes, cardinality): the model's
    # tables transposed, without their zero row.
    log_likelihood = [table[:-1].T for table in model._log_likelihood]
    scores = np.tile(model._log_prior, (matrix.shape[0], 1))
    for j, table in enumerate(log_likelihood):
        column = matrix[:, j]
        valid = column != UNSEEN
        scores[valid] += table[:, column[valid]].T
    return scores


def reference_nb_proba(model, relation):
    scores = reference_nb_scores(model, model._remap(relation))
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    return exp / exp.sum(axis=1, keepdims=True)


def reference_predict_into(node, matrix, rows, out):
    if rows.size == 0:
        return
    if node.is_leaf:
        out[rows] = node.prediction
        return
    column = matrix[rows, node.feature]
    unseen = column == UNSEEN
    match = (column == node.code) & ~unseen
    if node.majority_branch == "match":
        match |= unseen
    assert node.match is not None and node.rest is not None
    reference_predict_into(node.match, matrix, rows[match], out)
    reference_predict_into(node.rest, matrix, rows[~match], out)


def reference_one_hot(model, matrix):
    n_rows = matrix.shape[0]
    out = np.zeros((n_rows, model._width + 1))
    out[:, -1] = 1.0  # bias
    for j, offset in enumerate(model._offsets):
        column = matrix[:, j]
        valid = column != UNSEEN
        out[np.nonzero(valid)[0], offset + column[valid]] = 1.0
    return out


def reference_predict(model, relation):
    """Each model remaps ``relation`` itself; an ensemble votes on those."""
    if isinstance(model, AutoModel):
        votes = np.zeros((relation.n_rows, model.n_classes))
        for member, weight in zip(model.members, model.weights):
            if weight <= 0:
                continue
            predictions = reference_predict(member, relation)
            votes[np.arange(relation.n_rows), predictions] += weight
        return np.argmax(votes, axis=1).astype(np.int32)
    matrix = model._remap(relation)
    if isinstance(model, NaiveBayes):
        scores = reference_nb_scores(model, matrix)
        return np.argmax(scores, axis=1).astype(np.int32)
    if isinstance(model, DecisionTree):
        out = np.empty(matrix.shape[0], dtype=np.int32)
        reference_predict_into(
            model._root, matrix, np.arange(matrix.shape[0]), out
        )
        return out
    if isinstance(model, LogisticRegression):
        logits = reference_one_hot(model, matrix) @ model._weights
        return np.argmax(logits, axis=1).astype(np.int32)
    assert isinstance(model, MajorityClass)
    return model.predict(relation)


def _differential_models():
    return [
        NaiveBayes(),
        NaiveBayes(smoothing=0.25),
        DecisionTree(),
        DecisionTree(max_depth=3),
        DecisionTree(min_samples_split=2, min_gain=0.0),
        LogisticRegression(n_iterations=40),
        MajorityClass(),
        AutoModel(),
        AutoModel(members=[DecisionTree(max_depth=4), NaiveBayes()], seed=3),
        AutoModel(
            members=[
                AutoModel(seed=1),
                LogisticRegression(n_iterations=20),
                MajorityClass(),
            ],
            seed=2,
        ),
    ]


def _with_holes(relation, rng, names, n_missing, unseen=()):
    """``relation`` with MISSING cells and the given unseen values."""
    for _ in range(n_missing):
        row = int(rng.integers(relation.n_rows))
        relation = relation.set_cell(row, str(rng.choice(names)), None)
    for value in unseen:
        row = int(rng.integers(relation.n_rows))
        relation = relation.set_cell(row, str(rng.choice(names)), value)
    return relation


@pytest.fixture(params=range(6))
def sem_split(request):
    """A random SEM's relation: train with MISSING features and labels,
    test with MISSING cells and values no model saw."""
    rng = np.random.default_rng(1000 + request.param)
    names = [f"x{i}" for i in range(int(rng.integers(3, 7)))]
    edges = [(name, "y") for name in names if rng.random() < 0.7]
    edges += [(names[0], name) for name in names[1:] if rng.random() < 0.3]
    dag = DAG(names + ["y"], edges or [(names[0], "y")])
    cardinalities = {name: int(rng.integers(2, 7)) for name in dag.nodes}
    sem = random_sem(
        dag, cardinalities, determinism=float(rng.uniform(0.6, 0.95)),
        rng=rng,
    )
    train, test = sem.sample(900, rng).split(0.6, rng)
    train = _with_holes(train, rng, names + ["y"], 25)
    unseen = ["never-seen", "never-seen", "garbage-1", 987654]
    test = _with_holes(test, rng, names, 20, unseen)
    return train, test


class TestInferenceMatchesReference:
    def test_predictions_are_bit_identical(self, sem_split):
        train, test = sem_split
        for model in _differential_models():
            model.fit(train, "y")
            for relation in (test, train):
                expected = reference_predict(model, relation)
                predicted = model.predict(relation)
                assert predicted.dtype == expected.dtype
                assert np.array_equal(predicted, expected), model
                assert model.predict_values(relation) == [
                    model.decode_label(code) for code in expected
                ]

    def test_naive_bayes_proba_is_bit_identical(self, sem_split):
        train, test = sem_split
        for smoothing in (1.0, 0.25):
            model = NaiveBayes(smoothing=smoothing).fit(train, "y")
            for relation in (test, train):
                proba = model.predict_proba(relation)
                expected = reference_nb_proba(model, relation)
                assert proba.tobytes() == expected.tobytes()

    def test_logistic_design_and_fit_are_bit_identical(self, sem_split):
        train, test = sem_split
        model = LogisticRegression(n_iterations=40).fit(train, "y")
        matrix = model._remap(test)
        assert (matrix == UNSEEN).any()
        assert np.array_equal(
            model._one_hot(matrix), reference_one_hot(model, matrix)
        )
        reference = LogisticRegression(n_iterations=40)
        reference._one_hot = lambda matrix: reference_one_hot(
            reference, matrix
        )
        reference.fit(train, "y")
        assert model._weights.tobytes() == reference._weights.tobytes()
