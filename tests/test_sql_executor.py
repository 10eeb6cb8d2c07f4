"""Tests for the SQL executor (including ML integration and the guard)."""

import numpy as np
import pytest

from repro import obs
from repro.errors import DataIntegrityError
from repro.ml import NaiveBayes
from repro.pgm import DAG, random_sem
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.sql import QueryExecutor, SqlRuntimeError
from repro.synth import Guardrail, GuardrailConfig


@pytest.fixture
def people() -> Relation:
    schema = Schema(
        [
            Attribute("name"),
            Attribute("dept"),
            Attribute("age", AttributeType.NUMERIC),
        ]
    )
    return Relation.from_rows(
        [
            {"name": "ann", "dept": "eng", "age": 30.0},
            {"name": "bob", "dept": "eng", "age": 40.0},
            {"name": "cat", "dept": "ops", "age": 50.0},
            {"name": "dan", "dept": "ops", "age": None},
        ],
        schema=schema,
    )


@pytest.fixture
def executor(people) -> QueryExecutor:
    return QueryExecutor({"people": people})


class TestProjection:
    def test_select_columns(self, executor):
        result = executor.execute("SELECT name, dept FROM people")
        assert result.names == ["name", "dept"]
        assert result.n_rows == 4

    def test_computed_column(self, executor):
        result = executor.execute("SELECT age + 1 AS next FROM people")
        assert result.rows[0][0] == 31.0

    def test_case_when(self, executor):
        result = executor.execute(
            "SELECT CASE WHEN dept = 'eng' THEN 1 ELSE 0 END AS flag "
            "FROM people"
        )
        assert result.column("flag") == [1, 1, 0, 0]

    def test_select_star_projects_columns_in_schema_order(self, executor):
        result = executor.execute(
            "SELECT *, name AS who FROM people WHERE dept = 'ops'"
        )
        assert result.names == ["name", "dept", "age", "who"]
        assert result.rows == [
            ("cat", "ops", 50.0, "cat"),
            ("dan", "ops", None, "dan"),
        ]

    def test_unknown_table(self, executor):
        with pytest.raises(SqlRuntimeError, match="unknown table"):
            executor.execute("SELECT a FROM nope")

    def test_unknown_column(self, executor):
        with pytest.raises(SqlRuntimeError, match="unknown column"):
            executor.execute("SELECT nope FROM people")


class TestFilters:
    def test_equality(self, executor):
        result = executor.execute(
            "SELECT name FROM people WHERE dept = 'eng'"
        )
        assert result.column("name") == ["ann", "bob"]

    def test_numeric_comparison(self, executor):
        result = executor.execute(
            "SELECT name FROM people WHERE age >= 40"
        )
        assert result.column("name") == ["bob", "cat"]

    def test_null_comparison_is_false(self, executor):
        result = executor.execute(
            "SELECT name FROM people WHERE age < 100"
        )
        assert "dan" not in result.column("name")

    def test_is_null(self, executor):
        result = executor.execute(
            "SELECT name FROM people WHERE age IS NULL"
        )
        assert result.column("name") == ["dan"]

    def test_in_list(self, executor):
        result = executor.execute(
            "SELECT name FROM people WHERE name IN ('ann', 'cat')"
        )
        assert result.column("name") == ["ann", "cat"]

    def test_not_and_or(self, executor):
        result = executor.execute(
            "SELECT name FROM people "
            "WHERE NOT dept = 'eng' OR age = 30"
        )
        assert result.column("name") == ["ann", "cat", "dan"]


class TestAggregates:
    def test_global_aggregates(self, executor):
        result = executor.execute(
            "SELECT COUNT(*) AS n, AVG(age) AS mean, MIN(age) AS lo, "
            "MAX(age) AS hi, SUM(age) AS total FROM people"
        )
        row = result.to_dicts()[0]
        assert row["n"] == 4
        assert row["mean"] == pytest.approx(40.0)
        assert row["lo"] == 30.0 and row["hi"] == 50.0
        assert row["total"] == 120.0

    def test_count_expr_skips_null(self, executor):
        result = executor.execute("SELECT COUNT(age) AS n FROM people")
        assert result.scalar() == 3

    def test_group_by(self, executor):
        result = executor.execute(
            "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept "
            "ORDER BY dept"
        )
        assert result.rows == [("eng", 2), ("ops", 2)]

    def test_group_by_alias(self, executor):
        result = executor.execute(
            "SELECT CASE WHEN age >= 40 THEN 'old' ELSE 'young' END "
            "AS band, COUNT(*) AS n FROM people GROUP BY band "
            "ORDER BY band"
        )
        assert dict(result.rows) == {"old": 2, "young": 2}

    def test_aggregate_arithmetic(self, executor):
        result = executor.execute(
            "SELECT AVG(age) * 2 AS double_mean FROM people"
        )
        assert result.scalar() == pytest.approx(80.0)

    def test_case_inside_aggregate(self, executor):
        result = executor.execute(
            "SELECT AVG(CASE WHEN dept = 'eng' THEN 1 ELSE 0 END) "
            "AS share FROM people"
        )
        assert result.scalar() == pytest.approx(0.5)

    def test_empty_group_result(self, executor):
        result = executor.execute(
            "SELECT COUNT(*) AS n FROM people WHERE dept = 'nope'"
        )
        assert result.scalar() == 0


class TestOrderLimit:
    def test_order_desc(self, executor):
        result = executor.execute(
            "SELECT name, age FROM people WHERE age IS NOT NULL "
            "ORDER BY age DESC"
        )
        assert result.column("name") == ["cat", "bob", "ann"]

    def test_limit(self, executor):
        result = executor.execute("SELECT name FROM people LIMIT 2")
        assert result.n_rows == 2

    def test_order_by_position(self, executor):
        result = executor.execute(
            "SELECT name FROM people ORDER BY 1 DESC LIMIT 1"
        )
        assert result.scalar() == "dan"


class TestMlIntegration:
    @pytest.fixture
    def ml_setup(self, rng):
        dag = DAG(["x1", "x2", "y"], [("x1", "y"), ("x2", "y")])
        sem = random_sem(dag, 3, determinism=0.98, rng=rng)
        relation = sem.sample(2000, rng)
        train, test = relation.split(0.7, rng)
        model = NaiveBayes().fit(train, "y")
        return train, test, model

    def test_predict_column(self, ml_setup):
        _, test, model = ml_setup
        executor = QueryExecutor({"t": test}, {"m": model})
        result = executor.execute(
            "SELECT PREDICT(m) AS pred, COUNT(*) AS n FROM t "
            "GROUP BY pred ORDER BY pred"
        )
        assert sum(result.column("n")) == test.n_rows
        assert executor.last_metrics.rows_predicted == test.n_rows

    def test_unknown_model(self, ml_setup):
        _, test, _ = ml_setup
        executor = QueryExecutor({"t": test})
        with pytest.raises(SqlRuntimeError, match="unknown model"):
            executor.execute("SELECT PREDICT(m) FROM t")

    def test_pushdown_reduces_prediction_work(self, ml_setup):
        _, test, model = ml_setup
        executor = QueryExecutor({"t": test}, {"m": model})
        value = test.value(0, "x1")
        executor.execute(
            f"SELECT PREDICT(m) AS p, COUNT(*) FROM t "
            f"WHERE x1 = '{value}' GROUP BY p"
        )
        assert (
            executor.last_metrics.rows_predicted
            < executor.last_metrics.rows_scanned
        )

    def test_guard_rectifies_before_inference(self, ml_setup, rng):
        train, test, model = ml_setup
        guard = Guardrail(
            GuardrailConfig(epsilon=0.05, min_support=2, seed=0)
        ).fit(train)
        target = guard.program.dependents[0]
        corrupted = test.set_cell(0, target, "garbage")
        executor = QueryExecutor(
            {"t": corrupted}, {"m": model},
            guardrail=guard, strategy="rectify",
        )
        executor.execute("SELECT PREDICT(m) AS p, COUNT(*) FROM t GROUP BY p")
        assert executor.last_metrics.rows_rectified >= 1
        assert executor.last_metrics.guard_seconds > 0

    def test_guard_repair_runs_under_its_own_span(self, ml_setup):
        """Relation-level rectify records one ``errors.rectify`` span
        inside the SQL guard stage, so a trace splits the stage into
        detection and repair without subtraction."""
        train, test, model = ml_setup
        guard = Guardrail(
            GuardrailConfig(epsilon=0.05, min_support=2, seed=0)
        ).fit(train)
        target = guard.program.dependents[0]
        executor = QueryExecutor(
            {"t": test.set_cell(0, target, "garbage")}, {"m": model},
            guardrail=guard, strategy="rectify",
        )
        with obs.tracing() as sink:
            executor.execute("SELECT PREDICT(m) AS p FROM t")
        repairs = [
            e for e in sink.events
            if e["type"] == "span" and e["name"] == "errors.rectify"
        ]
        assert len(repairs) == 1
        assert repairs[0]["path"].endswith("sql.guard/errors.rectify")
        assert repairs[0]["attrs"]["n_rows"] >= 1

    def test_guard_raise_strategy_propagates(self, ml_setup):
        train, test, model = ml_setup
        guard = Guardrail(
            GuardrailConfig(epsilon=0.05, min_support=2, seed=0)
        ).fit(train)
        target = guard.program.dependents[0]
        corrupted = test.set_cell(0, target, "garbage")
        executor = QueryExecutor(
            {"t": corrupted}, {"m": model},
            guardrail=guard, strategy="raise",
        )
        with pytest.raises(DataIntegrityError):
            executor.execute("SELECT PREDICT(m) FROM t")

    def test_no_guard_stage_without_predict(self, ml_setup):
        train, test, model = ml_setup
        guard = Guardrail(
            GuardrailConfig(epsilon=0.05, min_support=2, seed=0)
        ).fit(train)
        executor = QueryExecutor(
            {"t": test}, {"m": model}, guardrail=guard
        )
        executor.execute("SELECT COUNT(*) FROM t")
        assert executor.last_metrics.guard_seconds == 0.0


class TestQueryResult:
    def test_scalar_errors(self, executor):
        result = executor.execute("SELECT name FROM people")
        with pytest.raises(SqlRuntimeError):
            result.scalar()

    def test_unknown_result_column(self, executor):
        result = executor.execute("SELECT name FROM people")
        with pytest.raises(SqlRuntimeError):
            result.column("zzz")

    def test_to_text(self, executor):
        result = executor.execute("SELECT dept, COUNT(*) AS n FROM people GROUP BY dept")
        text = result.to_text()
        assert "dept" in text and "n" in text

    def test_numeric_vector(self, executor):
        result = executor.execute(
            "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept"
        )
        assert sorted(result.numeric_vector()) == [2.0, 2.0]
