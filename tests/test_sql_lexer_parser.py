"""Tests for the SQL lexer and parser."""

import pytest

from repro.sql import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    LiteralExpr,
    Predict,
    SqlSyntaxError,
    Star,
    UnaryOp,
    parse_expression,
    parse_query,
    tokenize,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select FROM Where")]
        assert kinds == ["SELECT", "FROM", "WHERE", "EOF"]

    def test_string_escaping(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_quoted_identifier(self):
        tokens = tokenize('"weird name"')
        assert tokens[0].kind == "IDENT"
        assert tokens[0].text == "weird name"

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("SELECT -- comment\n1")]
        assert kinds == ["SELECT", "NUMBER", "EOF"]

    def test_operators(self):
        kinds = [t.kind for t in tokenize("<> != <= >= = < >")]
        assert kinds[:-1] == ["NEQ", "NEQ", "LE", "GE", "EQ", "LT", "GT"]

    def test_unknown_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT @")


class TestExpressionParsing:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, BinaryOp) and expr.op == "or"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "and"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_comparison_chain_not_allowed(self):
        expr = parse_expression("a < 3")
        assert expr.op == "<"

    def test_not_expression(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert isinstance(expr, UnaryOp) and expr.op == "-"

    def test_in_list(self):
        expr = parse_expression("a IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.options) == 3
        assert not expr.negated

    def test_not_in_list(self):
        expr = parse_expression("a NOT IN (1)")
        assert isinstance(expr, InList) and expr.negated

    def test_is_null(self):
        expr = parse_expression("a IS NULL")
        assert isinstance(expr, IsNull) and not expr.negated
        expr = parse_expression("a IS NOT NULL")
        assert isinstance(expr, IsNull) and expr.negated

    def test_case_when(self):
        expr = parse_expression(
            "CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'other' END"
        )
        assert isinstance(expr, CaseWhen)
        assert len(expr.branches) == 2
        assert isinstance(expr.default, LiteralExpr)

    def test_case_requires_when(self):
        with pytest.raises(SqlSyntaxError, match="WHEN"):
            parse_expression("CASE ELSE 1 END")

    def test_function_call(self):
        expr = parse_expression("AVG(age)")
        assert isinstance(expr, FunctionCall)
        assert expr.name == "avg"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr, FunctionCall) and expr.star

    def test_predict_call(self):
        expr = parse_expression("PREDICT(m, a, b)")
        assert isinstance(expr, Predict)
        assert expr.model == "m"
        assert expr.features == ("a", "b")

    def test_predict_string_model_name(self):
        expr = parse_expression("PREDICT('my model')")
        assert isinstance(expr, Predict) and expr.model == "my model"

    def test_qualified_column(self):
        expr = parse_expression("adult.age")
        assert isinstance(expr, ColumnRef)
        assert expr.table == "adult" and expr.name == "age"

    def test_literals(self):
        assert parse_expression("TRUE").value is True
        assert parse_expression("NULL").value is None
        assert parse_expression("2.5").value == 2.5
        assert parse_expression("'text'").value == "text"


class TestQueryParsing:
    def test_minimal_query(self):
        query = parse_query("SELECT a FROM t")
        assert query.table == "t"
        assert query.items[0].output_name(0) == "a"

    def test_aliases(self):
        query = parse_query("SELECT a AS x, COUNT(*) n FROM t")
        assert query.items[0].alias == "x"
        assert query.items[1].alias == "n"

    def test_default_output_names(self):
        query = parse_query("SELECT COUNT(*), PREDICT(m) FROM t")
        assert query.items[0].output_name(0) == "col_0"
        assert query.items[1].output_name(1) == "m_pred"

    def test_full_query_shape(self):
        query = parse_query(
            "SELECT pred, COUNT(*) AS n FROM t "
            "WHERE a = 1 AND b != 2 "
            "GROUP BY pred ORDER BY n DESC LIMIT 5;"
        )
        assert query.where is not None
        assert len(query.group_by) == 1
        assert query.order_by[0].descending
        assert query.limit == 5

    def test_uses_predict(self):
        with_predict = parse_query("SELECT PREDICT(m) FROM t")
        without = parse_query("SELECT a FROM t")
        assert with_predict.uses_predict()
        assert not without.uses_predict()

    def test_is_aggregate(self):
        assert parse_query("SELECT COUNT(*) FROM t").is_aggregate()
        assert parse_query("SELECT a FROM t GROUP BY a").is_aggregate()
        assert not parse_query("SELECT a FROM t").is_aggregate()

    def test_select_star(self):
        query = parse_query("SELECT *, PREDICT(m) AS p FROM t WHERE a = 1")
        assert isinstance(query.items[0].expr, Star)
        assert query.items[0].alias is None
        assert query.items[1].alias == "p"

    @pytest.mark.parametrize(
        "text",
        (
            "SELECT * FROM t GROUP BY a",
            "SELECT *, COUNT(*) FROM t",
            "SELECT COUNT(*), * FROM t",
        ),
    )
    def test_select_star_rejected_with_grouping(self, text):
        with pytest.raises(SqlSyntaxError, match="GROUP BY or an aggregate"):
            parse_query(text)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_query("SELECT a FROM t WHERE a = 1 SELECT")

    def test_missing_from_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_query("SELECT a")
