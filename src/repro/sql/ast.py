"""AST for the ML-integrated SQL subset (paper §7).

The executor supports the query shapes the evaluation uses::

    SELECT income_pred, AVG(age)
    FROM adult
    WHERE workclass = 'Private'
    GROUP BY income_pred

with ``PREDICT(model, col, ...)`` expressions invoking a registered ML
model row-wise — the integration point GUARDRAIL intercepts.  Plus CASE
WHEN, arithmetic, comparisons, IN lists, ORDER BY, and LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class SqlError(ValueError):
    """Base error for the SQL layer."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base expression node."""

    def children(self) -> Iterator["Expr"]:
        """Direct child expressions (empty for leaves)."""
        return iter(())

    def walk(self) -> Iterator["Expr"]:
        """Yield this expression and every descendant."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a SELECT list: every column of the scanned table, in
    schema order."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class LiteralExpr(Expr):
    """A constant: string, number, boolean, or NULL."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Infix operators: comparisons, arithmetic, AND/OR."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterator[Expr]:
        """Direct child expressions."""
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """NOT and unary minus."""

    op: str
    operand: Expr

    def children(self) -> Iterator[Expr]:
        """Direct child expressions."""
        yield self.operand

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` (or NOT IN)."""

    operand: Expr
    options: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> Iterator[Expr]:
        """Direct child expressions."""
        yield self.operand
        yield from self.options

    def __str__(self) -> str:
        values = ", ".join(str(o) for o in self.options)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} ({values}))"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> Iterator[Expr]:
        """Direct child expressions."""
        yield self.operand

    def __str__(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {keyword})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Aggregate or scalar function call."""

    name: str
    args: tuple[Expr, ...]
    star: bool = False  # COUNT(*)

    def children(self) -> Iterator[Expr]:
        """Direct child expressions."""
        yield from self.args

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    branches: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None

    def children(self) -> Iterator[Expr]:
        """Direct child expressions."""
        for condition, value in self.branches:
            yield condition
            yield value
        if self.default is not None:
            yield self.default

    def __str__(self) -> str:
        parts = " ".join(
            f"WHEN {c} THEN {v}" for c, v in self.branches
        )
        default = f" ELSE {self.default}" if self.default else ""
        return f"(CASE {parts}{default} END)"


@dataclass(frozen=True)
class Predict(Expr):
    """``PREDICT(model_name, feature_col, ...)`` — the ML integration.

    With no feature columns the model's training feature list is used.
    """

    model: str
    features: tuple[str, ...] = ()

    def __str__(self) -> str:
        inner = ", ".join((self.model, *self.features))
        return f"PREDICT({inner})"


AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def contains_aggregate(expr: Expr) -> bool:
    """Does the expression contain an aggregate call?"""
    return any(
        isinstance(node, FunctionCall)
        and node.name.lower() in AGGREGATE_FUNCTIONS
        for node in expr.walk()
    )


def contains_predict(expr: Expr) -> bool:
    """Does the expression contain a PREDICT call?"""
    return any(isinstance(node, Predict) for node in expr.walk())


def referenced_columns(expr: Expr) -> set[str]:
    """Column names referenced anywhere in the expression."""
    return {
        node.name for node in expr.walk() if isinstance(node, ColumnRef)
    }


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry: an expression plus optional alias."""
    expr: Expr
    alias: str | None = None

    def output_name(self, position: int) -> str:
        """The column name this item produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, Predict):
            return f"{self.expr.model}_pred"
        return f"col_{position}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: expression plus direction."""
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """A parsed SELECT statement."""

    items: tuple[SelectItem, ...]
    table: str
    where: Expr | None = None
    group_by: tuple[Expr, ...] = field(default_factory=tuple)
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = field(default_factory=tuple)
    limit: int | None = None

    def uses_predict(self) -> bool:
        """Does any part of the query invoke PREDICT?"""
        expressions: list[Expr] = [item.expr for item in self.items]
        if self.where is not None:
            expressions.append(self.where)
        expressions.extend(self.group_by)
        if self.having is not None:
            expressions.append(self.having)
        expressions.extend(o.expr for o in self.order_by)
        return any(contains_predict(e) for e in expressions)

    def is_aggregate(self) -> bool:
        """Does the query aggregate (GROUP BY or aggregate calls)?"""
        return bool(self.group_by) or any(
            contains_aggregate(item.expr) for item in self.items
        )
