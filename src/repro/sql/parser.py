"""Recursive-descent parser for the SQL subset.

Grammar (precedence low → high)::

    query      := SELECT items FROM ident [WHERE expr]
                  [GROUP BY expr_list] [ORDER BY order_list] [LIMIT n]
    item       := * | expr [[AS] ident]
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | comparison
    comparison := additive (cmp_op additive | IN (...) | IS [NOT] NULL)?
    additive   := multiplicative ((+|-) multiplicative)*
    multiplic. := unary ((*|/) unary)*
    unary      := - unary | primary
    primary    := literal | CASE ... END | function(...) | PREDICT(...)
                | column | (expr)
"""

from __future__ import annotations

from .ast import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    LiteralExpr,
    OrderItem,
    Predict,
    SelectItem,
    SelectQuery,
    Star,
    UnaryOp,
)
from .lexer import SqlSyntaxError, Token, tokenize

_COMPARISON_OPS = {
    "EQ": "=",
    "NEQ": "!=",
    "LT": "<",
    "LE": "<=",
    "GT": ">",
    "GE": ">=",
}


class Parser:
    """One-statement SQL parser."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._cursor = 0

    # Token plumbing -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._cursor + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._cursor]
        if token.kind != "EOF":
            self._cursor += 1
        return token

    def _accept(self, kind: str) -> Token | None:
        if self._peek().kind == kind:
            return self._advance()
        return None

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise SqlSyntaxError(
                f"expected {kind} at offset {token.position}, found "
                f"{token.kind} ({token.text!r})"
            )
        return self._advance()

    # Query --------------------------------------------------------------

    def parse_query(self) -> SelectQuery:
        """Parse a full SELECT query."""
        self._expect("SELECT")
        self._accept("DISTINCT")  # tolerated, results are not deduplicated
        items = [self._select_item()]
        while self._accept("COMMA"):
            items.append(self._select_item())
        self._expect("FROM")
        table = self._expect("IDENT").text
        where = None
        if self._accept("WHERE"):
            where = self.parse_expression()
        group_by: list[Expr] = []
        if self._accept("GROUP"):
            self._expect("BY")
            group_by.append(self.parse_expression())
            while self._accept("COMMA"):
                group_by.append(self.parse_expression())
        having = None
        if self._accept("HAVING"):
            if not group_by:
                raise SqlSyntaxError("HAVING requires GROUP BY")
            having = self.parse_expression()
        order_by: list[OrderItem] = []
        if self._accept("ORDER"):
            self._expect("BY")
            order_by.append(self._order_item())
            while self._accept("COMMA"):
                order_by.append(self._order_item())
        limit = None
        if self._accept("LIMIT"):
            limit = int(self._expect("NUMBER").text)
        self._accept("SEMI")
        if self._peek().kind != "EOF":
            token = self._peek()
            raise SqlSyntaxError(
                f"trailing content at offset {token.position}: "
                f"{token.text!r}"
            )
        query = SelectQuery(
            items=tuple(items),
            table=table,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
        )
        if query.is_aggregate() and any(
            isinstance(item.expr, Star) for item in items
        ):
            raise SqlSyntaxError(
                "SELECT * cannot be combined with GROUP BY or an aggregate"
            )
        return query

    def _select_item(self) -> SelectItem:
        if self._accept("STAR"):
            return SelectItem(Star())
        expr = self.parse_expression()
        alias = None
        if self._accept("AS"):
            alias = self._expect("IDENT").text
        elif self._peek().kind == "IDENT":
            alias = self._advance().text
        return SelectItem(expr, alias)

    def _order_item(self) -> OrderItem:
        expr = self.parse_expression()
        descending = False
        if self._accept("DESC"):
            descending = True
        else:
            self._accept("ASC")
        return OrderItem(expr, descending)

    # Expressions ----------------------------------------------------------

    def parse_expression(self) -> Expr:
        """Parse one expression (precedence-climbing entry point)."""
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept("OR"):
            left = BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept("AND"):
            left = BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept("NOT"):
            return UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        kind = self._peek().kind
        if kind in _COMPARISON_OPS:
            self._advance()
            return BinaryOp(_COMPARISON_OPS[kind], left, self._additive())
        if kind == "NOT" and self._peek(1).kind == "IN":
            self._advance()
            self._advance()
            return self._in_list(left, negated=True)
        if kind == "IN":
            self._advance()
            return self._in_list(left, negated=False)
        if kind == "IS":
            self._advance()
            negated = self._accept("NOT") is not None
            self._expect("NULL")
            return IsNull(left, negated)
        return left

    def _in_list(self, operand: Expr, negated: bool) -> Expr:
        self._expect("LPAREN")
        options = [self.parse_expression()]
        while self._accept("COMMA"):
            options.append(self.parse_expression())
        self._expect("RPAREN")
        return InList(operand, tuple(options), negated)

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            if self._accept("PLUS"):
                left = BinaryOp("+", left, self._multiplicative())
            elif self._accept("MINUS"):
                left = BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            if self._accept("STAR"):
                left = BinaryOp("*", left, self._unary())
            elif self._accept("SLASH"):
                left = BinaryOp("/", left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        if self._accept("MINUS"):
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return LiteralExpr(value)
        if token.kind == "STRING":
            self._advance()
            return LiteralExpr(token.text)
        if token.kind in ("TRUE", "FALSE"):
            self._advance()
            return LiteralExpr(token.kind == "TRUE")
        if token.kind == "NULL":
            self._advance()
            return LiteralExpr(None)
        if token.kind == "CASE":
            return self._case_when()
        if token.kind == "LPAREN":
            self._advance()
            inner = self.parse_expression()
            self._expect("RPAREN")
            return inner
        if token.kind == "IDENT":
            return self._identifier_expression()
        raise SqlSyntaxError(
            f"unexpected token {token.text!r} at offset {token.position}"
        )

    def _case_when(self) -> Expr:
        self._expect("CASE")
        branches: list[tuple[Expr, Expr]] = []
        while self._accept("WHEN"):
            condition = self.parse_expression()
            self._expect("THEN")
            value = self.parse_expression()
            branches.append((condition, value))
        if not branches:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        default = None
        if self._accept("ELSE"):
            default = self.parse_expression()
        self._expect("END")
        return CaseWhen(tuple(branches), default)

    def _identifier_expression(self) -> Expr:
        name = self._expect("IDENT").text
        if self._peek().kind == "LPAREN":
            return self._call(name)
        if self._accept("DOT"):
            column = self._expect("IDENT").text
            return ColumnRef(column, table=name)
        return ColumnRef(name)

    def _call(self, name: str) -> Expr:
        self._expect("LPAREN")
        lowered = name.lower()
        if lowered == "predict":
            return self._predict_call()
        if self._accept("STAR"):
            self._expect("RPAREN")
            return FunctionCall(lowered, (), star=True)
        args: list[Expr] = []
        if self._peek().kind != "RPAREN":
            args.append(self.parse_expression())
            while self._accept("COMMA"):
                args.append(self.parse_expression())
        self._expect("RPAREN")
        return FunctionCall(lowered, tuple(args))

    def _predict_call(self) -> Expr:
        token = self._peek()
        if token.kind in ("IDENT", "STRING"):
            model = self._advance().text
        else:
            raise SqlSyntaxError(
                f"PREDICT expects a model name at offset {token.position}"
            )
        features: list[str] = []
        while self._accept("COMMA"):
            features.append(self._expect("IDENT").text)
        self._expect("RPAREN")
        return Predict(model, tuple(features))


def parse_query(text: str) -> SelectQuery:
    """Parse one SELECT statement."""
    return Parser(text).parse_query()


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used by tests)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    if parser._peek().kind != "EOF":
        raise SqlSyntaxError("trailing content after expression")
    return expr
