"""Tests for the DSL → SQL translation."""

import numpy as np

from repro.datasets import load
from repro.dsl import (
    Branch,
    Condition,
    Program,
    Statement,
    check_constraints,
    program_violations,
    rectify_updates,
    violations_query,
)
from repro.errors import inject_errors
from repro.sql import QueryExecutor
from repro.synth import Guardrail


def make_program() -> Program:
    statement = Statement(
        ("rel",),
        "marital",
        (
            Branch(Condition.of(rel="Husband"), "marital", "Married"),
            Branch(Condition.of(rel="Wife"), "marital", "Married"),
        ),
    )
    return Program((statement,))


def test_violations_query_structure():
    sql = violations_query(make_program(), "adult")
    assert sql.startswith('SELECT * FROM "adult"')
    assert '"rel" = \'Husband\'' in sql
    assert '"marital" <> \'Married\'' in sql
    assert " OR " in sql


def test_violations_query_runs_through_the_sql_engine():
    """The exported query, run exactly as emitted, returns the rows the
    interpreter flags, in row order."""
    relation = load(6, n_rows=600).relation
    program = Guardrail().fit(relation).program
    dirty = inject_errors(
        relation, rate=0.05, rng=np.random.default_rng(1)
    ).relation
    flagged = np.flatnonzero(program_violations(program, dirty))
    assert flagged.size > 0
    result = QueryExecutor({"blood": dirty}).execute(
        violations_query(program, "blood")
    )
    assert result.names == list(dirty.names)
    assert result.rows == [
        tuple(dirty.row(int(i))[name] for name in dirty.names)
        for i in flagged
    ]


def test_violations_query_empty_program():
    sql = violations_query(Program.empty(), "t")
    assert "WHERE FALSE" in sql


def test_check_constraints_one_per_statement():
    clauses = check_constraints(make_program())
    assert len(clauses) == 1
    assert clauses[0].startswith("CHECK (NOT (")


def test_rectify_updates_one_per_branch():
    updates = rectify_updates(make_program(), "adult")
    assert len(updates) == 2
    assert all(u.startswith('UPDATE "adult" SET') for u in updates)
    assert all(u.rstrip().endswith(";") for u in updates)


def test_sql_literal_escaping():
    program = Program(
        (
            Statement(
                ("a",),
                "b",
                (Branch(Condition.of(a="O'Brien"), "b", True),),
            ),
        )
    )
    sql = violations_query(program, "t")
    assert "O''Brien" in sql
    assert "TRUE" in sql


def test_numeric_and_null_literals():
    program = Program(
        (
            Statement(
                ("a",),
                "b",
                (Branch(Condition.of(a=3), "b", None),),
            ),
        )
    )
    sql = violations_query(program, "t")
    assert '"a" = 3' in sql
    assert "NULL" in sql
