"""Denotational semantics of the DSL (paper §2.2, Fig. 2).

**The canonical semantics (Eqn. 1).**  There is exactly one notion of
"row ``t`` is erroneous" in this codebase: ``[[p]]_t != t``, where
``[[p]]_t`` executes the program's statements in order, each statement
applies the **first** branch whose condition the *current* state
satisfies, and the **updated state is threaded** into the statements
that follow.  Every evaluation path implements this definition:

* **Row semantics** (here): :func:`run_program` / :func:`row_conforms`
  — the executable reference.
* **Vectorized semantics**: :func:`program_violations` (delegating to
  the compiled kernels of :mod:`repro.dsl.compiled`) — identical
  verdicts, computed over whole relations at once.
* **Streaming guard**: :class:`repro.errors.Guard` — identical
  verdicts, per incoming row (hash probes) or micro-batch (the
  compiled kernels).

The *branch-local* helpers (:func:`condition_mask`,
:func:`branch_masks`) are deliberately not state-threaded: they back
the ε-validity / loss / coverage metrics (Eqns. 2–6), which judge each
branch against the data as observed.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..relation import MISSING, Relation
from .ast import Branch, Condition, Program, Statement

Row = dict[str, Hashable]


# ---------------------------------------------------------------------------
# Row semantics
# ---------------------------------------------------------------------------


def condition_holds(condition: Condition, row: Row) -> bool:
    """``[[c]]_t``: does the row satisfy every equality atom?"""
    return all(row.get(name) == literal for name, literal in condition.atoms)


def apply_branch(branch: Branch, row: Row) -> Row:
    """``[[b]]_t``: if the condition holds, assign the dependent."""
    if condition_holds(branch.condition, row):
        updated = dict(row)
        updated[branch.dependent] = branch.literal
        return updated
    return row


def apply_statement(statement: Statement, row: Row) -> Row:
    """``[[s]]_t``: apply the (at most one) matching branch."""
    for branch in statement.branches:
        if condition_holds(branch.condition, row):
            updated = dict(row)
            updated[branch.dependent] = branch.literal
            return updated
    return row


def run_program(program: Program, row: Row) -> Row:
    """``[[p]]_t``: thread the state through every statement in order."""
    state = dict(row)
    for statement in program.statements:
        state = apply_statement(statement, state)
    return state


def row_conforms(program: Program, row: Row) -> bool:
    """The error-detection assertion (paper Eqn. 1): ``[[p]]_t = t``."""
    return run_program(program, row) == dict(row)


def branch_matches(statement: Statement, row: Row) -> Branch | None:
    """The branch of ``statement`` whose condition the row satisfies."""
    for branch in statement.branches:
        if condition_holds(branch.condition, row):
            return branch
    return None


# ---------------------------------------------------------------------------
# Vectorized semantics over relations
# ---------------------------------------------------------------------------


def _literal_code(relation: Relation, attribute: str, literal: Hashable) -> int:
    """Encode ``literal`` under the relation's codec; unseen → sentinel."""
    codec = relation.codec(attribute)
    if literal is None:
        return MISSING
    if literal in codec:
        return codec.encode_one(literal)
    return -2  # matches nothing, including MISSING


def condition_mask(condition: Condition, relation: Relation) -> np.ndarray:
    """Boolean mask of rows satisfying the condition (``D^b`` membership)."""
    mask = np.ones(relation.n_rows, dtype=bool)
    for name, literal in condition.atoms:
        code = _literal_code(relation, name, literal)
        mask &= relation.codes(name) == code
    return mask


def branch_masks(
    branch: Branch, relation: Relation
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(applicable, violating)`` masks for a branch.

    ``applicable`` is the condition mask (rows in ``D^b``); ``violating``
    are applicable rows whose dependent value differs from the branch
    literal — exactly the rows counted by the 0/1 loss.
    """
    applicable = condition_mask(branch.condition, relation)
    expected = _literal_code(relation, branch.dependent, branch.literal)
    violating = applicable & (relation.codes(branch.dependent) != expected)
    return applicable, violating


def statement_violations(statement: Statement, relation: Relation) -> np.ndarray:
    """Mask of rows whose *first* matching branch would rewrite them.

    First-match, like :func:`apply_statement`: once a branch's
    condition claims a row, later branches never see it, so a row can
    never be double-flagged by overlapping conditions.
    """
    out = np.zeros(relation.n_rows, dtype=bool)
    unclaimed = np.ones(relation.n_rows, dtype=bool)
    for branch in statement.branches:
        applicable, violating = branch_masks(branch, relation)
        out |= violating & unclaimed
        unclaimed &= ~applicable
    return out


def program_violations(program: Program, relation: Relation) -> np.ndarray:
    """Mask of rows violating the program (Eqn. 1 vectorized over D).

    Exactly ``[not row_conforms(p, t) for t in D]``: first-match branch
    selection *and* state threading, so a statement that rewrites an
    attribute feeds the corrected value to the statements after it.
    Implemented by the compiled kernels (:mod:`repro.dsl.compiled`),
    which cache condition masks per relation.
    """
    from .compiled import compiled_for

    return compiled_for(program, relation).detect(relation).row_mask


def statement_coverage_mask(statement: Statement, relation: Relation) -> np.ndarray:
    """Mask of rows covered by any branch of the statement (``D^s``)."""
    out = np.zeros(relation.n_rows, dtype=bool)
    for branch in statement.branches:
        out |= condition_mask(branch.condition, relation)
    return out
