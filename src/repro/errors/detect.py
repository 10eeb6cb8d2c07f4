"""Violation detection against a synthesized program (paper Eqn. 1).

A row *violates* the program when executing the DGP program on it
changes some attribute: ``[[p]]_t != t``, with first-match branch
selection and state threading exactly as :func:`repro.dsl.run_program`
defines (the canonical semantics — see :mod:`repro.dsl.semantics`).
Detection reports both row-level verdicts and the implicated cells (the
dependent attribute of each state-changing branch application), which
is what cell-level scoring and the rectify strategy consume.

The heavy lifting happens in the compiled kernels of
:mod:`repro.dsl.compiled`: the program is lowered once per codec set,
and condition masks are cached per relation, so repeated detection over
the same data costs a handful of array ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..dsl import Branch, Program, compiled_for
from ..relation import Relation


@dataclass(frozen=True)
class Violation:
    """One branch violated by one row."""

    row: int
    branch: Branch

    @property
    def attribute(self) -> str:
        """The dependent attribute the violated branch writes."""
        return self.branch.dependent

    @property
    def expected(self) -> object:
        """The literal the violated branch expects."""
        return self.branch.literal


@dataclass
class DetectionResult:
    """All violations of a program over a relation."""

    row_mask: np.ndarray
    violations: list[Violation] = field(default_factory=list)

    @property
    def n_flagged_rows(self) -> int:
        """Number of rows violating at least one branch."""
        return int(np.count_nonzero(self.row_mask))

    def flagged_rows(self) -> np.ndarray:
        """Indices of the violating rows."""
        return np.nonzero(self.row_mask)[0]

    def by_row(self) -> dict[int, list[Violation]]:
        """Violations grouped by row index."""
        out: dict[int, list[Violation]] = {}
        for violation in self.violations:
            out.setdefault(violation.row, []).append(violation)
        return out

    def flagged_cells(self) -> set[tuple[int, str]]:
        """(row, attribute) pairs the program implicates."""
        return {(v.row, v.attribute) for v in self.violations}


def detect_errors(program: Program, relation: Relation) -> DetectionResult:
    """Find every (row, branch) violation via the compiled kernels.

    Verdicts agree exactly with per-row :func:`repro.dsl.row_conforms`:
    ``row_mask[i]`` is True iff running the program on row ``i`` changes
    it, and each reported :class:`Violation` is one state-changing
    first-match branch application on a flagged row.
    """
    with obs.span(
        "errors.detect",
        n_rows=relation.n_rows,
        n_statements=len(program),
    ) as detect_span:
        result = compiled_for(program, relation).detect(relation)
        violations = [
            Violation(int(row), branch)
            for row, branch in result.iter_violations()
        ]
        detect_span.set(
            flagged_rows=result.n_flagged,
            violations=len(violations),
        )
    return DetectionResult(row_mask=result.row_mask, violations=violations)
