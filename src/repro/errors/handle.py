"""Error-handling strategies (paper §7, Example 1.2).

Mirroring pandas' error-handling vocabulary, GUARDRAIL offers:

* ``raise``  — abort on the first violating row;
* ``ignore`` — pass data through unchanged (violations still reported);
* ``coerce`` — blank the violated dependent cells (NaN-equivalent);
* ``rectify`` — GUARDRAIL's novel strategy: replace erroneous cells
  with the *most likely correct value* via a minimal single-cell
  repair over the implicated attributes, falling back to the
  per-statement dependent rewrite ``[[p]]_t`` (the iterative process
  the case study in appendix F walks through).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .. import obs
from ..dsl import Program
from ..relation import MISSING, Relation
from .detect import DetectionResult, detect_errors


class DataIntegrityError(ValueError):
    """Raised by the ``raise`` strategy on a constraint violation."""

    def __init__(self, message: str, rows: list[int]):
        super().__init__(message)
        self.rows = rows


class Strategy(enum.Enum):
    """The four error-handling strategies."""

    RAISE = "raise"
    IGNORE = "ignore"
    COERCE = "coerce"
    RECTIFY = "rectify"

    @classmethod
    def parse(cls, value: "Strategy | str") -> "Strategy":
        """Coerce a string (or Strategy) into a Strategy member."""
        if isinstance(value, Strategy):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            options = ", ".join(s.value for s in cls)
            raise ValueError(
                f"unknown strategy {value!r}; expected one of {options}"
            ) from None


@dataclass
class HandlingOutcome:
    """The handled relation plus what was done to it."""

    relation: Relation
    detection: DetectionResult
    strategy: Strategy
    cells_changed: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_changed(self) -> int:
        """Number of cells the strategy modified."""
        return len(self.cells_changed)


def apply_strategy(
    program: Program,
    relation: Relation,
    strategy: "Strategy | str" = Strategy.RECTIFY,
    pool=None,
) -> HandlingOutcome:
    """Vet a relation against a program under the chosen strategy.

    ``pool`` (a :class:`repro.parallel.WorkerPool`, a worker count, or
    ``None``) parallelizes the detection pass over row shards; the
    strategy then acts on the merged, bit-identical verdicts.
    """
    strategy = Strategy.parse(strategy)
    detection = detect_errors(program, relation, pool=pool)
    if strategy is Strategy.RAISE:
        if detection.n_flagged_rows:
            rows = [int(r) for r in detection.flagged_rows()[:10]]
            raise DataIntegrityError(
                f"{detection.n_flagged_rows} rows violate the integrity "
                f"constraints (first rows: {rows})",
                rows,
            )
        return HandlingOutcome(relation, detection, strategy)
    if strategy is Strategy.IGNORE:
        return HandlingOutcome(relation, detection, strategy)
    if strategy is Strategy.COERCE:
        return _coerce(program, relation, detection)
    return _rectify(program, relation, detection)


def _coerce(
    program: Program, relation: Relation, detection: DetectionResult
) -> HandlingOutcome:
    """Blank every violated dependent cell.

    The blanked cells are exactly the ones the canonical detection
    implicates (first-match, state-threaded), so a corrupted upstream
    determinant no longer blanks the — consistent — cells downstream
    of its corrected value.
    """
    changed: list[tuple[int, str]] = []
    codes: dict[str, np.ndarray] = {}
    for violation in detection.violations:
        name = violation.attribute
        if name not in codes:
            codes[name] = relation.codes(name).copy()
        codes[name][violation.row] = MISSING
        changed.append((violation.row, name))
    out = relation
    for name, arr in codes.items():
        out = out.replace_codes(name, arr)
    return HandlingOutcome(out, detection, Strategy.COERCE, changed)


def _rectify(
    program: Program, relation: Relation, detection: DetectionResult
) -> HandlingOutcome:
    """Replace erroneous cells with the most likely correct values.

    For each violating row we search for the *minimal repair*: a single
    cell change (over the attributes the violated branches implicate —
    dependents and determinants alike) after which the whole row
    conforms to the program.  This recovers the common case where a
    corrupted determinant triggers violations in several downstream
    statements at once: the shared determinant is the likely culprit,
    not the (correct) dependents.  When no single-cell repair conforms,
    we fall back to the per-statement dependent rewrite ``[[p]]_t``
    (the case study's iterative process).  The search runs on the hash
    tables of one :class:`~repro.errors.Guard` per call, the same
    repair :meth:`~repro.errors.Guard.rectify` makes per row; its
    stat-free form adds nothing to the guard's stats and emits no
    ``guard.*`` record.  The repair runs under one ``errors.rectify``
    span.
    """
    from .stream import Guard

    flagged = detection.flagged_rows().tolist()
    with obs.span("errors.rectify", n_rows=len(flagged)):
        guard = Guard(program, relation.codecs())
        updates: dict[str, dict[int, Hashable]] = {}
        changed: list[tuple[int, str]] = []
        for row_index in flagged:
            repair = guard._repair(relation.row(row_index))
            for name, value in repair.items():
                updates.setdefault(name, {})[row_index] = value
                changed.append((row_index, name))

        out = relation
        for name, cells in updates.items():
            codec = out.codec(name).extend(cells.values())
            if codec is not out.codec(name):
                out = out.align_codecs({name: codec})
            arr = out.codes(name).copy()
            for row_index, value in cells.items():
                arr[row_index] = codec.encode_one(value)
            out = out.replace_codes(name, arr)
    return HandlingOutcome(out, detection, Strategy.RECTIFY, changed)
