"""Local and global non-triviality of sketches (paper §4.1).

* **LNT** (Def. 4.1): a statement sketch is locally non-trivial when its
  dependent attribute is statistically dependent on its determinant set
  — i.e., there exists a concretization beating a random guess.
* **GNT** (Def. 4.2): every statement stays informative after
  conditioning on the structure captured by the other statements —
  ruling out redundant sketches like ``GIVEN PostalCode ON State`` when
  ``GIVEN City ON State`` is already present (Example 4.1).

Both checks reduce to (conditional) dependence queries.  Determinant
*sets* are handled by compounding them into a single composite variable
(the Cartesian product of their codes), which is exact for testing joint
dependence on discrete data.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..pgm.independence import CITester
from ..relation import MISSING
from .ast import ProgramSketch, StatementSketch


def compound_codes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Collapse several code columns into one composite code column.

    Each distinct combination receives a dense code; rows with a missing
    component become missing in the composite.
    """
    if not columns:
        raise ValueError("need at least one column")
    stacked = np.column_stack(columns)
    missing = np.any(stacked == MISSING, axis=1)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    out = inverse.astype(np.int32)
    out[missing] = MISSING
    return out


class SketchJudge:
    """Answers LNT/GNT queries against a CI tester's dataset."""

    def __init__(self, tester: CITester):
        self._tester = tester
        self._names = tester.names
        self._compound_cache: dict[tuple[str, ...], str] = {}

    def _composite(self, attributes: tuple[str, ...]) -> str:
        """Name of (possibly newly materialized) composite column."""
        if len(attributes) == 1:
            return attributes[0]
        key = tuple(sorted(attributes))
        if key in self._compound_cache:
            return self._compound_cache[key]
        name = "&".join(key)
        self._tester.add_column(
            name, compound_codes([self._tester.column(a) for a in key])
        )
        self._compound_cache[key] = name
        return name

    def is_lnt(self, sketch: StatementSketch) -> bool:
        """Def. 4.1: dependent ⊥̸ determinants."""
        composite = self._composite(sketch.determinants)
        return not self._tester.independent(sketch.dependent, composite)

    def is_gnt(self, program: ProgramSketch) -> bool:
        """Def. 4.2 for the whole sketch (requires LNT throughout)."""
        return all(self.statement_is_gnt(s, program) for s in program)

    def statement_is_gnt(
        self, sketch: StatementSketch, program: ProgramSketch
    ) -> bool:
        """Is ``sketch`` still informative given every other sketch?

        Following the proof of Thm. 4.1, we require the dependence
        ``a_j ⊥̸ a_k | a_z`` to survive conditioning on the determinant
        sets ``a_z`` contributed by the other statement sketches
        (skipping conditioning sets that overlap the tested pair).
        """
        if not self.is_lnt(sketch):
            return False
        blocked = set(sketch.determinants) | {sketch.dependent}
        composite = self._composite(sketch.determinants)
        for other in program:
            if other == sketch:
                continue
            conditioning = tuple(
                a for a in other.determinants if a not in blocked
            )
            if not conditioning:
                continue
            if self._tester.independent(
                sketch.dependent, composite, conditioning
            ):
                return False
        return True

    def prune_to_gnt(self, program: ProgramSketch) -> ProgramSketch:
        """Drop statements until the sketch is GNT.

        Greedy: repeatedly remove a statement that fails the GNT check
        (non-LNT statements go first).  Used as a post-processing pass
        when structure learning produced redundant edges.
        """
        statements = [s for s in program if self.is_lnt(s)]
        changed = True
        while changed:
            changed = False
            current = ProgramSketch(tuple(statements))
            for statement in list(statements):
                if not self.statement_is_gnt(statement, current):
                    statements.remove(statement)
                    changed = True
                    break
        return ProgramSketch(tuple(statements))
