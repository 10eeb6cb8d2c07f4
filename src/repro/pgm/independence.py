"""Conditional independence tests for discrete data.

Structure learning (the PC algorithm, §4.4–4.5) is driven by CI queries
``X ⊥ Y | Z`` answered from data.  We provide the standard G² likelihood-
ratio test and Pearson's χ² test over contingency tables, both computed
vectorized from integer-coded columns.

Tests operate on a :class:`CITester` bound to a code matrix, so repeated
queries (PC runs many) share per-column state and a memo table.  One
query is one pass over its rows: the ``(Z…, x, y)`` tuples become one
mixed-radix key, counted at once, and every stratum's statistic, degrees
of freedom and sample-size check come out of the same array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ..relation import MISSING, Relation


class IndependenceError(ValueError):
    """Raised for malformed CI queries."""


@dataclass(frozen=True)
class CIResult:
    """Outcome of a conditional independence test."""

    statistic: float
    p_value: float
    dof: int
    independent: bool

    def __bool__(self) -> bool:  # truthiness == "independent"
        return self.independent


def _g2_from_table(table: np.ndarray) -> tuple[float, int]:
    """G² statistic and degrees of freedom of one contingency table."""
    total = table.sum()
    if total == 0:
        return 0.0, 0
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    expected = rows @ cols / total
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(table > 0, table / expected, 1.0)
        g2 = 2.0 * float(np.sum(table * np.log(ratio)))
    # Degrees of freedom with structural-zero adjustment: drop empty
    # rows/columns before counting.
    nonzero_rows = int(np.count_nonzero(rows))
    nonzero_cols = int(np.count_nonzero(cols))
    dof = max(nonzero_rows - 1, 0) * max(nonzero_cols - 1, 0)
    return max(g2, 0.0), dof


def _x2_from_table(table: np.ndarray) -> tuple[float, int]:
    """Pearson χ² statistic and degrees of freedom of one table."""
    total = table.sum()
    if total == 0:
        return 0.0, 0
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    expected = rows @ cols / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    x2 = float(terms.sum())
    nonzero_rows = int(np.count_nonzero(rows))
    nonzero_cols = int(np.count_nonzero(cols))
    dof = max(nonzero_rows - 1, 0) * max(nonzero_cols - 1, 0)
    return x2, dof


_DENSE_CELLS_PER_ROW = 8
"""Count a query's cells with one ``bincount`` over the whole key space
while it has at most this many cells per row, else sort the rows' keys.
Counting breaks even with sorting at 16–32 cells per row (2 000 and
24 000 rows, 2-vCPU VM); 8 keeps it clearly cheaper, with a count
array of at most 64 bytes per row."""

_KEY_LIMIT = 1 << 62
"""Largest key space a mixed-radix int64 key may span (overflow guard)."""


def _column_state(block: np.ndarray) -> tuple[list[int], list[bool]]:
    """Per-column cardinality bound and MISSING flag of a code block.

    Raises :class:`IndependenceError` unless the codes are integers no
    smaller than :data:`~repro.relation.MISSING`.
    """
    if not np.issubdtype(block.dtype, np.integer):
        raise IndependenceError(f"codes must be integers, got {block.dtype}")
    lowest = block.min(axis=0, initial=0)
    if np.any(lowest < MISSING):
        raise IndependenceError(f"codes must be >= MISSING ({MISSING})")
    cards = [int(high) + 1 for high in block.max(axis=0, initial=0)]
    return cards, [bool(low == MISSING) for low in lowest]


def _lex_key(columns: Sequence[np.ndarray], cards: Sequence[int]) -> np.ndarray:
    """An int64 key ordering rows lexicographically by ``columns``.

    A mixed-radix code; whenever the next radix would push the key space
    past :data:`_KEY_LIMIT`, the key so far (and, if still too wide, the
    next column) is first re-ranked densely with ``np.unique``, which
    keeps the order and bounds each factor by the row count.
    """
    key = np.zeros(columns[0].size, dtype=np.int64)
    space = 1
    for column, card in zip(columns, cards):
        if space * card > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            space = int(key.max()) + 1
            if space * card > _KEY_LIMIT:
                values, column = np.unique(column, return_inverse=True)
                card = values.size
        key *= card
        key += column
        space *= card
    return key


def _observed_cells(
    columns: Sequence[np.ndarray], cards: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(z…, x, y)`` tuples among the rows, in lexicographic
    order, as ``(opens_stratum, x, y, counts)`` per tuple.

    ``opens_stratum[i]`` says whether tuple ``i`` has other ``z`` values
    than tuple ``i - 1`` (always true for the first).
    """
    key = _lex_key(columns, cards)
    space = math.prod(cards)
    if space <= _DENSE_CELLS_PER_ROW * key.size:
        counts = np.bincount(key, minlength=space)
        cells = np.flatnonzero(counts)
        counts = counts[cells]
        cells, y = np.divmod(cells, cards[-1])
        strata, x = np.divmod(cells, cards[-2])
        opens = np.empty(cells.size, dtype=bool)
        opens[0] = True
        np.not_equal(strata[1:], strata[:-1], out=opens[1:])
        return opens, x, y, counts
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    opens = np.zeros(first.size, dtype=bool)
    opens[0] = True
    for column in columns[:-2]:
        at = column[first]
        opens[1:] |= at[1:] != at[:-1]
    return opens, columns[-2][first], columns[-1][first], counts


def _stratum_tables(
    opens: np.ndarray, x: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every stratum's contingency table, flattened and concatenated.

    A stratum's table is the crosstab of its rows: one row per ``x``
    value and one column per ``y`` value that occurs in the stratum, in
    code order, laid out row-major.  Returns ``(table, expected, owner,
    totals, dof)``: the cell counts, their expected counts under
    independence within the stratum, each cell's stratum index, and per
    stratum its number of data rows and ``(rows - 1) * (columns - 1)``.
    """
    stratum = np.cumsum(opens) - 1
    n_strata = int(stratum[-1]) + 1
    # Cells are sorted by (stratum, x, y), so a table row is a run.
    opens_row = opens.copy()
    opens_row[1:] |= x[1:] != x[:-1]
    row = np.cumsum(opens_row) - 1
    by_column = np.lexsort((y, stratum))
    column_stratum = stratum[by_column]
    column_y = y[by_column]
    opens_column = np.ones(by_column.size, dtype=bool)
    opens_column[1:] = (column_stratum[1:] != column_stratum[:-1]) | (
        column_y[1:] != column_y[:-1]
    )
    column = np.empty_like(row)
    column[by_column] = np.cumsum(opens_column) - 1
    n_rows = np.bincount(stratum[opens_row], minlength=n_strata)
    n_columns = np.bincount(column_stratum[opens_column], minlength=n_strata)
    weights = counts.astype(np.float64)
    row_sums = np.bincount(row, weights)
    column_sums = np.bincount(column, weights)
    totals = np.bincount(stratum, weights)
    row_base = np.cumsum(n_rows) - n_rows
    column_base = np.cumsum(n_columns) - n_columns
    sizes = n_rows * n_columns
    offsets = np.cumsum(sizes) - sizes
    table = np.zeros(int(offsets[-1] + sizes[-1]))
    width = n_columns[stratum]
    table[
        offsets[stratum]
        + (row - row_base[stratum]) * width
        + column
        - column_base[stratum]
    ] = weights
    owner = np.repeat(np.arange(n_strata), sizes)
    local_row, local_column = np.divmod(
        np.arange(table.size) - offsets[owner], n_columns[owner]
    )
    expected = (
        row_sums[row_base[owner] + local_row]
        * column_sums[column_base[owner] + local_column]
        / totals[owner]
    )
    return table, expected, owner, totals, (n_rows - 1) * (n_columns - 1)


class CITester:
    """Conditional independence oracle over an integer code matrix.

    Parameters
    ----------
    codes:
        ``(n_rows, n_columns)`` integer matrix with every code at least
        :data:`~repro.relation.MISSING`; rows containing ``MISSING`` in
        the queried columns are dropped per query.
    names:
        Distinct column names, used for query addressing.
    alpha:
        Significance level; p-values above ``alpha`` are read as
        independent.
    method:
        ``"g2"`` (default) or ``"x2"``.
    min_samples_per_dof:
        Heuristic sample-size guard: when the per-stratum table would
        have fewer samples than this multiple of its degrees of freedom,
        the stratum is skipped (standard practice in discrete PC
        implementations to avoid vacuous rejections).
    """

    def __init__(
        self,
        codes: np.ndarray,
        names: Sequence[str],
        alpha: float = 0.05,
        method: str = "g2",
        min_samples_per_dof: float = 0.0,
    ):
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise IndependenceError("codes must be a 2-D matrix")
        if codes.shape[1] != len(names):
            raise IndependenceError("names do not match matrix width")
        if len(set(names)) != len(names):
            raise IndependenceError("column names must be distinct")
        if method not in ("g2", "x2"):
            raise IndependenceError(f"unknown method: {method!r}")
        self._cards, self._has_missing = _column_state(codes)
        # Column-major, so every column a query reads is one contiguous
        # block rather than a strided view of a row-major matrix.
        self._codes = np.asfortranarray(codes)
        self._columns = list(self._codes.T)
        self._names = list(names)
        self._positions = {name: i for i, name in enumerate(self._names)}
        self.alpha = alpha
        self.method = method
        self.min_samples_per_dof = min_samples_per_dof
        self._memo: dict[tuple, CIResult] = {}
        self.n_queries = 0

    @classmethod
    def from_relation(
        cls, relation: Relation, alpha: float = 0.05, method: str = "g2"
    ) -> "CITester":
        """Build a tester from a relation's encoded categorical columns."""
        names = relation.schema.categorical_names()
        return cls(relation.codes_matrix(names), names, alpha=alpha, method=method)

    @property
    def names(self) -> list[str]:
        """The variable names, in column order."""
        return list(self._names)

    def column(self, name: str) -> np.ndarray:
        """The codes of one variable (a read-only view of shared state)."""
        view = self._columns[self._position(name)].view()
        view.flags.writeable = False
        return view

    def add_column(self, name: str, codes: np.ndarray) -> None:
        """Add a variable, e.g. a composite of several columns.

        Raises :class:`IndependenceError` if ``name`` is taken or the
        codes are not one integer code (at least ``MISSING``) per row.
        """
        if name in self._positions:
            raise IndependenceError(f"column {name!r} already exists")
        column = np.ascontiguousarray(codes)
        if column.shape != (self._codes.shape[0],):
            raise IndependenceError(
                f"column {name!r} needs {self._codes.shape[0]} codes, "
                f"got shape {column.shape}"
            )
        (card,), (has_missing,) = _column_state(column[:, None])
        self._positions[name] = len(self._names)
        self._names.append(name)
        self._columns.append(column)
        self._cards.append(card)
        self._has_missing.append(has_missing)

    def _position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise IndependenceError(f"unknown column: {name!r}") from None

    def test(
        self, x: str, y: str, given: Sequence[str] = ()
    ) -> CIResult:
        """Test ``x ⊥ y | given`` and return the full result."""
        if x == y:
            raise IndependenceError("x and y must differ")
        z = tuple(sorted(given))
        if x in z or y in z:
            raise IndependenceError("conditioning set cannot contain x or y")
        key = (min(x, y), max(x, y), z)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self.n_queries += 1
        result = self._run_test(x, y, z)
        self._memo[key] = result
        return result

    def independent(self, x: str, y: str, given: Sequence[str] = ()) -> bool:
        """Convenience wrapper returning only the verdict."""
        return self.test(x, y, given).independent

    def _run_test(self, x: str, y: str, z: tuple[str, ...]) -> CIResult:
        positions = [self._position(name) for name in (*z, x, y)]
        columns = [self._columns[i] for i in positions]
        keep = None
        for i, column in zip(positions, columns):
            if self._has_missing[i]:
                present = column != MISSING
                keep = present if keep is None else keep & present
        if keep is not None:
            columns = [column[keep] for column in columns]
        if columns[0].size == 0:
            return CIResult(0.0, 1.0, 0, True)

        table, expected, owner, totals, dof = _stratum_tables(
            *_observed_cells(columns, [self._cards[i] for i in positions])
        )
        if self.method == "g2":
            ratio = np.where(table > 0, table / expected, 1.0)
            per_stratum = 2.0 * np.bincount(
                owner, table * np.log(ratio), totals.size
            )
            np.maximum(per_stratum, 0.0, out=per_stratum)
        else:
            per_stratum = np.bincount(
                owner, (table - expected) ** 2 / expected, totals.size
            )
        if self.min_samples_per_dof > 0:
            # Too sparse to be informative (standard discrete-PC
            # practice): a sparse stratum adds neither statistic nor
            # dof; a sparse unconditional table keeps its statistic.
            sparse = (dof > 0) & (totals < self.min_samples_per_dof * dof)
            dof = dof[~sparse]
            if z:
                per_stratum = per_stratum[~sparse]
        # Strata add up one by one, in lexicographic order of Z.
        statistic = float(np.cumsum(per_stratum)[-1]) if per_stratum.size else 0.0
        dof = int(dof.sum())
        if dof == 0:
            # Degenerate tables (a constant margin everywhere) carry no
            # evidence of dependence.
            return CIResult(statistic, 1.0, 0, True)
        p_value = float(special.chdtrc(dof, statistic))
        return CIResult(statistic, p_value, dof, p_value > self.alpha)
