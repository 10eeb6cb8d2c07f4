"""The :class:`Relation` column store.

A relation is an immutable-by-convention columnar table.  Categorical
columns are stored as ``int32`` code arrays with a :class:`~repro.relation.
encoding.Codec`; numeric columns as ``float64`` arrays.  All mutating
operations return a new :class:`Relation` sharing unchanged column arrays.

This substrate replaces pandas (not installed in the build environment)
for everything GUARDRAIL needs: row access for the DSL interpreter,
vectorized code matrices for structure learning, grouping for Algorithm 1,
and filtering/aggregation for the SQL executor.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from .encoding import MISSING, Codec
from .schema import Attribute, AttributeType, Schema, SchemaError


class RelationError(ValueError):
    """Raised on malformed relation construction or invalid operations."""


Row = dict[str, Any]


class Relation:
    """A columnar table over numpy arrays.

    Parameters
    ----------
    schema:
        Column names and types.
    columns:
        Mapping from attribute name to a numpy array.  Categorical columns
        must be ``int32`` code arrays; numeric columns ``float64``.
    codecs:
        Mapping from categorical attribute name to its :class:`Codec`.
    """

    # ``__weakref__`` lets the compiled-DSL layer key its condition-mask
    # caches on relations without pinning them in memory.
    __slots__ = ("_schema", "_columns", "_codecs", "_n_rows", "__weakref__")

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        codecs: Mapping[str, Codec],
    ):
        n_rows: int | None = None
        cols: dict[str, np.ndarray] = {}
        cdx: dict[str, Codec] = {}
        for attr in schema:
            if attr.name not in columns:
                raise RelationError(f"missing column data for {attr.name!r}")
            arr = np.asarray(columns[attr.name])
            if arr.ndim != 1:
                raise RelationError(f"column {attr.name!r} must be 1-D")
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise RelationError(
                    f"column {attr.name!r} has {arr.shape[0]} rows, "
                    f"expected {n_rows}"
                )
            if attr.is_categorical():
                if attr.name not in codecs:
                    raise RelationError(f"missing codec for {attr.name!r}")
                cols[attr.name] = arr.astype(np.int32, copy=False)
                cdx[attr.name] = codecs[attr.name]
            else:
                cols[attr.name] = arr.astype(np.float64, copy=False)
        self._schema = schema
        self._columns = cols
        self._codecs = cdx
        self._n_rows = 0 if n_rows is None else int(n_rows)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Row],
        schema: Schema | None = None,
        codecs: Mapping[str, Codec] | None = None,
    ) -> "Relation":
        """Build a relation from a sequence of row dicts.

        When ``schema`` is omitted, every attribute found in the first row
        is treated as categorical.  When ``codecs`` is omitted, codecs are
        fit from the data in first-seen order.
        """
        if schema is None:
            if not rows:
                raise RelationError("cannot infer schema from zero rows")
            schema = Schema.categorical(rows[0].keys())
        codecs = dict(codecs or {})
        columns: dict[str, np.ndarray] = {}
        for attr in schema:
            raw = [row.get(attr.name) for row in rows]
            if attr.is_categorical():
                codec = codecs.get(attr.name)
                if codec is None:
                    codec = Codec.fit(raw)
                    codecs[attr.name] = codec
                columns[attr.name] = codec.encode(raw)
            else:
                columns[attr.name] = np.array(
                    [np.nan if v is None else float(v) for v in raw],
                    dtype=np.float64,
                )
        return cls(schema, columns, codecs)

    @classmethod
    def from_columns(
        cls,
        data: Mapping[str, Sequence[Hashable]],
        schema: Schema | None = None,
        codecs: Mapping[str, Codec] | None = None,
    ) -> "Relation":
        """Build a relation from raw (decoded) column sequences."""
        if schema is None:
            schema = Schema.categorical(data.keys())
        codecs = dict(codecs or {})
        columns: dict[str, np.ndarray] = {}
        for attr in schema:
            raw = data[attr.name]
            if attr.is_categorical():
                codec = codecs.get(attr.name)
                if codec is None:
                    codec = Codec.fit(raw)
                    codecs[attr.name] = codec
                columns[attr.name] = codec.encode(list(raw))
            else:
                columns[attr.name] = np.asarray(raw, dtype=np.float64)
        return cls(schema, columns, codecs)

    @classmethod
    def from_codes(
        cls,
        codes: Mapping[str, np.ndarray],
        codecs: Mapping[str, Codec],
        schema: Schema | None = None,
    ) -> "Relation":
        """Build a relation directly from code arrays (all categorical)."""
        if schema is None:
            schema = Schema.categorical(codes.keys())
        return cls(schema, codes, codecs)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in schema order."""
        return self._schema.names

    def __len__(self) -> int:
        return self._n_rows

    def codec(self, name: str) -> Codec:
        """Return the codec of a categorical column."""
        try:
            return self._codecs[name]
        except KeyError:
            raise SchemaError(f"no codec for attribute {name!r}") from None

    def codecs(self) -> dict[str, Codec]:
        """Return a shallow copy of the codec mapping."""
        return dict(self._codecs)

    def codes(self, name: str) -> np.ndarray:
        """Return the raw ``int32`` code array of a categorical column."""
        attr = self._schema[name]
        if not attr.is_categorical():
            raise SchemaError(f"attribute {name!r} is not categorical")
        return self._columns[name]

    def numeric(self, name: str) -> np.ndarray:
        """Return a ``float64`` view of a column.

        Numeric columns are returned as-is; categorical columns are
        returned as their float-cast codes (useful for aggregation over
        integer-like categoricals).
        """
        attr = self._schema[name]
        arr = self._columns[name]
        if attr.is_numeric():
            return arr
        return arr.astype(np.float64)

    def column_values(self, name: str) -> list[Hashable]:
        """Return the decoded Python values of a column (NaN → None)."""
        attr = self._schema[name]
        if attr.is_categorical():
            return self._codecs[name].decode(self._columns[name])
        return [
            None if np.isnan(v) else float(v) for v in self._columns[name]
        ]

    def cardinality(self, name: str) -> int:
        """Number of distinct non-missing values observed in a column."""
        attr = self._schema[name]
        if attr.is_categorical():
            arr = self._columns[name]
            return int(np.unique(arr[arr != MISSING]).shape[0])
        arr = self._columns[name]
        return int(np.unique(arr[~np.isnan(arr)]).shape[0])

    def unique(self, name: str) -> list[Hashable]:
        """Distinct decoded values of a column, in code order."""
        attr = self._schema[name]
        if attr.is_categorical():
            arr = self._columns[name]
            codec = self._codecs[name]
            codes = np.unique(arr[arr != MISSING])
            return [codec.decode_one(int(c)) for c in codes]
        arr = self._columns[name]
        return [float(v) for v in np.unique(arr[~np.isnan(arr)])]

    def value(self, row: int, name: str) -> Hashable:
        """Decoded value of a single cell."""
        attr = self._schema[name]
        if attr.is_categorical():
            return self._codecs[name].decode_one(int(self._columns[name][row]))
        v = float(self._columns[name][row])
        return None if np.isnan(v) else v

    def row(self, index: int) -> Row:
        """Decoded values of one row as a dict."""
        if not 0 <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range")
        return {name: self.value(index, name) for name in self.names}

    def iter_rows(self) -> Iterator[Row]:
        """Iterate decoded rows (slow path; prefer vectorized access)."""
        for i in range(self._n_rows):
            yield self.row(i)

    def to_rows(self) -> list[Row]:
        """The relation as a list of decoded row dicts."""
        return list(self.iter_rows())

    def codes_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack categorical code columns into an ``(n_rows, k)`` matrix."""
        names = list(names if names is not None else self._schema.categorical_names())
        if not names:
            return np.empty((self._n_rows, 0), dtype=np.int32)
        return np.column_stack([self.codes(n) for n in names])

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Relation":
        """Restrict to the given attributes, preserving their order."""
        schema = self._schema.project(names)
        columns = {n: self._columns[n] for n in names}
        codecs = {n: self._codecs[n] for n in names if n in self._codecs}
        return Relation(schema, columns, codecs)

    def filter(self, mask: np.ndarray) -> "Relation":
        """Keep rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n_rows,):
            raise RelationError(
                f"mask shape {mask.shape} does not match {self._n_rows} rows"
            )
        columns = {n: arr[mask] for n, arr in self._columns.items()}
        return Relation(self._schema, columns, self._codecs)

    def take(self, indices: np.ndarray | Sequence[int]) -> "Relation":
        """Select rows by index (with repetition allowed)."""
        idx = np.asarray(indices, dtype=np.int64)
        columns = {n: arr[idx] for n, arr in self._columns.items()}
        return Relation(self._schema, columns, self._codecs)

    def head(self, n: int) -> "Relation":
        """The first ``n`` rows as a new relation."""
        return self.take(np.arange(min(n, self._n_rows)))

    def slice_rows(self, start: int, stop: int) -> "Relation":
        """A contiguous row range ``[start, stop)`` as a zero-copy view.

        Unlike :meth:`take`, the column arrays of the result are numpy
        basic slices *sharing memory* with this relation, so even a
        full-range slice costs no copy.  The result is a new relation
        with a fresh identity: per-relation caches (the detection and
        condition-mask caches of :mod:`repro.dsl.compiled`) start empty
        for it, which is how benchmarks time a cold scan of the same
        rows.  Treat the result as read-only, as the
        immutable-by-convention contract demands.
        """
        if not 0 <= start <= stop <= self._n_rows:
            raise RelationError(
                f"slice [{start}, {stop}) out of range for "
                f"{self._n_rows} rows"
            )
        columns = {n: arr[start:stop] for n, arr in self._columns.items()}
        return Relation(self._schema, columns, self._codecs)

    def with_column(
        self,
        name: str,
        values: Sequence[Hashable] | np.ndarray,
        type: AttributeType = AttributeType.CATEGORICAL,
        codec: Codec | None = None,
    ) -> "Relation":
        """Return a relation with a column added or replaced."""
        if name in self._schema:
            attrs = [
                Attribute(name, type) if a.name == name else a
                for a in self._schema
            ]
        else:
            attrs = list(self._schema) + [Attribute(name, type)]
        schema = Schema(attrs)
        columns = dict(self._columns)
        codecs = dict(self._codecs)
        if type is AttributeType.CATEGORICAL:
            if codec is None:
                codec = Codec.fit(values)
                columns[name] = codec.encode(list(values))
            else:
                arr = np.asarray(values)
                if arr.dtype.kind in "iu":
                    columns[name] = arr.astype(np.int32)
                else:
                    columns[name] = codec.encode(list(values))
            codecs[name] = codec
        else:
            columns[name] = np.asarray(values, dtype=np.float64)
            codecs.pop(name, None)
        return Relation(schema, columns, codecs)

    def replace_codes(self, name: str, codes: np.ndarray) -> "Relation":
        """Replace a categorical column's code array, keeping its codec."""
        attr = self._schema[name]
        if not attr.is_categorical():
            raise SchemaError(f"attribute {name!r} is not categorical")
        codes = np.asarray(codes, dtype=np.int32)
        if codes.shape != (self._n_rows,):
            raise RelationError("replacement codes have wrong length")
        columns = dict(self._columns)
        columns[name] = codes
        return Relation(self._schema, columns, self._codecs)

    def set_cell(self, row: int, name: str, value: Hashable) -> "Relation":
        """Return a relation with a single cell replaced.

        The codec is extended if the value is unseen.
        """
        attr = self._schema[name]
        columns = dict(self._columns)
        codecs = dict(self._codecs)
        if attr.is_categorical():
            codec = codecs[name].extend([value])
            codecs[name] = codec
            arr = columns[name].copy()
            arr[row] = codec.encode_one(value)
            columns[name] = arr
        else:
            arr = columns[name].copy()
            arr[row] = np.nan if value is None else float(value)
            columns[name] = arr
        return Relation(self._schema, columns, codecs)

    def concat(self, other: "Relation") -> "Relation":
        """Vertically concatenate two relations with identical schemas.

        Codecs must match exactly (use :meth:`align_codecs` first if not).
        """
        if self._schema != other._schema:
            raise RelationError("cannot concat relations with different schemas")
        for name in self._schema.categorical_names():
            if self._codecs[name] != other._codecs[name]:
                raise RelationError(f"codec mismatch on column {name!r}")
        columns = {
            n: np.concatenate([self._columns[n], other._columns[n]])
            for n in self.names
        }
        return Relation(self._schema, columns, self._codecs)

    def align_codecs(self, codecs: Mapping[str, Codec]) -> "Relation":
        """Re-encode categorical columns under the given (super)codecs."""
        columns = dict(self._columns)
        new_codecs = dict(self._codecs)
        for name in self._schema.categorical_names():
            target = codecs.get(name)
            if target is None or target == self._codecs[name]:
                continue
            old = self._codecs[name]
            remap = np.array(
                [target.encode_one(v) for v in old.values], dtype=np.int32
            )
            arr = self._columns[name]
            out = np.full(arr.shape, MISSING, dtype=np.int32)
            valid = arr != MISSING
            out[valid] = remap[arr[valid]]
            columns[name] = out
            new_codecs[name] = target
        return Relation(self._schema, columns, new_codecs)

    # ------------------------------------------------------------------
    # Grouping and splitting
    # ------------------------------------------------------------------

    def group_indices(
        self, names: Sequence[str]
    ) -> dict[tuple[int, ...], np.ndarray]:
        """Group row indices by the code tuples of the given columns."""
        if not names:
            return {(): np.arange(self._n_rows)}
        matrix = self.codes_matrix(names)
        order = np.lexsort(matrix.T[::-1])
        sorted_matrix = matrix[order]
        changes = np.any(np.diff(sorted_matrix, axis=0) != 0, axis=1)
        boundaries = np.concatenate([[0], np.nonzero(changes)[0] + 1, [len(order)]])
        groups: dict[tuple[int, ...], np.ndarray] = {}
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            key = tuple(int(c) for c in sorted_matrix[start])
            groups[key] = order[start:stop]
        return groups

    def split(
        self, fraction: float, rng: np.random.Generator | None = None
    ) -> tuple["Relation", "Relation"]:
        """Randomly split into (first, second) with ``fraction`` in first."""
        if not 0.0 < fraction < 1.0:
            raise RelationError("fraction must be in (0, 1)")
        rng = rng or np.random.default_rng(0)
        perm = rng.permutation(self._n_rows)
        cut = int(round(self._n_rows * fraction))
        return self.take(perm[:cut]), self.take(perm[cut:])

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------

    def equals(self, other: "Relation") -> bool:
        """Deep equality on schema, codecs, and cell values."""
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        for name in self.names:
            a, b = self._columns[name], other._columns[name]
            if self._schema[name].is_numeric():
                if not np.allclose(a, b, equal_nan=True):
                    return False
            else:
                if self._codecs[name] != other._codecs[name]:
                    return False
                if not np.array_equal(a, b):
                    return False
        return True

    def rows_differ(self, other: "Relation") -> np.ndarray:
        """Boolean mask of rows whose cells differ between two relations.

        Both relations must share schema and codecs (e.g., a clean table
        and its error-injected copy).
        """
        if self._schema != other._schema or self._n_rows != other._n_rows:
            raise RelationError("relations are not comparable")
        diff = np.zeros(self._n_rows, dtype=bool)
        for name in self.names:
            a, b = self._columns[name], other._columns[name]
            if self._schema[name].is_numeric():
                both_nan = np.isnan(a) & np.isnan(b)
                diff |= ~both_nan & (a != b)
            else:
                diff |= a != b
        return diff

    def __repr__(self) -> str:
        return f"Relation({self._n_rows} rows, {len(self._schema)} cols)"

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------

    def to_text(self, max_rows: int = 10) -> str:
        """Render a small ASCII table (for examples and debugging)."""
        names = self.names
        rows = [self.row(i) for i in range(min(max_rows, self._n_rows))]
        cells = [[str(r[n]) for n in names] for r in rows]
        widths = [
            max(len(n), *(len(c[i]) for c in cells)) if cells else len(n)
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells
        ]
        lines = [header, sep, *body]
        if self._n_rows > max_rows:
            lines.append(f"... ({self._n_rows - max_rows} more rows)")
        return "\n".join(lines)


def apply_aggregate(
    func: Callable[[np.ndarray], float], values: np.ndarray
) -> float:
    """Apply an aggregate, treating NaN as missing; empty input yields NaN."""
    clean = values[~np.isnan(values)]
    if clean.size == 0:
        return float("nan")
    return float(func(clean))
