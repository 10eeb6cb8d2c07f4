"""Dictionary encoding for categorical columns.

Categorical columns are stored as ``int32`` code arrays plus a
:class:`Codec` mapping codes back to the original Python values.  A code
of :data:`MISSING` (-1) marks a missing/NaN cell.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

MISSING: int = -1
"""Sentinel code for a missing categorical value."""


class CodecError(ValueError):
    """Raised when decoding an unknown code or encoding fails."""


class Codec:
    """A bidirectional mapping between categorical values and int codes.

    Codes are dense, starting at zero, assigned in first-seen order by
    :meth:`fit`.  The codec is immutable once built; :meth:`extend`
    returns a new codec with extra values appended.
    """

    __slots__ = ("_values", "_codes")

    def __init__(self, values: Iterable[Hashable]):
        vals = tuple(values)
        codes: dict[Hashable, int] = {}
        for code, value in enumerate(vals):
            if value in codes:
                raise CodecError(f"duplicate categorical value: {value!r}")
            codes[value] = code
        self._values = vals
        self._codes = codes

    @classmethod
    def fit(cls, data: Iterable[Hashable]) -> "Codec":
        """Build a codec from raw data, in first-seen order, skipping None."""
        seen: dict[Hashable, None] = {}
        for value in data:
            if value is not None and value not in seen:
                seen[value] = None
        return cls(seen.keys())

    @property
    def cardinality(self) -> int:
        """Number of distinct encoded values."""
        return len(self._values)

    @property
    def values(self) -> tuple[Hashable, ...]:
        """The decoded values, in code order."""
        return self._values

    def encode_one(self, value: Hashable) -> int:
        """Encode a single value; ``None`` maps to :data:`MISSING`."""
        if value is None:
            return MISSING
        try:
            return self._codes[value]
        except KeyError:
            raise CodecError(f"value not in codec: {value!r}") from None

    def decode_one(self, code: int) -> Hashable:
        """Decode a single code; :data:`MISSING` maps to ``None``."""
        if code == MISSING:
            return None
        try:
            return self._values[code]
        except IndexError:
            raise CodecError(f"code out of range: {code}") from None

    def encode(self, data: Sequence[Hashable]) -> np.ndarray:
        """Encode a sequence of values into an ``int32`` code array."""
        return np.fromiter(
            (self.encode_one(v) for v in data), dtype=np.int32, count=len(data)
        )

    def decode(self, codes: np.ndarray) -> list[Hashable]:
        """Decode a code array back into Python values."""
        return [self.decode_one(int(c)) for c in codes]

    def __contains__(self, value: object) -> bool:
        return value in self._codes

    def extend(self, values: Iterable[Hashable]) -> "Codec":
        """Return a new codec with unseen ``values`` appended.

        Repeats among ``values`` are appended once, in first-seen order.
        """
        extra = dict.fromkeys(
            v for v in values if v is not None and v not in self._codes
        )
        if not extra:
            return self
        return Codec(self._values + tuple(extra))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Codec):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:4])
        suffix = ", ..." if len(self._values) > 4 else ""
        return f"Codec([{preview}{suffix}], n={len(self._values)})"
