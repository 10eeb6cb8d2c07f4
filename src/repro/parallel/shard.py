"""Horizontal row sharding over :class:`~repro.relation.Relation`.

Shards are **contiguous row ranges**, realized as numpy basic slices of
the relation's column arrays — views, not copies.  Under a forked
worker pool the views alias the parent's pages copy-on-write, which is
what "shared-memory numpy partitions" means here: a 1M-row relation
fans out to 4 workers without duplicating a single code array.

Contiguity is also what makes the reductions order-deterministic:
concatenating per-shard results in shard order reconstructs exactly
the serial result (see :meth:`CompiledProgram.detect_sharded
<repro.dsl.compiled.CompiledProgram.detect_sharded>`).
"""

from __future__ import annotations


def shard_bounds(
    n_rows: int, n_shards: int, min_rows: int = 1
) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into at most ``n_shards`` contiguous ranges.

    Shards are balanced to within one row and never smaller than
    ``min_rows`` (the shard count shrinks instead, possibly to one);
    ``n_rows == 0`` yields a single empty shard so callers need no
    special case.

    >>> shard_bounds(10, 4)
    [(0, 3), (3, 6), (6, 8), (8, 10)]
    >>> shard_bounds(10, 4, min_rows=5)
    [(0, 5), (5, 10)]
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if min_rows < 1:
        raise ValueError("min_rows must be >= 1")
    if n_rows <= 0:
        return [(0, 0)]
    shards = min(n_shards, max(1, n_rows // min_rows))
    base, extra = divmod(n_rows, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds
