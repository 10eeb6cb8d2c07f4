"""Compiled integer-coded kernels for the DSL (the detection fast path).

This module is the single *fast* implementation of the canonical
Eqn. 1 semantics defined in :mod:`repro.dsl.semantics`: a row is
erroneous iff ``[[p]]_t != t``, where ``[[p]]_t`` applies the **first**
matching branch of each statement and **threads the updated state**
into the statements that follow.  Everything vectorized in the repo —
:func:`repro.errors.detect.detect_errors`, the 0/1 loss in
:mod:`repro.dsl.metrics`, coverage selection during synthesis, the SQL
executor's guard stage, and :meth:`repro.errors.Guard.check_batch` —
funnels through the kernels here, so the batch paths cannot drift from
the row semantics again.

Three layers of caching make repeated evaluation cheap:

* a **compile cache**: :func:`compile_program` memoizes the
  integer-coded form of a program against a codec set, so a program is
  lowered once per deployment, not once per call;
* a **condition-mask cache** keyed by ``(relation, condition)``: the
  boolean mask of each branch condition over a relation is computed at
  most once (relations are immutable by convention; entries die with
  the relation via weak references);
* a **branch-stats cache** keyed by ``(relation, branch)`` holding the
  ``(support, loss)`` pair behind the ε-validity and 0/1-loss metrics.

The kernel resolves each statement's first matching branch per row and
applies the chosen writes to copies of the code arrays so later
statements observe the updated state, mirroring ``run_program``.  Two
resolution strategies share the same first-match rule:

* the fast path precomputes a **mixed-radix lookup table** (determinant
  code tuple → branch index, earliest branch winning collisions), so a
  statement costs one gather per determinant plus one table probe;
* when the key space is too large to tabulate, the per-branch condition
  masks are stacked into a ``(n_branches, n_rows)`` matrix and the
  first match is ``argmax`` over the stack — the exact first-match rule
  of ``apply_statement``.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping

import numpy as np

from .. import obs
from ..relation import MISSING, Relation
from ..relation.encoding import Codec
from .ast import Branch, Condition, Program

UNSEEN: int = -2
"""Code for a value outside the compile-time codecs: it matches nothing,
not even :data:`~repro.relation.MISSING`."""


# ---------------------------------------------------------------------------
# Shared per-relation caches
# ---------------------------------------------------------------------------

_MASK_CACHE: "weakref.WeakKeyDictionary[Relation, dict[Condition, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)
_STATS_CACHE: "weakref.WeakKeyDictionary[Relation, dict[Branch, tuple[int, int]]]" = (
    weakref.WeakKeyDictionary()
)
_DETECT_CACHE: "weakref.WeakKeyDictionary[Relation, dict[CompiledProgram, KernelResult]]" = (
    weakref.WeakKeyDictionary()
)
_COMPILE_CACHE: "OrderedDict[tuple, CompiledProgram]" = OrderedDict()
_COMPILE_CACHE_SIZE = 128


def _mask_bucket(relation: Relation) -> dict[Condition, np.ndarray]:
    bucket = _MASK_CACHE.get(relation)
    if bucket is None:
        bucket = {}
        _MASK_CACHE[relation] = bucket
    return bucket


def cached_condition_mask(
    condition: Condition, relation: Relation
) -> np.ndarray:
    """The condition's boolean mask over ``relation``, memoized.

    The returned array is **read-only** and shared across callers; copy
    it before mutating.  Entries are keyed by the relation object (weakly)
    and the condition value, so they vanish when the relation does.
    """
    bucket = _mask_bucket(relation)
    mask = bucket.get(condition)
    if mask is None:
        if obs.enabled():
            obs.count("dsl.mask_cache.miss")
        from .semantics import condition_mask

        mask = condition_mask(condition, relation)
        mask.setflags(write=False)
        bucket[condition] = mask
    elif obs.enabled():
        obs.count("dsl.mask_cache.hit")
    return mask


def prime_condition_mask(
    condition: Condition, relation: Relation, mask: np.ndarray
) -> None:
    """Pre-populate the mask cache with a mask computed elsewhere.

    Algorithm 1 (:mod:`repro.sketch.fill`) already knows each kept
    branch's matching rows from its group indices; priming here means
    the coverage/loss passes that follow are pure cache hits.
    """
    bucket = _mask_bucket(relation)
    if condition not in bucket:
        mask = np.asarray(mask, dtype=bool)
        mask.setflags(write=False)
        bucket[condition] = mask


def branch_stats(branch: Branch, relation: Relation) -> tuple[int, int]:
    """``(support, loss)`` of a branch over a relation, memoized.

    ``support`` is ``|D^b|`` (rows matching the condition); ``loss`` is
    Eqn. 2's 0/1 loss (matching rows whose dependent differs from the
    branch literal).  Branch-local by definition — deliberately *not*
    state-threaded, because ε-validity judges a branch against the data
    as observed.
    """
    bucket = _STATS_CACHE.get(relation)
    if bucket is None:
        bucket = {}
        _STATS_CACHE[relation] = bucket
    stats = bucket.get(branch)
    if stats is None:
        from .semantics import _literal_code

        applicable = cached_condition_mask(branch.condition, relation)
        expected = _literal_code(relation, branch.dependent, branch.literal)
        violating = applicable & (relation.codes(branch.dependent) != expected)
        stats = (
            int(np.count_nonzero(applicable)),
            int(np.count_nonzero(violating)),
        )
        bucket[branch] = stats
    return stats


def coverage_mask(statement, relation: Relation) -> np.ndarray:
    """Rows covered by any branch of a statement (``D^s``), cache-backed.

    Semantically identical to
    :func:`repro.dsl.semantics.statement_coverage_mask`; each branch's
    condition mask comes from the shared cache.  Returns a fresh,
    writable array.
    """
    out = np.zeros(relation.n_rows, dtype=bool)
    for branch in statement.branches:
        out |= cached_condition_mask(branch.condition, relation)
    return out


def clear_dsl_caches() -> None:
    """Drop every compiled program, condition mask, and branch stat.

    Benchmarks and tests use this to time the cold path; production
    code never needs it (mask/stat entries are weakly keyed and die
    with their relations, and the compile cache is bounded).
    """
    _MASK_CACHE.clear()
    _STATS_CACHE.clear()
    _DETECT_CACHE.clear()
    _COMPILE_CACHE.clear()


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


_LUT_MAX_ENTRIES = 1 << 22
"""Largest mixed-radix key space the compiler will tabulate; beyond it
the kernel falls back to stacked-mask ``argmax`` resolution."""


@dataclass(frozen=True)
class CompiledStatement:
    """One statement lowered to integer-coded branch tables."""

    index: int
    determinants: tuple[str, ...]
    dependent: str
    branches: tuple[Branch, ...]
    condition_codes: np.ndarray
    """``(n_branches, n_determinants)`` literal codes, program order."""
    expected_codes: np.ndarray
    """``(n_branches,)`` dependent-literal codes, program order."""
    lut: np.ndarray | None
    """Mixed-radix first-match table (key → branch index, ``-1`` = no
    branch), or None when the key space exceeds the tabulation cap."""
    dims: tuple[int, ...]
    """Radix sizes per determinant: extended cardinality + 2, so codes
    down to :data:`UNSEEN` (-2) index without branching."""


@dataclass
class KernelResult:
    """Outcome of one kernel evaluation over a batch of rows.

    ``row_mask`` is the canonical Eqn. 1 verdict: True where the final
    threaded state differs from the input row.  ``writes`` records the
    state-changing branch applications (one entry per statement that
    wrote), and ``final_codes`` holds the threaded code arrays of every
    written attribute — ``[[p]]_t`` in coded form.
    """

    row_mask: np.ndarray
    writes: list[tuple[CompiledStatement, np.ndarray, np.ndarray]]
    final_codes: dict[str, np.ndarray]
    _violation_pairs: "list[tuple[int, Branch]] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_flagged(self) -> int:
        """Number of rows the program flags as erroneous."""
        return int(np.count_nonzero(self.row_mask))

    def iter_violations(self) -> Iterator[tuple[int, Branch]]:
        """Yield ``(row, branch)`` for each first-match violation.

        Only rows whose *final* state differs from the input are
        reported, so the (pathological) case of a later statement
        writing a value back never yields phantom violations.  The pair
        list is materialized lazily, once per result.
        """
        if self._violation_pairs is None:
            pairs: list[tuple[int, Branch]] = []
            for compiled, rows, branch_indices in self.writes:
                branches = compiled.branches
                keep = self.row_mask[rows]
                pairs.extend(
                    (row, branches[branch_index])
                    for row, branch_index in zip(
                        rows[keep].tolist(),
                        branch_indices[keep].tolist(),
                    )
                )
            self._violation_pairs = pairs
        return iter(self._violation_pairs)


class CompiledProgram:
    """A program lowered to numpy kernels over integer codes.

    Compilation extends the supplied codecs with every literal the
    program mentions, so each literal gets a real, distinct code even
    when the training data never exhibited it — the extension preserves
    existing codes, so relation arrays stay valid, and two distinct
    unseen literals can never be confused (the flaw a bare ``-2``
    sentinel would reintroduce under state threading).
    """

    def __init__(
        self, program: Program, codecs: Mapping[str, Codec] | None = None
    ):
        codecs = dict(codecs or {})
        # Dict-as-ordered-set: collect each literal once, in first-seen
        # order (stable codes for a given program, and the candidate
        # values of Guard.rectify's single-cell repairs).
        literals: dict[str, dict[Hashable, None]] = {}
        for statement in program:
            for branch in statement.branches:
                literals.setdefault(branch.dependent, {})[
                    branch.literal
                ] = None
                for name, value in branch.condition.atoms:
                    literals.setdefault(name, {})[value] = None
        self.program = program
        self.literals: dict[str, tuple[Hashable, ...]] = {
            attr: tuple(values) for attr, values in literals.items()
        }
        self.codecs: dict[str, Codec] = {
            attr: (codecs.get(attr) or Codec(())).extend(values)
            for attr, values in self.literals.items()
        }
        self.statements: list[CompiledStatement] = []
        for index, statement in enumerate(program):
            determinants = statement.determinants
            n_branches = len(statement.branches)
            condition_codes = np.array(
                [
                    [
                        self._code(name, branch.condition.value_of(name))
                        for name in determinants
                    ]
                    for branch in statement.branches
                ],
                dtype=np.int32,
            ).reshape(n_branches, len(determinants))
            expected_codes = np.array(
                [
                    self._code(statement.dependent, branch.literal)
                    for branch in statement.branches
                ],
                dtype=np.int32,
            )
            dims = tuple(
                len(self.codecs[name]) + 2 for name in determinants
            )
            self.statements.append(
                CompiledStatement(
                    index=index,
                    determinants=determinants,
                    dependent=statement.dependent,
                    branches=statement.branches,
                    condition_codes=condition_codes,
                    expected_codes=expected_codes,
                    lut=self._build_lut(condition_codes, dims),
                    dims=dims,
                )
            )

    @staticmethod
    def _build_lut(
        condition_codes: np.ndarray, dims: tuple[int, ...]
    ) -> np.ndarray | None:
        total = 1
        for size in dims:
            total *= size
            if total > _LUT_MAX_ENTRIES:
                return None
        lut = np.full(total, -1, dtype=np.int32)
        keys = np.zeros(len(condition_codes), dtype=np.int64)
        for j, size in enumerate(dims):
            keys = keys * size + (condition_codes[:, j].astype(np.int64) + 2)
        # Reverse order so the earliest branch wins key collisions —
        # the same first-match rule the argmax fallback implements.
        for branch_index in range(len(condition_codes) - 1, -1, -1):
            lut[keys[branch_index]] = branch_index
        return lut

    def _code(self, attribute: str, value: Hashable) -> int:
        if value is None:
            return MISSING
        return self.codecs[attribute].encode_one(value)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Every attribute the program reads or writes, sorted."""
        return tuple(sorted(self.codecs))

    def codec(self, attribute: str) -> Codec:
        """The extended codec of one program attribute."""
        return self.codecs[attribute]

    def encode_value(self, attribute: str, value: Hashable) -> int:
        """Encode one raw cell value for the kernel.

        ``None`` maps to :data:`~repro.relation.MISSING`; values outside
        the extended codec map to :data:`UNSEEN`, which matches no
        literal and no missing cell — exactly the row-semantics outcome
        for a value the program never mentions.
        """
        if value is None:
            return MISSING
        codec = self.codecs.get(attribute)
        if codec is not None and value in codec:
            return codec.encode_one(value)
        return UNSEEN

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def detect(self, relation: Relation) -> KernelResult:
        """Run the kernel over a relation, memoized per relation.

        Relations are immutable by convention, so the result of a
        (program, relation) pair is cached weakly on the relation — the
        repeated detections of coverage selection, metrics, and the SQL
        guard stage cost a dict probe.  The cached ``row_mask`` is
        read-only; copy it before mutating.
        """
        bucket = _DETECT_CACHE.get(relation)
        if bucket is None:
            bucket = {}
            _DETECT_CACHE[relation] = bucket
        result = bucket.get(self)
        if result is None:
            result = self._execute(relation.codes, relation.n_rows, relation)
            result.row_mask.setflags(write=False)
            bucket[self] = result
        elif obs.enabled():
            obs.count("dsl.detect_cache.hit")
        return result

    def detect_sharded(self, relation: Relation, pool) -> KernelResult:
        """Partition-parallel :meth:`detect` over contiguous row shards.

        The kernel is per-row independent (state threading never crosses
        rows), so running it per shard and concatenating in shard order
        reconstructs the serial :class:`KernelResult` **bit-for-bit**:
        the same ``row_mask``, the same writes (rows offset back to
        global indices, ascending within each statement), and the same
        threaded ``final_codes``.  Shards are zero-copy views
        (:meth:`~repro.relation.Relation.slice_rows`), inherited by the
        forked workers copy-on-write.

        Falls back to plain :meth:`detect` when the pool's shard policy
        yields a single shard (small input, ``workers=1``, no fork).
        The merged result lands in the same per-relation detect cache.
        """
        bucket = _DETECT_CACHE.get(relation)
        if bucket is None:
            bucket = {}
            _DETECT_CACHE[relation] = bucket
        result = bucket.get(self)
        if result is not None:
            if obs.enabled():
                obs.count("dsl.detect_cache.hit")
            return result
        bounds = pool.shards_for(relation.n_rows)
        if len(bounds) <= 1:
            return self.detect(relation)
        with obs.span(
            "dsl.detect_sharded",
            n_rows=relation.n_rows,
            n_shards=len(bounds),
        ):
            shards = [
                relation.slice_rows(start, stop) for start, stop in bounds
            ]
            parts = pool.map(
                _detect_shard_job,
                range(len(shards)),
                shared=(self, shards),
            )
            result = self._merge_shard_results(relation, bounds, parts)
        result.row_mask.setflags(write=False)
        bucket[self] = result
        return result

    def _merge_shard_results(
        self,
        relation: Relation,
        bounds: list[tuple[int, int]],
        parts: list[tuple],
    ) -> KernelResult:
        """Shard-order reduction of per-shard kernel outputs."""
        row_mask = np.concatenate([mask for mask, _, _ in parts])
        by_statement: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for (start, _), (_, shard_writes, _) in zip(bounds, parts):
            for statement_index, rows, branch_indices in shard_writes:
                by_statement.setdefault(statement_index, []).append(
                    (rows + start, branch_indices)
                )
        writes: list[tuple[CompiledStatement, np.ndarray, np.ndarray]] = []
        for statement_index in sorted(by_statement):
            pieces = by_statement[statement_index]
            writes.append(
                (
                    self.statements[statement_index],
                    np.concatenate([rows for rows, _ in pieces]),
                    np.concatenate([idx for _, idx in pieces]),
                )
            )
        written = {
            attribute
            for _, _, state in parts
            for attribute in state
        }
        final_codes: dict[str, np.ndarray] = {}
        for attribute in written:
            segments = []
            for (start, stop), (_, _, state) in zip(bounds, parts):
                segment = state.get(attribute)
                if segment is None:
                    # This shard never wrote the attribute; its final
                    # state is the input column.
                    segment = relation.codes(attribute)[start:stop]
                segments.append(segment)
            final_codes[attribute] = np.concatenate(segments)
        return KernelResult(
            row_mask=row_mask, writes=writes, final_codes=final_codes
        )

    def run_codes(
        self, codes: Mapping[str, np.ndarray], n_rows: int | None = None
    ) -> KernelResult:
        """Run the kernel over raw code arrays (no relation required).

        This is the entry point :meth:`repro.errors.Guard.check_batch`
        uses: encode a micro-batch of rows with :meth:`encode_value`
        and evaluate them without building a :class:`Relation`.
        """
        if n_rows is None:
            n_rows = len(next(iter(codes.values()))) if codes else 0

        def column_of(name: str) -> np.ndarray:
            try:
                return codes[name]
            except KeyError:
                raise KeyError(
                    f"compiled program needs column {name!r}"
                ) from None

        return self._execute(column_of, n_rows, None)

    def _execute(self, column_of, n_rows: int, relation) -> KernelResult:
        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        state: dict[str, np.ndarray] = {}
        originals: dict[str, np.ndarray] = {}
        writes: list[tuple[CompiledStatement, np.ndarray, np.ndarray]] = []
        for compiled in self.statements:
            if not compiled.branches:
                continue
            if compiled.lut is not None:
                keys = np.zeros(n_rows, dtype=np.int64)
                for name, size in zip(compiled.determinants, compiled.dims):
                    column = state.get(name)
                    if column is None:
                        column = column_of(name)
                    keys = keys * size + (column.astype(np.int64) + 2)
                first = compiled.lut[keys]
                hit = first >= 0
            else:
                matches = self._matches(
                    compiled, state, column_of, n_rows, relation
                )
                hit = matches.any(axis=0)
                first = matches.argmax(axis=0)
            if not hit.any():
                continue
            # Where no branch matched, `first` may be -1 (LUT path) and
            # wrap to the last branch — harmless, `write` is masked by
            # `hit` below.
            expected = compiled.expected_codes[first]
            dependent = compiled.dependent
            current = state.get(dependent)
            if current is None:
                current = column_of(dependent)
            write = hit & (current != expected)
            if not write.any():
                continue
            if dependent not in originals:
                # Not yet written, so `current` is still the input column.
                originals[dependent] = current
            updated = current.copy()
            updated[write] = expected[write]
            state[dependent] = updated
            writes.append(
                (compiled, np.nonzero(write)[0], first[write])
            )
        row_mask = np.zeros(n_rows, dtype=bool)
        for attribute, original in originals.items():
            row_mask |= state[attribute] != original
        if traced:
            obs.count("dsl.kernel.eval")
            obs.observe(
                "dsl.kernel.seconds", time.perf_counter() - start
            )
        return KernelResult(
            row_mask=row_mask, writes=writes, final_codes=state
        )

    def _matches(
        self, compiled: CompiledStatement, state, column_of, n_rows, relation
    ) -> np.ndarray:
        dirty = any(name in state for name in compiled.determinants)
        if relation is not None and not dirty:
            return self._matches_cached(compiled, relation)
        matrix = np.ones((len(compiled.branches), n_rows), dtype=bool)
        for j, name in enumerate(compiled.determinants):
            column = state.get(name)
            if column is None:
                column = column_of(name)
            matrix &= (
                column[None, :] == compiled.condition_codes[:, j][:, None]
            )
        return matrix

    def _matches_cached(
        self, compiled: CompiledStatement, relation: Relation
    ) -> np.ndarray:
        bucket = _mask_bucket(relation)
        cached = [
            bucket.get(branch.condition) for branch in compiled.branches
        ]
        if all(mask is not None for mask in cached):
            if obs.enabled():
                obs.count("dsl.mask_cache.hit", len(cached))
            return np.vstack(cached)
        if obs.enabled():
            obs.count(
                "dsl.mask_cache.miss",
                sum(1 for mask in cached if mask is None),
            )
        matrix = np.ones(
            (len(compiled.branches), relation.n_rows), dtype=bool
        )
        for j, name in enumerate(compiled.determinants):
            column = relation.codes(name)
            matrix &= (
                column[None, :] == compiled.condition_codes[:, j][:, None]
            )
        matrix.setflags(write=False)
        for branch, row in zip(compiled.branches, matrix):
            if branch.condition not in bucket:
                bucket[branch.condition] = row
        return matrix

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledProgram({len(self.statements)} statements, "
            f"{sum(len(s.branches) for s in self.statements)} branches)"
        )


def _detect_shard_job(index: int) -> tuple:
    """Worker task: run the inherited compiled kernel over one shard.

    Returns a compact ``(row_mask, writes, final_codes)`` triple with
    statements referenced by index (the parent rebuilds full
    :class:`KernelResult` entries), keeping the pickled result small.
    """
    from ..parallel import get_shared

    compiled, shards = get_shared()
    result = compiled.detect(shards[index])
    return (
        result.row_mask,
        [
            (statement.index, rows, branch_indices)
            for statement, rows, branch_indices in result.writes
        ],
        result.final_codes,
    )


# ---------------------------------------------------------------------------
# The compile cache
# ---------------------------------------------------------------------------


def _compile_key(program: Program, codecs: Mapping[str, Codec]) -> tuple:
    attributes = sorted(program.attributes())
    return (program, tuple((a, codecs.get(a)) for a in attributes))


def compile_program(
    program: Program, codecs: Mapping[str, Codec] | None = None
) -> CompiledProgram:
    """Lower a program against a codec set, memoized.

    The cache key is the program plus the codec of every attribute it
    mentions, so the same program compiled against the same encoding is
    lowered exactly once (LRU-bounded at 128 entries).
    """
    codecs = codecs or {}
    key = _compile_key(program, codecs)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        _COMPILE_CACHE.move_to_end(key)
        if obs.enabled():
            obs.count("dsl.compile.cache_hit")
        return cached
    if obs.enabled():
        obs.count("dsl.compile")
    compiled = CompiledProgram(program, codecs)
    _COMPILE_CACHE[key] = compiled
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_SIZE:
        _COMPILE_CACHE.popitem(last=False)
    return compiled


def compiled_for(program: Program, relation: Relation) -> CompiledProgram:
    """The compiled form of ``program`` under a relation's codecs."""
    return compile_program(program, relation.codecs())
