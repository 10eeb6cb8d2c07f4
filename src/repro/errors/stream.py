"""The streaming guard (the deployment mode of Fig. 1).

The batch path (:mod:`repro.errors.detect`) vectorizes over a whole
relation; production guardrails instead vet rows as they arrive at the
model.  :class:`Guard` does that over one compiled program, with two
evaluation paths of the same canonical semantics (first-match,
state-threaded Eqn. 1 — see :mod:`repro.dsl.semantics`), one per
arrival pattern:

* :meth:`Guard.check` vets rows *one at a time*: each statement is a
  hash index (determinant values → expected literal), so each row
  costs O(#statements) dictionary probes regardless of how many
  branches the program has.
* :meth:`Guard.check_batch` vets *micro-batches*: rows are
  integer-coded and pushed through the numpy kernels of
  :mod:`repro.dsl.compiled`, amortizing the per-row probe overhead
  across the batch; :meth:`Guard.stream` cuts a row stream into such
  batches.  A batch no wider than the probe crossover
  (``_PROBE_MAX_ROWS``) takes the hash probes instead: the kernel's
  fixed numpy cost per call outweighs what it saves on so few rows.

    guard = Guard(program)
    verdict = guard.check({"rel": "Husband", "marital-status": "Single"})
    verdict.ok                 # False
    verdict.violations         # (("marital-status", "Married-civ-spouse"),)
    guard.rectify(row)         # repaired copy of the row

    for verdict in guard.stream(incoming_rows, batch_size=256):
        ...
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .. import obs
from ..dsl import Program
from ..dsl.compiled import compile_program, compiled_for
from ..relation import Relation
from ..relation.encoding import Codec
from .handle import DataIntegrityError, Strategy, _program_domains, _repair_row

_NO_BRANCH = object()

_PROBE_MAX_ROWS = 32
"""The largest batch :meth:`Guard.check_batch` vets with per-row hash
probes; larger batches go through the numpy kernel.  It is the largest
size at which the probes beat the kernel in a microbenchmark on the
6-attribute chain program and on the guardrails synthesized for Telco,
Adult and Cylinder Bands (docs/PERFORMANCE.md, "The probe/kernel
crossover").  No perfbench workload flushes a wider batch, so the
kernel side is not yet measured end to end.  Both paths return
identical verdicts."""


@dataclass(frozen=True)
class RowVerdict:
    """Outcome of vetting one row."""

    ok: bool
    violations: tuple[tuple[str, Hashable], ...] = ()
    """(attribute, expected value) per violated statement."""

    def __bool__(self) -> bool:
        return self.ok


_CONFORMS = RowVerdict(True)
"""The one verdict of every conforming row (verdicts are immutable)."""


@dataclass
class GuardStats:
    """Counters a long-running guard accumulates."""

    rows_checked: int = 0
    rows_flagged: int = 0
    rows_rectified: int = 0
    violations_by_attribute: dict[str, int] = field(default_factory=dict)

    @property
    def violation_rate(self) -> float:
        """Fraction of checked rows that were flagged."""
        if self.rows_checked == 0:
            return 0.0
        return self.rows_flagged / self.rows_checked


class Guard:
    """A program compiled for streaming checks and repair.

    Parameters
    ----------
    program:
        The integrity-constraint program to enforce.
    codecs:
        Optional base codecs (e.g. the training relation's) for the
        batch kernel to compile against; the program's own literals
        are always folded in, so omitting this is safe.

    :meth:`check` and :meth:`check_batch` return identical verdicts;
    they differ only in how the cost of a row is paid.
    """

    def __init__(
        self, program: Program, codecs: Mapping[str, Codec] | None = None
    ):
        self.program = program
        self._compiled = compile_program(program, codecs)
        self._tables: list[
            tuple[tuple[str, ...], str, dict[tuple[Hashable, ...], Hashable]]
        ] = []
        for statement in self._compiled.statements:
            table: dict[tuple[Hashable, ...], Hashable] = {}
            for branch in statement.branches:
                key = tuple(
                    branch.condition.value_of(d)
                    for d in statement.determinants
                )
                # setdefault, not assignment: if two branches ever carry
                # the same determinant values (impossible via the
                # Statement constructor, but hand-built programs exist),
                # first-match order must win, not last-write.
                table.setdefault(key, branch.literal)
            self._tables.append(
                (statement.determinants, statement.dependent, table)
            )
        self._domains: dict[str, list[Hashable]] | None = None
        self.stats = GuardStats()
        self.attach_drift(None)

    # ------------------------------------------------------------------

    def attach_drift(self, detector) -> None:
        """Feed every verdict into a drift detector.

        ``detector`` follows the :class:`repro.resilience.DriftDetector`
        protocol: :meth:`check` hands it each verdict as
        ``observe(row, ok)`` and :meth:`check_batch` each batch as
        ``observe_batch(rows, oks)``; pass ``None`` to detach.  The
        detector owns its 1-in-k sampling countdown, which carries
        across rows and batches alike, so both entry points sample
        exactly the same rows of a stream, and a ``sample_every`` the
        detector is given later (brownout widening) applies to the
        guard's next row.
        """
        self._drift = detector

    @property
    def drift(self):
        """The attached drift detector, if any."""
        return self._drift

    def check(self, row: Mapping[str, Hashable]) -> RowVerdict:
        """Vet one row; O(#statements) hash probes.

        With tracing enabled (:mod:`repro.obs`) each call also emits a
        latency sample and a tripwire-style ``guard.verdict`` record;
        disabled, the only overhead is one flag check.
        """
        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        verdict = self._verdict(row)
        drift = self._drift
        if drift is not None:
            drift.observe(row, verdict.ok)
        self.stats.rows_checked += 1
        if not verdict.ok:
            self._count_flagged(verdict)
        if traced:
            obs.observe(
                "guard.check_seconds", time.perf_counter() - start
            )
            obs.record(
                "guard.verdict",
                ok=verdict.ok,
                attributes=[a for a, _ in verdict.violations],
            )
        return verdict

    def check_batch(
        self, rows: Sequence[Mapping[str, Hashable]]
    ) -> list[RowVerdict]:
        """Vet a batch of rows: up to ``_PROBE_MAX_ROWS`` rows by
        per-row hash probes, a larger batch in one kernel pass.

        Returns one :class:`RowVerdict` per input row, in order; both
        paths return the same verdicts.  With tracing enabled a
        ``guard.batch`` record and a latency sample are emitted per
        flush.
        """
        rows = list(rows)
        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        verdicts = self._verdicts(rows)
        n = len(rows)
        if self._drift is not None:
            self._drift.observe_batch(
                rows, [verdict.ok for verdict in verdicts]
            )
        self.stats.rows_checked += n
        flagged = [verdict for verdict in verdicts if not verdict.ok]
        for verdict in flagged:
            self._count_flagged(verdict)
        if traced:
            obs.observe(
                "guard.batch_seconds", time.perf_counter() - start
            )
            obs.record("guard.batch", n_rows=n, flagged=len(flagged))
        return verdicts

    def stream(
        self, rows: Iterable[Mapping[str, Hashable]], batch_size: int = 256
    ) -> Iterator[RowVerdict]:
        """Vet an incoming row stream with micro-batching.

        Rows are buffered up to ``batch_size`` and flushed through
        :meth:`check_batch`; verdicts are yielded in arrival order.
        The tail batch flushes when the iterable is exhausted.
        """
        return _micro_batches(self.check_batch, rows, batch_size)

    def check_relation(self, relation: Relation) -> np.ndarray:
        """Row-violation mask for a whole relation.

        Compiles against the relation's own codecs (memoized), so this
        matches :func:`repro.errors.detect.detect_errors` bit for bit.
        """
        result = compiled_for(self.program, relation).detect(relation)
        self.stats.rows_checked += relation.n_rows
        self.stats.rows_flagged += result.n_flagged
        return result.row_mask

    def rectify(self, row: Mapping[str, Hashable]) -> dict[str, Hashable]:
        """Repair one row (same policy as the batch rectify strategy).

        Single-cell minimal repair when one conforms; otherwise the
        per-statement dependent rewrite, applied in program order so
        upstream repairs feed downstream checks.
        """
        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        if self._verdict(row).ok:
            return dict(row)
        self.stats.rows_rectified += 1
        if self._domains is None:
            self._domains = _program_domains(self.program)
        repaired = dict(row)
        changes = _repair_row(self.program, repaired, self._domains)
        repaired.update(changes)
        if traced:
            obs.observe(
                "guard.rectify_seconds", time.perf_counter() - start
            )
            obs.record(
                "guard.rectify", attributes=sorted(changes)
            )
        return repaired

    def process(
        self, row: Mapping[str, Hashable], strategy: str = "rectify"
    ) -> dict[str, Hashable] | None:
        """One-shot vetting under a named strategy.

        ``raise`` raises :class:`DataIntegrityError`; ``ignore`` returns
        the row as-is; ``coerce`` blanks violated dependents (None);
        ``rectify`` repairs.  Returns the (possibly modified) row.
        """
        parsed = Strategy.parse(strategy)
        if parsed is Strategy.RECTIFY:
            return self.rectify(row)
        verdict = self.check(row)
        if verdict.ok:
            return dict(row)
        if parsed is Strategy.RAISE:
            raise DataIntegrityError(
                f"row violates {len(verdict.violations)} constraints",
                rows=[],
            )
        out = dict(row)
        if parsed is Strategy.COERCE:
            for attribute, _ in verdict.violations:
                out[attribute] = None
        return out

    # ------------------------------------------------------------------

    def _verdict(self, row: Mapping[str, Hashable]) -> RowVerdict:
        """Stat-free per-row vetting (used internally by repair).

        Implements the canonical Eqn. 1 semantics: statements probe the
        *threaded* state (an upstream rewrite feeds downstream reads),
        and the verdict compares the final state with the input row.
        ``state.get(d)`` defaults to None, matching ``condition_holds``:
        an absent attribute behaves like a missing (None) cell.
        """
        state = dict(row)
        writes: list[tuple[str, Hashable]] = []
        for determinants, dependent, table in self._tables:
            expected = table.get(
                tuple(state.get(d) for d in determinants), _NO_BRANCH
            )
            if expected is _NO_BRANCH:
                continue
            if state.get(dependent) != expected:
                writes.append((dependent, expected))
                state[dependent] = expected
        if not writes or state == dict(row):
            return _CONFORMS
        return RowVerdict(False, tuple(writes))

    def _verdicts(
        self, rows: list[Mapping[str, Hashable]]
    ) -> list[RowVerdict]:
        """Stat-free batch vetting: hash probes for a small batch, the
        compiled kernel for a larger one."""
        if len(rows) <= _PROBE_MAX_ROWS:
            return [self._verdict(row) for row in rows]
        compiled = self._compiled
        if not compiled.statements:
            return [_CONFORMS] * len(rows)
        codes = {
            attribute: np.fromiter(
                (
                    compiled.encode_value(attribute, row.get(attribute))
                    for row in rows
                ),
                dtype=np.int32,
                count=len(rows),
            )
            for attribute in compiled.attributes
        }
        result = compiled.run_codes(codes, len(rows))
        per_row: dict[int, list[tuple[str, Hashable]]] = {}
        for row_index, branch in result.iter_violations():
            per_row.setdefault(row_index, []).append(
                (branch.dependent, branch.literal)
            )
        return [
            RowVerdict(False, tuple(per_row[index]))
            if index in per_row
            else _CONFORMS
            for index in range(len(rows))
        ]

    def _count_flagged(self, verdict: RowVerdict) -> None:
        self.stats.rows_flagged += 1
        counts = self.stats.violations_by_attribute
        for attribute, _ in verdict.violations:
            counts[attribute] = counts.get(attribute, 0) + 1

    def __len__(self) -> int:
        return len(self._tables)


def _micro_batches(
    check_batch: Callable[[list], list[RowVerdict]],
    rows: Iterable,
    batch_size: int,
) -> Iterator[RowVerdict]:
    """``check_batch``'s verdicts over ``rows`` cut into batches of
    ``batch_size`` (the tail flushes at end of input), in arrival order.

    The one micro-batching loop behind every guard's ``stream``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    buffer: list = []
    for row in rows:
        buffer.append(row)
        if len(buffer) >= batch_size:
            yield from check_batch(buffer)
            buffer = []
    if buffer:
        yield from check_batch(buffer)


RowGuard = Guard  # former name of the per-row guard
BatchGuard = Guard  # former name of the micro-batch guard
