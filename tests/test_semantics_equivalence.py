"""Property test: every evaluation path implements one semantics.

Random programs (chains, multi-determinant statements, literals the
data never exhibits) over random noisy relations (missing cells
included) must produce identical verdicts from:

* :func:`repro.dsl.row_conforms` (the reference row semantics),
* :func:`repro.dsl.program_violations` (vectorized),
* :func:`repro.errors.detect_errors` (compiled kernels),
* every entry point of the streaming guard: :meth:`repro.errors.Guard.check`
  (hash probes), :meth:`~repro.errors.Guard.check_batch` at several
  batch sizes on both sides of its probe-or-kernel crossover, and
  :meth:`~repro.errors.Guard.stream` (micro-batched), and the same
  calls through :class:`repro.resilience.LiveGuard` and
  :class:`repro.resilience.ResilientGuard`.

Any divergence — all-branches vs first-match, branch-local vs threaded
reads, sentinel aliasing of unseen literals — shows up here as a
disagreeing row.  Repair is pinned too: on every row, ``Guard.rectify``
and the relation-level rectify strategy must make the same repair as
the branch-by-branch search over ``condition_holds`` kept below as the
reference (``_repair_row``), and the cases must reach every kind of
repair it makes.
"""

from typing import Hashable

import numpy as np
import pytest

from repro.dsl import (
    Branch,
    Condition,
    Program,
    Statement,
    clear_dsl_caches,
    compiled_for,
    program_violations,
    row_conforms,
)
from repro.errors import Guard, apply_strategy, detect_errors
from repro.errors.stream import _PROBE_MAX_ROWS
from repro.relation import Relation
from repro.resilience import (
    CircuitBreaker,
    GuardrailVersions,
    LiveGuard,
    ResilientGuard,
)
from repro.synth import Guardrail

N_CASES = 220


def _random_case(rng: np.random.Generator):
    n_attrs = int(rng.integers(3, 7))
    attributes = [f"x{i}" for i in range(n_attrs)]
    pools = {
        attr: [f"{attr}v{k}" for k in range(int(rng.integers(2, 4)))]
        for attr in attributes
    }
    n_rows = int(rng.integers(30, 61))
    rows = []
    for _ in range(n_rows):
        row = {}
        for attr in attributes:
            if rng.random() < 0.1:
                row[attr] = None  # missing cell
            else:
                row[attr] = pools[attr][
                    int(rng.integers(len(pools[attr])))
                ]
        rows.append(row)
    relation = Relation.from_rows(rows)

    def literal_for(attr: str):
        # ~15% of literals never appear in the data (codec-unseen).
        if rng.random() < 0.15:
            return f"{attr}_ghost{int(rng.integers(3))}"
        return pools[attr][int(rng.integers(len(pools[attr])))]

    statements = []
    used_dependents: set[str] = set()
    for _ in range(int(rng.integers(1, 5))):
        candidates = [a for a in attributes if a not in used_dependents]
        if not candidates:
            break
        dependent = candidates[int(rng.integers(len(candidates)))]
        others = [a for a in attributes if a != dependent]
        n_det = min(len(others), int(rng.integers(1, 3)))
        determinants = list(
            rng.choice(len(others), size=n_det, replace=False)
        )
        determinants = sorted(others[i] for i in determinants)
        branches = []
        seen_conditions = set()
        for _ in range(int(rng.integers(1, 5))):
            atoms = tuple(
                (name, literal_for(name)) for name in determinants
            )
            condition = Condition(atoms)
            if condition in seen_conditions:
                continue
            seen_conditions.add(condition)
            branches.append(
                Branch(condition, dependent, literal_for(dependent))
            )
        statements.append(
            Statement(tuple(determinants), dependent, tuple(branches))
        )
        used_dependents.add(dependent)
    return Program(tuple(statements)), relation


# ----------------------------------------------------------------------
# Reference repair: the branch-by-branch search, kept verbatim
# ----------------------------------------------------------------------


def _program_domains(program: Program) -> dict[str, list[Hashable]]:
    """Candidate repair values per attribute: those the program mentions."""
    domains: dict[str, dict[Hashable, None]] = {}
    for statement in program:
        for branch in statement.branches:
            domains.setdefault(branch.dependent, {})[branch.literal] = None
            for name, value in branch.condition.atoms:
                domains.setdefault(name, {})[value] = None
    return {name: list(values) for name, values in domains.items()}


def _count_violations(program: Program, row: dict) -> int:
    from repro.dsl.semantics import condition_holds

    count = 0
    for statement in program:
        for branch in statement.branches:
            if condition_holds(branch.condition, row) and (
                row.get(branch.dependent) != branch.literal
            ):
                count += 1
    return count


def _count_satisfied(program: Program, row: dict) -> int:
    """Branches whose condition fires and whose assignment is met."""
    from repro.dsl.semantics import condition_holds

    count = 0
    for statement in program:
        for branch in statement.branches:
            if condition_holds(branch.condition, row) and (
                row.get(branch.dependent) == branch.literal
            ):
                count += 1
    return count


def _repair_row(
    program: Program,
    row: dict,
    domains: dict[str, list[Hashable]],
) -> dict:
    """Best single-cell repair of a violating row, or {} if none conforms.

    Candidates are the attributes implicated by the violated branches;
    ties between conforming repairs prefer dependents (the case-study
    behaviour) over determinants.
    """
    from repro.dsl.semantics import condition_holds, run_program

    violated = []
    for statement in program:
        for branch in statement.branches:
            if condition_holds(branch.condition, row) and (
                row.get(branch.dependent) != branch.literal
            ):
                violated.append(branch)
    if not violated:
        return {}
    dependents = {b.dependent for b in violated}
    candidates = set(dependents)
    for branch in violated:
        candidates.update(branch.condition.attributes)

    best: tuple[tuple[int, int, int], str, Hashable] | None = None
    for name in sorted(candidates):
        for value in domains.get(name, ()):
            if value == row.get(name):
                continue
            trial = dict(row)
            trial[name] = value
            remaining = _count_violations(program, trial)
            preference = 0 if name in dependents else 1
            # Prefer repairs that keep the row *covered*: a repair that
            # merely steers the row outside every branch condition is a
            # degenerate way to "conform".
            coverage = _count_satisfied(program, trial)
            key = (remaining, preference, -coverage)
            if best is None or key < best[0]:
                best = (key, name, value)
    if best is not None and best[0][0] == 0:
        return {best[1]: best[2]}
    # No conforming single-cell repair: per-statement dependent rewrite.
    fixed = run_program(program, row)
    return {
        name: value for name, value in fixed.items() if value != row.get(name)
    }


def _reference_repair(
    program: Program, row: dict, domains
) -> tuple[dict, str]:
    """The reference repaired row and the kind of repair that made it.

    A conforming row comes back unchanged (kind ``"none"``).  A flagged
    one gets ``_repair_row``'s change: ``"dependent"`` or
    ``"determinant"`` when it is a conforming single-cell repair of
    that kind of attribute, ``"fallback"`` when it is the ``[[p]]_t``
    rewrite.  The generated programs give each dependent one statement,
    so a single-cell fallback is the first violated statement's
    rewrite: a candidate the search scored, which therefore leaves some
    branch violated.
    """
    from repro.dsl.semantics import condition_holds

    if row_conforms(program, row):
        return dict(row), "none"
    changes = _repair_row(program, row, domains)
    repaired = {**row, **changes}
    if len(changes) != 1 or _count_violations(program, repaired):
        return repaired, "fallback"
    (name,) = changes
    violated_dependents = {
        branch.dependent
        for branch in program.branches
        if condition_holds(branch.condition, row)
        and row.get(branch.dependent) != branch.literal
    }
    kind = "dependent" if name in violated_dependents else "determinant"
    return repaired, kind


def _batched(check_batch, rows, size):
    """``check_batch`` over consecutive slices of ``size`` rows."""
    return [
        verdict
        for start in range(0, len(rows), size)
        for verdict in check_batch(rows[start : start + size])
    ]


def _guard_paths(program: Program, rows: list) -> dict[str, list]:
    """Every guard entry point's verdicts over ``rows``, by path name."""
    guard = Guard(program)
    live = LiveGuard(GuardrailVersions(Guardrail.from_program(program)))
    resilient = ResilientGuard(
        Guard(program),
        policy="strict",
        breaker=CircuitBreaker(max_retries=0),
    )
    paths = {
        "Guard.check": [guard.check(row) for row in rows],
        "Guard.stream": list(
            guard.stream(rows, batch_size=max(1, len(rows) // 3))
        ),
        "LiveGuard.check": [live.check(row) for row in rows],
        "LiveGuard.stream": list(live.stream(rows, batch_size=16)),
        "ResilientGuard.check": [resilient.check(row) for row in rows],
        "ResilientGuard.check_batch": resilient.check_batch(rows),
    }
    # The crossover and one past it pin both sides of check_batch's
    # probe-or-kernel dispatch.
    for size in (1, 16, _PROBE_MAX_ROWS, _PROBE_MAX_ROWS + 1, 64):
        paths[f"Guard.check_batch[{size}]"] = _batched(
            guard.check_batch, rows, size
        )
    assert resilient.stats.failures == 0
    return paths


@pytest.mark.parametrize("seed", range(4))
def test_all_paths_agree_on_random_programs(seed):
    rng = np.random.default_rng(1000 + seed)
    kinds = dict.fromkeys(("none", "dependent", "determinant", "fallback"), 0)
    for case in range(N_CASES // 4):
        clear_dsl_caches()
        program, relation = _random_case(rng)
        rows = [relation.row(i) for i in range(relation.n_rows)]

        reference = [not row_conforms(program, row) for row in rows]
        vector = program_violations(program, relation)
        detection = detect_errors(program, relation)
        kernel = compiled_for(program, relation).detect(relation)

        context = f"seed={seed} case={case} program={program!r}"
        assert list(vector) == reference, context
        assert list(detection.row_mask) == reference, context
        assert list(kernel.row_mask) == reference, context

        # The implicated (attribute, expected) cells must agree between
        # the detection path and every guard path, row by row.
        by_row: dict[int, set] = {}
        for violation in detection.violations:
            by_row.setdefault(violation.row, set()).add(
                (violation.attribute, violation.expected)
            )
        expected_cells = [
            by_row.get(index, set()) for index in range(relation.n_rows)
        ]
        for path, verdicts in _guard_paths(program, rows).items():
            where = f"{path}: {context}"
            assert [not v.ok for v in verdicts] == reference, where
            assert [set(v.violations) for v in verdicts] == (
                expected_cells
            ), where

        # Both repair entry points make the reference repair: per row,
        # and relation-level on every row (unflagged ones stay as-is).
        domains = _program_domains(program)
        rectified = apply_strategy(program, relation, "rectify").relation
        guard = Guard(program)
        for index, row in enumerate(rows):
            want, kind = _reference_repair(program, row, domains)
            kinds[kind] += 1
            assert guard.rectify(row) == want, (
                f"Guard.rectify row {index}: {context}"
            )
            assert rectified.row(index) == want, (
                f"apply_strategy rectify row {index}: {context}"
            )
    # The cases reach every kind of repair.
    assert min(kinds.values()) > 0, kinds


def test_case_generator_is_exercised():
    """The generator must actually produce the hard shapes."""
    rng = np.random.default_rng(7)
    saw_chain = saw_ghost = saw_multi_det = False
    for _ in range(60):
        program, _ = _random_case(rng)
        dependents = {s.dependent for s in program}
        for statement in program:
            if set(statement.determinants) & dependents:
                saw_chain = True
            if len(statement.determinants) > 1:
                saw_multi_det = True
            for branch in statement.branches:
                if "ghost" in str(branch.literal):
                    saw_ghost = True
    assert saw_chain and saw_ghost and saw_multi_det


def test_argmax_fallback_agrees_on_random_programs(monkeypatch):
    """Same sweep with the LUT disabled: stacked-argmax must agree too."""
    import repro.dsl.compiled as compiled_module

    monkeypatch.setattr(compiled_module, "_LUT_MAX_ENTRIES", 0)
    rng = np.random.default_rng(77)
    for case in range(20):
        clear_dsl_caches()
        program, relation = _random_case(rng)
        rows = [relation.row(i) for i in range(relation.n_rows)]
        reference = [not row_conforms(program, row) for row in rows]
        compiled = compiled_for(program, relation)
        assert all(s.lut is None for s in compiled.statements)
        assert list(compiled.detect(relation).row_mask) == reference, (
            f"case={case} program={program!r}"
        )
