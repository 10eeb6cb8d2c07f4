"""GUARDRAIL synthesis: Algorithm 2 and the user-facing facade.

Pipeline (paper Fig. 4):

    data ──sampler──> auxiliary samples ──PC──> CPDAG (the MEC)
         ──enumerate DAGs──> sketches ──Alg. 1──> candidate programs
         ──max coverage──> the synthesized integrity-constraint program

:func:`synthesize` runs the pipeline once and returns the best program
plus diagnostics; :class:`Guardrail` wraps it in a fit/check/handle API
mirroring the paper's deployment story (Fig. 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..dsl import Program, program_coverage, program_loss, program_violations
from ..pgm import CITester, PCResult, enumerate_mec, learn_cpdag
from ..relation import Relation
from ..sketch import FillCache, FillStats, ProgramSketch, SketchJudge, fill_program_sketch
from .config import GuardrailConfig


class GuardrailLoadError(ValueError):
    """Raised by :meth:`Guardrail.load` on a missing/corrupt payload."""


@dataclass
class SynthesisResult:
    """The synthesized program plus everything the evaluation reports."""

    program: Program
    coverage: float
    loss: int
    pc_result: PCResult
    n_dags_enumerated: int
    fill_stats: FillStats
    timings: dict[str, float] = field(default_factory=dict)
    partial: bool = False
    """True when a :class:`repro.resilience.Budget` cut a phase short;
    the program is the best found within the budget, not the optimum."""
    budget_notes: tuple[str, ...] = ()
    """Which phases were truncated and where (empty when complete)."""
    resumed: bool = False
    """True when this run continued from a journaled checkpoint
    (``synthesize(resume_from=...)``) instead of starting fresh."""

    @property
    def total_time(self) -> float:
        """Sum of the per-phase wall-clock timings."""
        return sum(self.timings.values())


def enumerate_candidate_dags(
    cpdag, max_dags: int | None = None, budget=None
):
    """DAG candidates entailed by a (possibly noisy) learned pattern.

    Yields the consistent extensions of the pattern; when the pattern
    admits none (conflicting collider evidence on finite data can make
    it cyclic), falls back to extensions of its undirected *skeleton*
    so downstream coverage selection always has candidates.
    """
    from ..pgm import PDAG

    produced = 0
    for dag in enumerate_mec(
        cpdag, max_dags=max_dags, verify_leaves=False, budget=budget
    ):
        produced += 1
        yield dag
    if produced == 0 and cpdag.skeleton():
        skeleton = PDAG(
            cpdag.nodes,
            undirected=(tuple(sorted(e)) for e in cpdag.skeleton()),
        )
        for dag in enumerate_mec(
            skeleton, max_dags=max_dags, verify_leaves=False, budget=budget
        ):
            produced += 1
            yield dag
    if produced == 0 and cpdag.skeleton():
        # Non-chordal skeletons admit no collider-free orientation at
        # all; orient along a fixed node order as a last-resort
        # candidate (always acyclic; coverage selection judges it).
        from ..pgm import DAG

        order = {node: i for i, node in enumerate(cpdag.nodes)}
        edges = [
            tuple(sorted(edge, key=lambda n: order[n]))
            for edge in cpdag.skeleton()
        ]
        yield DAG(cpdag.nodes, edges)


def synthesize(
    relation: Relation,
    config: GuardrailConfig | None = None,
    budget=None,
    *,
    warm_start=None,
    fill_cache: FillCache | None = None,
    checkpoint_path=None,
    resume_from=None,
) -> SynthesisResult:
    """Synthesize the optimal ε-valid program for a dataset (Alg. 2).

    Enumerates the DAGs of the learned Markov equivalence class, derives
    the program sketch each DAG entails, concretizes it with Algorithm 1
    (sharing a statement-level fill cache across DAGs), and returns the
    program with the highest coverage.

    With a :class:`repro.resilience.Budget`, every combinatorial phase
    (PC's CI tests, MEC enumeration, sketch filling) spends against it
    and stops gracefully on exhaustion; the result is then the best
    program found so far, flagged ``partial=True``.  The first candidate
    DAG is always concretized in full, so a budgeted run returns a
    usable program whenever the data admits one.

    Synthesis runs in the calling process: every DAG fills against the
    one shared :class:`~repro.sketch.FillCache`, so no statement is
    filled twice.

    Parameters
    ----------
    warm_start:
        A prior run's :class:`~repro.pgm.PCResult`: its skeleton seeds
        PC's starting graph (PC then only prunes within it) and its
        separating sets carry over, cutting CI tests when the structure
        has not wholesale changed — the common case when the
        self-healing loop re-synthesizes after drift.
    fill_cache:
        A caller-owned :class:`~repro.sketch.FillCache` shared across
        runs; it is :meth:`~repro.sketch.FillCache.scope`-d to this
        relation/config first, so stale entries never leak between
        datasets.
    checkpoint_path:
        When set, synthesis state is journaled here (atomic writes):
        once after structure learning and again after every fully
        concretized DAG.  A killed process loses at most one DAG's
        work.
    resume_from:
        A checkpoint path (or loaded
        :class:`~repro.synth.SynthesisCheckpoint`) from a prior run on
        the *same* data and config: structure learning is skipped and
        enumeration continues past the journaled cursor.  With
        deterministic enumeration and pure fills, the resumed result
        equals the uninterrupted run's.  Raises
        :class:`~repro.synth.CheckpointError` on a corrupt checkpoint
        or a data/config mismatch.
    """
    config = config or GuardrailConfig()
    if budget is not None:
        budget.start()
    with obs.span(
        "synth.synthesize",
        n_rows=relation.n_rows,
        n_attributes=len(relation.schema),
        epsilon=config.epsilon,
    ) as run_span:
        result = _synthesize(
            relation,
            config,
            budget,
            warm_start=warm_start,
            fill_cache=fill_cache,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )
        run_span.set(
            statements=len(result.program),
            dags=result.n_dags_enumerated,
            ci_tests=result.pc_result.n_ci_tests,
            loss=result.loss,
            partial=result.partial,
        )
    return result


def _synthesize(
    relation: Relation,
    config: GuardrailConfig,
    budget=None,
    warm_start=None,
    fill_cache: FillCache | None = None,
    checkpoint_path=None,
    resume_from=None,
) -> SynthesisResult:
    """The span-free body of :func:`synthesize` (Alg. 2 proper)."""
    rng = np.random.default_rng(config.seed)
    timings: dict[str, float] = {}

    checkpoint = None
    if resume_from is not None:
        from .checkpoint import (
            CheckpointError,
            SynthesisCheckpoint,
            config_fingerprint,
            relation_fingerprint,
        )

        checkpoint = (
            resume_from
            if isinstance(resume_from, SynthesisCheckpoint)
            else SynthesisCheckpoint.load(resume_from)
        )
        if checkpoint.relation_token != relation_fingerprint(relation):
            raise CheckpointError(
                "checkpoint was journaled for different data than this "
                "run's relation; refusing to resume (the result would "
                "mix two datasets)"
            )
        if checkpoint.config_token != config_fingerprint(config):
            raise CheckpointError(
                "checkpoint was journaled under a different synthesis "
                "config (seed/epsilon/learner/...); refusing to resume"
            )
        if obs.enabled():
            obs.count("synth.resume")

    # Phase 1: sampling (auxiliary distribution by default, §4.6).
    start = time.perf_counter()
    with obs.span("synth.sampling"):
        codes, names = config.sampler.transform(relation, rng)
    timings["sampling"] = time.perf_counter() - start

    # Phase 2: structure learning to the MEC (§4.4).  A resumed run
    # reuses the journaled pattern instead of re-running PC.
    start = time.perf_counter()
    with obs.span("synth.structure_learning", learner=config.learner):
        tester = CITester(
            codes,
            names,
            alpha=config.alpha,
            min_samples_per_dof=config.min_samples_per_dof,
        )
        if checkpoint is not None:
            pc_result = checkpoint.pc_result()
        elif config.learner == "hc":
            # Score-based alternative: hill-climb a DAG, then take its
            # equivalence class (the CPDAG) so the rest of Alg. 2 is
            # shared.
            from ..pgm import cpdag_from_dag, hill_climb

            hc_result = hill_climb(codes, names)
            pc_result = PCResult(
                cpdag=cpdag_from_dag(hc_result.dag),
                separating_sets={},
                n_ci_tests=hc_result.families_scored,
            )
        else:
            pc_result = learn_cpdag(
                tester,
                max_condition_size=config.max_condition_size,
                budget=budget,
                initial_skeleton=(
                    warm_start.cpdag if warm_start is not None else None
                ),
                initial_separating=(
                    warm_start.separating_sets
                    if warm_start is not None
                    else None
                ),
            )
    timings["structure_learning"] = time.perf_counter() - start

    def journal(phase: str, cursor: int, program, score: float) -> None:
        from .checkpoint import checkpoint_from_state

        checkpoint_from_state(
            relation,
            config,
            pc_result,
            phase=phase,
            dag_cursor=cursor,
            best_program=program,
            best_selection_score=score,
            budget=budget,
        ).save(checkpoint_path)
        if obs.enabled():
            obs.count("synth.checkpoint")

    # Journal only states an uninterrupted run would also reach: a
    # budget-truncated PC pass learned a different (denser) pattern, so
    # nothing downstream of it may seed a resume either.
    can_journal = checkpoint_path is not None and not pc_result.notes
    if can_journal:
        journal("pc", 0, None, -1.0)

    # Phase 3: MEC enumeration + sketch concretization (Alg. 2).
    start = time.perf_counter()
    if fill_cache is not None:
        # A caller-owned cache shared across runs: flush entries filled
        # against other data/parameters before trusting it.
        cache = fill_cache.scope(
            relation, config.epsilon, min_support=config.min_support
        )
    else:
        cache = FillCache()
    stats = FillStats()
    judge = SketchJudge(tester) if config.prune_gnt else None

    best_program = Program.empty()
    best_coverage = -1.0
    skip_dags = 0
    if checkpoint is not None:
        best_program = checkpoint.best_program()
        best_coverage = checkpoint.best_selection_score
        skip_dags = checkpoint.dag_cursor
    n_dags = 0
    # PC output on finite noisy data is not always a perfectly valid
    # CPDAG (conflicting v-structures); treat it as background knowledge
    # and enumerate its consistent extensions instead of enforcing exact
    # class membership — Alg. 2's coverage criterion then selects among
    # them.
    with obs.span("synth.enumeration_and_fill") as fill_span:
        for dag in enumerate_candidate_dags(
            pc_result.cpdag, max_dags=config.max_dags, budget=budget
        ):
            n_dags += 1
            if n_dags <= skip_dags:
                # Resume: this prefix of the deterministic enumeration
                # was already concretized before the crash; its best
                # survivor is seeded above.
                continue
            # The first DAG concretizes in full even under an exhausted
            # budget (the partial-result guarantee); later DAGs respect
            # it and may stop mid-statement.
            dag_budget = None if n_dags == 1 else budget
            sketch = ProgramSketch.from_dag(dag)
            if judge is not None:
                sketch = judge.prune_to_gnt(sketch)
            program = fill_program_sketch(
                sketch,
                relation,
                config.epsilon,
                min_support=config.min_support,
                cache=cache,
                stats=stats,
                budget=dag_budget,
            )
            # Selection uses *total* statement coverage: unlike the
            # average, it does not reward DAGs whose statements fail to
            # concretize (⊥ statements are dropped, which would inflate
            # an average).
            score = program_coverage(program, relation) * max(len(program), 1)
            if score > best_coverage:
                best_coverage = score
                best_program = program
            fill_complete = dag_budget is None or not dag_budget.exhausted()
            if can_journal and fill_complete:
                # A truncated fill is never journaled: the checkpoint
                # must only hold states the uninterrupted run reaches.
                journal("fill", n_dags, best_program, best_coverage)
            if budget is not None and budget.exhausted():
                budget.note(f"enumeration: stopped after {n_dags} DAGs")
                break
        fill_span.set(
            dags=n_dags,
            cache_hits=stats.cache_hits,
            statements_filled=stats.statements_filled,
        )
    timings["enumeration_and_fill"] = time.perf_counter() - start

    partial = budget is not None and (
        budget.truncated or budget.exhausted()
    )
    loss = program_loss(best_program, relation)
    return SynthesisResult(
        program=best_program,
        # Reported coverage follows the paper's definition (average
        # statement coverage, Eqn. 6), independent of the selection
        # criterion above.
        coverage=program_coverage(best_program, relation),
        loss=loss,
        pc_result=pc_result,
        n_dags_enumerated=n_dags,
        fill_stats=stats,
        timings=timings,
        partial=partial,
        budget_notes=tuple(budget.notes) if budget is not None else (),
        resumed=checkpoint is not None,
    )


class Guardrail:
    """The deployable artifact: fit once, then vet incoming rows.

    >>> guard = Guardrail(GuardrailConfig(epsilon=0.02))
    >>> guard.fit(train)                    # offline synthesis
    >>> mask = guard.check(test)            # True where a row violates
    >>> clean = guard.handle(test, "rectify")
    """

    def __init__(self, config: GuardrailConfig | None = None):
        self.config = config or GuardrailConfig()
        self._result: SynthesisResult | None = None

    # ------------------------------------------------------------------

    def fit(self, relation: Relation, budget=None) -> "Guardrail":
        """Synthesize integrity constraints from (noisy) training data.

        An optional :class:`repro.resilience.Budget` caps the synthesis;
        a budget-truncated fit is still usable (``result.partial``).
        """
        self._result = synthesize(relation, self.config, budget=budget)
        return self

    @property
    def is_fitted(self) -> bool:
        """Has ``fit()`` completed?"""
        return self._result is not None

    @property
    def result(self) -> SynthesisResult:
        """The full SynthesisResult; raises RuntimeError when unfitted."""
        if self._result is None:
            raise RuntimeError("Guardrail is not fitted; call fit() first")
        return self._result

    @property
    def program(self) -> Program:
        """The synthesized program."""
        return self.result.program

    # ------------------------------------------------------------------

    def check(self, relation: Relation) -> np.ndarray:
        """Boolean mask of rows violating the synthesized constraints.

        Runs through the compiled kernels of :mod:`repro.dsl.compiled`
        (lowered once per program/codec pair, condition masks cached per
        relation), so repeated checks over the same data are cheap.
        """
        return program_violations(self.program, relation)

    def check_row(self, row: dict) -> bool:
        """Does a single (decoded) row violate the constraints?"""
        from ..dsl import row_conforms

        return not row_conforms(self.program, row)

    def guard(self):
        """A :class:`repro.errors.Guard` over the fitted program.

        Per-row hash probes (``check``) for one-at-a-time arrival and
        micro-batched kernels (``check_batch``/``stream``) for
        streaming arrival; verdicts match :meth:`check` exactly
        (canonical Eqn. 1 semantics).
        """
        from ..errors import Guard

        return Guard(self.program)

    def handle(self, relation: Relation, strategy: str = "rectify"):
        """Apply an error-handling strategy; see :mod:`repro.errors`."""
        from ..errors import apply_strategy

        return apply_strategy(self.program, relation, strategy)

    def rectify(self, relation: Relation) -> Relation:
        """Shorthand for the rectify strategy, returning only the data."""
        outcome = self.handle(relation, "rectify")
        return outcome.relation

    def save(self, path) -> None:
        """Persist the synthesized program as DSL text.

        The text form round-trips exactly (``parse_program``), so a
        saved guardrail can be audited, edited, and reloaded.  The
        write is atomic (tmp + fsync + rename via
        :func:`repro.resilience.atomic_write_text`): a crash mid-save
        leaves the previous file intact, never a torn program a later
        ``load`` would reject.
        """
        from ..dsl import format_program
        from ..resilience.durability import atomic_write_text

        atomic_write_text(path, format_program(self.program) + "\n")

    @classmethod
    def from_program(
        cls, program: Program, config: GuardrailConfig | None = None
    ) -> "Guardrail":
        """Wrap an existing program (hand-written or parsed) as a guard.

        The instance can check/handle data immediately; synthesis
        metadata (timings, PC diagnostics) is absent.
        """
        if not isinstance(program, Program):
            raise GuardrailLoadError(
                f"expected a Program, got {type(program).__name__}"
            )
        guard = cls(config)
        guard._result = SynthesisResult(
            program=program,
            coverage=float("nan"),
            loss=0,
            pc_result=None,  # type: ignore[arg-type]
            n_dags_enumerated=0,
            fill_stats=FillStats(),
        )
        return guard

    @classmethod
    def from_result(
        cls,
        result: SynthesisResult,
        config: GuardrailConfig | None = None,
    ) -> "Guardrail":
        """Wrap an existing :class:`SynthesisResult` as a guardrail.

        The self-healing loop synthesizes candidates via
        :func:`synthesize` directly (to thread budgets, warm starts and
        fill caches) and then promotes the winner with this — keeping
        the full diagnostics (PC result, timings) that
        :meth:`from_program` discards, so the *next* heal can warm-start
        from this run's skeleton.
        """
        if not isinstance(result, SynthesisResult):
            raise GuardrailLoadError(
                f"expected a SynthesisResult, got {type(result).__name__}"
            )
        guard = cls(config)
        guard._result = result
        return guard

    @classmethod
    def load(cls, path, config: GuardrailConfig | None = None) -> "Guardrail":
        """Reconstruct a guardrail from a saved program file.

        The payload is validated before use: a missing file, an empty or
        binary payload, or DSL text that fails to parse all raise
        :class:`GuardrailLoadError` naming the path and the cause,
        instead of leaking ``KeyError``/parser tracebacks to the caller.
        """
        from pathlib import Path

        from ..dsl import DslError, parse_program

        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise GuardrailLoadError(
                f"no such guardrail file: {path}"
            ) from None
        except (OSError, UnicodeDecodeError) as error:
            raise GuardrailLoadError(
                f"cannot read guardrail file {path}: {error}"
            ) from error
        if not text.strip():
            raise GuardrailLoadError(
                f"guardrail file {path} is empty (expected DSL text; "
                f"was the save truncated?)"
            )
        try:
            program = parse_program(text)
        except DslError as error:
            raise GuardrailLoadError(
                f"guardrail file {path} is not a valid DSL program: "
                f"{error}"
            ) from error
        return cls.from_program(program, config)

    def describe(self) -> str:
        """Human-readable summary of the fitted constraints."""
        from ..dsl import format_program

        result = self.result
        ci_tests = (
            result.pc_result.n_ci_tests if result.pc_result else "n/a"
        )
        lines = [
            f"Guardrail: {len(result.program)} statements, "
            f"{len(result.program.branches)} branches",
            f"coverage={result.coverage:.3f} loss={result.loss} "
            f"dags={result.n_dags_enumerated} "
            f"ci_tests={ci_tests}",
        ]
        if result.program:
            lines.append(format_program(result.program))
        return "\n".join(lines)
