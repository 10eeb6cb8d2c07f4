"""Self-healing recovery: quarantine, re-synthesis, and guard hot-swap.

Drift detection (:mod:`repro.resilience.drift`) tells us the guard no
longer models the stream; this module closes the loop back to a
healthy state:

    detect → quarantine → re-synthesize → validate → swap → (rollback)

* :class:`QuarantineBuffer` — a bounded buffer for suspect rows that
  drops its oldest row when full, so a drifting stream cannot exhaust
  memory;
* :class:`GuardrailVersions` — a versioned holder for the live
  :class:`~repro.synth.Guardrail`: candidate programs are swapped in
  **atomically** (one reference assignment), every prior version is
  kept for :meth:`~GuardrailVersions.rollback`, and a corrupt
  guardrail file offered mid-swap surfaces
  :class:`~repro.synth.GuardrailLoadError` while the previous version
  stays active.  The holder speaks the executor's guardrail protocol
  (``handle``/``check``/``program``), so it plugs straight into
  :class:`repro.sql.QueryExecutor` and swaps take effect mid-session;
* :class:`LiveGuard` — a streaming-guard proxy that follows the
  holder's current version, so long-lived consumers pick up a hot-swap
  on their next check without rebuilding anything themselves;
* :class:`GuardrailSupervisor` — the conductor: feeds the detectors,
  quarantines flagged rows, and on a :class:`DriftAlert` re-synthesizes
  under a :class:`~repro.resilience.Budget` (warm-started from the
  prior run's PC skeleton, fill cache shared across heals), validates
  the candidate on held-out clean rows, and hot-swaps only a candidate
  that beats the incumbent's false-flag rate.

    supervisor = GuardrailSupervisor(guardrail, training=train)
    for verdict in supervisor.stream(rows):
        ...
    supervisor.version        # > 1 iff a heal swapped a new program in
    supervisor.heals          # what happened, and why
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .. import obs
from ..errors.stream import Guard, RowVerdict, _micro_batches
from ..relation import Relation
from ..synth import Guardrail, GuardrailLoadError
from .budget import Budget
from .drift import DriftAlert, DriftDetector
from .policy import GuardPolicy

class QuarantineBuffer:
    """A bounded holding pen for rows the guard flagged during drift.

    Parameters
    ----------
    capacity:
        Maximum rows held; a push beyond it drops the oldest row, so
        the buffer is a sliding window of the most recent suspects.

    Pushes are atomic (internal lock), so concurrent producers — the
    serving layer quarantines from many in-flight requests — can never
    overshoot ``capacity`` or drop a row while under it.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.dropped = 0
        self._rows: deque = deque()
        self._lock = threading.Lock()
        self._journal = None

    def attach_journal(self, journal) -> None:
        """Journal pushes/drains through ``journal(kind, **data)``.

        Quarantine traffic is *data-plane*: a journal write failure
        (e.g. disk full) must not lose the row or surface an exception
        to the guard path, so on failure the in-memory push proceeds
        anyway and the incident is counted
        (``durability.quarantine_unjournaled``) instead of raised —
        the opposite of the control-plane contract
        :meth:`GuardrailVersions.attach_journal` enforces.
        """
        self._journal = journal

    def _journal_event(self, kind: str, **data) -> None:
        """Best-effort data-plane journaling (count, never raise)."""
        if self._journal is None:
            return
        try:
            self._journal(kind, **data)
        except Exception:
            if obs.enabled():
                obs.count("durability.quarantine_unjournaled")

    def push(self, row: Mapping[str, Hashable]) -> bool:
        """Quarantine one row; returns False when a row was dropped."""
        self._journal_event("quarantine_push", row=dict(row))
        with self._lock:
            rows = self._rows
            if len(rows) < self.capacity:
                rows.append(row)
                return True
            self.dropped += 1
            rows.popleft()
            rows.append(row)
        if obs.enabled():
            obs.count("recovery.quarantine.dropped")
        return False

    def drain(self) -> list:
        """Remove and return every quarantined row."""
        self._journal_event("quarantine_drain")
        with self._lock:
            rows = list(self._rows)
            self._rows.clear()
        return rows

    def peek(self) -> list:
        """The quarantined rows, oldest first (non-destructive)."""
        with self._lock:
            return list(self._rows)

    def restore(self, rows: Iterable, dropped: int = 0) -> None:
        """Replace the buffer's contents wholesale (crash recovery).

        Used when rebuilding a tenant from the durability journal:
        the rows were already journaled once, so this bypasses
        :meth:`push` (and its journal hook) to avoid re-committing
        them.  Past ``capacity`` the oldest rows still drop.
        """
        with self._lock:
            self._rows.clear()
            self._rows.extend(list(rows)[-self.capacity :])
            self.dropped = int(dropped)

    def __len__(self) -> int:
        return len(self._rows)


class GuardrailVersions:
    """Versioned guardrail holder with atomic hot-swap and rollback.

    The *live* version is a single ``(number, guardrail)`` tuple
    reference, so a swap is atomic with respect to concurrent readers
    (:class:`LiveGuard`, the SQL executor's guard stage, the
    serving layer's batchers): every check runs against exactly one
    version, before or after the swap, never a mixture — and
    :meth:`snapshot` hands readers a *consistent* pair, never a new
    number with an old guardrail.  All prior versions stay resident
    for :meth:`rollback`; swap/rollback themselves serialize on an
    internal lock.
    """

    def __init__(self, guardrail: Guardrail):
        if not isinstance(guardrail, Guardrail):
            raise GuardrailLoadError(
                f"expected a Guardrail, got {type(guardrail).__name__}"
            )
        self._versions: list[Guardrail] = [guardrail]
        self._cursor = 0
        self._live: tuple[int, Guardrail] = (1, guardrail)
        self._lock = threading.RLock()
        self._journal = None

    def attach_journal(self, journal) -> None:
        """Journal swaps/rollbacks through ``journal(kind, **data)``.

        Version changes are *control-plane*: the event is journaled
        **before** the new version activates (the write-ahead
        contract), and a journal failure — e.g. the state disk is full
        — aborts the swap/rollback with the journal's typed error
        while the previous version **stays active**.  A version the
        caller saw activate is therefore always recoverable.
        """
        self._journal = journal

    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """The live version number (1-based; bumps on swap/rollback)."""
        return self._live[0]

    @property
    def n_versions(self) -> int:
        """How many versions have ever been installed."""
        return len(self._versions)

    @property
    def current(self) -> Guardrail:
        """The live guardrail."""
        return self._live[1]

    def snapshot(self) -> tuple[int, Guardrail]:
        """The live ``(version, guardrail)`` pair, read atomically.

        Concurrent readers that need the number and the guardrail to
        agree (e.g. a serving batcher stamping verdicts with the
        version they ran under) must use this instead of reading
        :attr:`version` and :attr:`current` separately across a
        potential swap.
        """
        return self._live

    @property
    def previous(self) -> Guardrail | None:
        """The version a :meth:`rollback` would restore (None at v1)."""
        with self._lock:
            if self._cursor == 0:
                return None
            return self._versions[self._cursor - 1]

    def history(self) -> tuple[Guardrail, ...]:
        """Every installed version, oldest first (the rollback chain).

        Read atomically; with :attr:`cursor` this is the full durable
        description of the holder — the durability layer snapshots it
        and rebuilds an identical holder on recovery.
        """
        with self._lock:
            return tuple(self._versions)

    @property
    def cursor(self) -> int:
        """0-based index of the live version within :meth:`history`."""
        return self._cursor

    def swap(self, guardrail: Guardrail) -> int:
        """Install ``guardrail`` as the live version; returns its number.

        Raises :class:`~repro.synth.GuardrailLoadError` (and leaves the
        current version active) when handed anything that is not a
        :class:`~repro.synth.Guardrail`.
        """
        if not isinstance(guardrail, Guardrail):
            raise GuardrailLoadError(
                f"hot-swap rejected: expected a Guardrail, got "
                f"{type(guardrail).__name__}; previous version stays live"
            )
        with self._lock:
            if self._journal is not None:
                from ..dsl import format_program

                self._journal(  # may raise: swap aborted, state intact
                    "swap",
                    version=len(self._versions) + 1,
                    program=format_program(guardrail.program),
                )
            self._versions.append(guardrail)
            self._cursor = len(self._versions) - 1
            self._live = (self._cursor + 1, guardrail)
        if obs.enabled():
            obs.count("recovery.swap")
            obs.record("recovery.swap", version=self.version)
        return self.version

    def swap_from_file(self, path, config=None) -> int:
        """Hot-swap from a saved guardrail file.

        A missing/corrupt/truncated payload raises
        :class:`~repro.synth.GuardrailLoadError` — typed, with the path
        and cause — and the previous version **stays active**: the load
        is fully validated before the swap happens.
        """
        candidate = Guardrail.load(path, config)  # may raise, pre-swap
        return self.swap(candidate)

    def rollback(self) -> int:
        """Re-activate the previous version; returns the live number.

        Raises ``RuntimeError`` when already at the first version.
        """
        with self._lock:
            if self._cursor == 0:
                raise RuntimeError(
                    "cannot roll back past the first version"
                )
            if self._journal is not None:
                # May raise: rollback aborted, current version intact.
                self._journal("rollback", to_version=self._cursor)
            self._cursor -= 1
            self._live = (self._cursor + 1, self._versions[self._cursor])
        if obs.enabled():
            obs.count("recovery.rollback")
        return self.version

    # ------------------------------------------------------------------
    # The executor-facing guardrail protocol (delegation to current).
    # ------------------------------------------------------------------

    @property
    def program(self):
        """The live version's program."""
        return self.current.program

    def handle(
        self, relation: Relation, strategy: str = "rectify", pool=None
    ):
        """Apply an error-handling strategy via the live version
        (``pool`` shards its detection pass, as in
        :meth:`~repro.synth.Guardrail.handle`)."""
        return self.current.handle(relation, strategy, pool=pool)

    def check(self, relation: Relation):
        """Row-violation mask under the live version."""
        return self.current.check(relation)

    def guard(self) -> "LiveGuard":
        """A streaming guard that follows hot-swaps."""
        return LiveGuard(self)


class LiveGuard:
    """A :class:`~repro.errors.Guard` proxy bound to the live version.

    The first call after a hot-swap transparently rebuilds the inner
    guard for the new program; verdict semantics are exactly
    :class:`~repro.errors.Guard`'s.  The rebuilt guard lives in a
    single immutable ``(version, guard)`` snapshot, refreshed under a
    lock, so a check racing a :meth:`GuardrailVersions.swap` can never
    interleave the guard with the wrong version label (the torn state
    where verdicts keep coming from the old program while
    :attr:`version` reports the new one) and can never rebuild twice
    for one version (which silently dropped the first rebuild's
    ``stats`` counters).  A batch runs wholly under one version, so
    :meth:`stream` picks up swaps at batch boundaries.
    """

    def __init__(self, versions: GuardrailVersions):
        self._versions = versions
        self._built: tuple[int, Guard] | None = None
        self._drift = None
        self._lock = threading.Lock()
        #: Version the most recent operation ran under.  Single-consumer
        #: bookkeeping (the serving batcher stamps responses with it);
        #: concurrent readers should use :meth:`current_snapshot`.
        self.last_version = 0

    def _build(self, guardrail: Guardrail) -> Guard:
        return guardrail.guard()

    def current_snapshot(self) -> tuple[int, Guard]:
        """A consistent ``(version, guard)`` pair for version-stamped
        work: the guard *is* the one built for that version (rebuilt
        on swap), even when a hot-swap lands concurrently (the pair is
        simply one swap behind until the next call)."""
        built = self._built
        if built is not None and built[0] == self._versions.version:
            self.last_version = built[0]
            return built
        with self._lock:
            built = self._built
            version, guardrail = self._versions.snapshot()
            if built is None or built[0] != version:
                guard = self._build(guardrail)
                if self._drift is not None:
                    guard.attach_drift(self._drift)
                built = (version, guard)
                self._built = built
            self.last_version = built[0]
            return built

    def _current(self) -> Guard:
        """The inner guard for the live version (rebuilt on swap)."""
        return self.current_snapshot()[1]

    def attach_drift(self, detector) -> None:
        """Attach a drift detector that survives hot-swap rebuilds."""
        with self._lock:
            self._drift = detector
            if self._built is not None:
                self._built[1].attach_drift(detector)

    @property
    def drift(self):
        """The attached drift detector, if any."""
        return self._drift

    @property
    def version(self) -> int:
        """The guardrail version the next check will run against."""
        return self._versions.version

    @property
    def stats(self):
        """The inner guard's counters (reset when a swap rebuilds it)."""
        return self._current().stats

    def check(self, row: Mapping[str, Hashable]) -> RowVerdict:
        """Vet one row against the live version."""
        return self._current().check(row)

    def check_batch(self, rows: Sequence) -> list[RowVerdict]:
        """Vet a batch against the live version."""
        return self._current().check_batch(rows)

    def stream(
        self, rows: Iterable, batch_size: int = 256
    ) -> Iterator[RowVerdict]:
        """Vet a row stream with micro-batching; each flush runs wholly
        under one version (verdicts are never mixed within a batch)."""
        return _micro_batches(self.check_batch, rows, batch_size)

    def rectify(self, row: Mapping[str, Hashable]) -> dict:
        """Repair one row against the live version."""
        return self._current().rectify(row)

    def process(self, row: Mapping[str, Hashable], strategy: str = "rectify"):
        """One-shot vetting under a named strategy (live version)."""
        return self._current().process(row, strategy)

    def __len__(self) -> int:
        return len(self._current())


LiveRowGuard = LiveGuard  # former name of the row proxy
LiveBatchGuard = LiveGuard  # former name of the batch proxy


@dataclass
class SupervisorConfig:
    """Knobs of the self-healing loop (defaults favour safety).

    Attributes
    ----------
    history_rows:
        Recent raw rows kept as re-synthesis material (a sliding
        window over the *current* distribution).
    quarantine_capacity:
        Bound of the suspect-row buffer (see :class:`QuarantineBuffer`).
    min_heal_rows:
        Don't attempt a heal on less history than this.
    heal_budget_seconds / heal_budget_steps:
        The :class:`~repro.resilience.Budget` each re-synthesis runs
        under (None disables that limit).
    holdout_every:
        Every k-th history row is held out of re-synthesis and used to
        validate the candidate (k >= 2).
    validation_margin:
        A candidate is acceptable when its held-out false-flag rate is
        at most ``max(validation_margin, incumbent_rate)``.
    cooldown_rows:
        Rows to wait after a heal attempt before reacting to alerts
        again (lets the rebased detectors refill their windows).
    checkpoint_dir:
        When set, each heal's synthesis journals its state here
        (crash-safe resume via ``synthesize(resume_from=...)``).
    """

    history_rows: int = 2048
    quarantine_capacity: int = 1024
    min_heal_rows: int = 128
    heal_budget_seconds: float | None = 10.0
    heal_budget_steps: int | None = 200_000
    holdout_every: int = 5
    validation_margin: float = 0.05
    cooldown_rows: int = 512
    checkpoint_dir: object | None = None

    def __post_init__(self) -> None:
        if self.holdout_every < 2:
            raise ValueError("holdout_every must be >= 2")
        if self.history_rows < 1:
            raise ValueError("history_rows must be >= 1")


@dataclass(frozen=True)
class HealOutcome:
    """What one heal attempt did, and why."""

    alert: DriftAlert | None
    accepted: bool
    reason: str
    old_version: int
    new_version: int
    candidate_statements: int = 0
    candidate_false_flag_rate: float = float("nan")
    incumbent_false_flag_rate: float = float("nan")
    synthesis_partial: bool = False
    elapsed_seconds: float = 0.0


class GuardrailSupervisor:
    """Reacts to drift alerts by re-synthesizing and hot-swapping.

    Parameters
    ----------
    guardrail:
        The fitted incumbent (or an existing
        :class:`GuardrailVersions` holder to supervise in place).
    training:
        Training relation for drift calibration; required unless a
        pre-built ``drift`` detector is supplied.
    drift:
        Optional pre-configured :class:`DriftDetector`.
    config:
        The :class:`SupervisorConfig` heal-loop knobs.
    policy:
        :class:`~repro.resilience.GuardPolicy` note for reporting; the
        supervisor itself never raises out of :meth:`check` for data
        problems (violations are verdicts, not failures), so the
        policy only governs how callers wrap the live guard.
    synth_config:
        :class:`~repro.synth.GuardrailConfig` for re-synthesis
        (default: the incumbent's own config).
    """

    def __init__(
        self,
        guardrail: "Guardrail | GuardrailVersions",
        training: Relation | None = None,
        drift: DriftDetector | None = None,
        config: SupervisorConfig | None = None,
        policy: "GuardPolicy | str" = GuardPolicy.WARN,
        synth_config=None,
    ):
        self.versions = (
            guardrail
            if isinstance(guardrail, GuardrailVersions)
            else GuardrailVersions(guardrail)
        )
        self.config = config or SupervisorConfig()
        self.policy = GuardPolicy.parse(policy)
        if drift is None:
            if training is None:
                raise ValueError(
                    "GuardrailSupervisor needs `training` (to calibrate "
                    "drift detection) or a pre-built `drift` detector"
                )
            drift = DriftDetector.from_training(
                training, program=self.versions.program
            )
        self.drift = drift
        self.synth_config = synth_config or self.versions.current.config
        self.quarantine = QuarantineBuffer(self.config.quarantine_capacity)
        self.heals: list[HealOutcome] = []
        self.alerts: list[DriftAlert] = []
        self._guard = self.versions.guard()
        self._history: deque = deque(maxlen=self.config.history_rows)
        self._cooldown = 0
        self._fill_cache = None  # built lazily; shared across heals

    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """The live guardrail version."""
        return self.versions.version

    def guard(self) -> LiveGuard:
        """A hot-swap-following guard over the supervised versions."""
        return self.versions.guard()

    def check(self, row: Mapping[str, Hashable]) -> RowVerdict:
        """Vet one row, feed the detectors, and heal when drift fires.

        This is the supervised deployment loop in one call: the verdict
        comes from the live guard (hot-swaps apply immediately), the
        row lands in the history window (and, if flagged, the
        quarantine buffer), and any pending :class:`DriftAlert`
        triggers a heal once the cooldown allows.
        """
        verdict = self._guard.check(row)
        self._ingest(row, verdict.ok)
        return verdict

    def stream(
        self, rows: Iterable[Mapping[str, Hashable]]
    ) -> Iterator[RowVerdict]:
        """Vet a row stream under supervision (see :meth:`check`)."""
        for row in rows:
            yield self.check(row)

    def observe(self, row: Mapping[str, Hashable], ok: bool) -> None:
        """Feed an externally-vetted row (e.g. from the SQL guard stage)
        into drift tracking without re-checking it."""
        self._ingest(row, ok)

    def _ingest(self, row: Mapping[str, Hashable], ok: bool) -> None:
        self._history.append(row)
        self.drift.observe(row, ok)
        if not ok:
            self.quarantine.push(row)
        if self._cooldown > 0:
            self._cooldown -= 1
            self.drift.poll()  # discard alerts raised mid-cooldown
            return
        alerts = self.drift.poll()
        if alerts:
            self.alerts.extend(alerts)
            self.heal(alerts[0])

    # ------------------------------------------------------------------

    def heal(self, alert: DriftAlert | None = None) -> HealOutcome:
        """One full recovery attempt: re-synthesize, validate, swap.

        Never raises for a failed heal — a candidate that cannot be
        synthesized or fails validation is *rejected* (the incumbent
        stays live) and the outcome records why.  The cooldown starts
        regardless, so a persistent alert cannot melt the CPU with
        back-to-back synthesis runs.
        """
        started = time.perf_counter()
        self._cooldown = self.config.cooldown_rows
        old_version = self.versions.version
        with obs.span("recovery.heal", version=old_version):
            outcome = self._heal(alert, old_version, started)
        self.heals.append(outcome)
        if obs.enabled():
            obs.count(
                "recovery.heal.accepted"
                if outcome.accepted
                else "recovery.heal.rejected"
            )
        return outcome

    def _heal(
        self, alert: DriftAlert | None, old_version: int, started: float
    ) -> HealOutcome:
        from ..synth import synthesize

        def rejected(reason: str, **kwargs) -> HealOutcome:
            return HealOutcome(
                alert=alert,
                accepted=False,
                reason=reason,
                old_version=old_version,
                new_version=old_version,
                elapsed_seconds=time.perf_counter() - started,
                **kwargs,
            )

        rows = list(self._history)
        if len(rows) < self.config.min_heal_rows:
            return rejected(
                f"insufficient history ({len(rows)} rows < "
                f"{self.config.min_heal_rows})"
            )
        every = self.config.holdout_every
        holdout = rows[::every]
        train = [row for i, row in enumerate(rows) if i % every]
        try:
            train_relation = Relation.from_rows(train)
            holdout_relation = Relation.from_rows(holdout)
        except Exception as error:  # malformed rows in the window
            return rejected(
                f"history rows do not form a relation: "
                f"{type(error).__name__}: {error}"
            )

        budget = Budget(
            seconds=self.config.heal_budget_seconds,
            max_steps=self.config.heal_budget_steps,
        )
        checkpoint_path = None
        if self.config.checkpoint_dir is not None:
            from pathlib import Path

            directory = Path(self.config.checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            checkpoint_path = directory / f"heal-v{old_version}.json"
        warm = self._warm_start()
        if self._fill_cache is None:
            from ..sketch import FillCache

            self._fill_cache = FillCache()
        try:
            result = synthesize(
                train_relation,
                self.synth_config,
                budget=budget,
                warm_start=warm,
                fill_cache=self._fill_cache,
                checkpoint_path=checkpoint_path,
            )
        except Exception as error:
            return rejected(
                f"re-synthesis failed: {type(error).__name__}: {error}"
            )
        if not len(result.program):
            return rejected(
                "candidate program is empty (nothing to enforce)",
                synthesis_partial=result.partial,
            )
        candidate = Guardrail.from_result(result, self.synth_config)
        try:
            candidate_rate = float(
                candidate.check(holdout_relation).mean()
            )
            incumbent_rate = float(
                self.versions.check(holdout_relation).mean()
            )
        except Exception as error:
            return rejected(
                f"validation failed: {type(error).__name__}: {error}",
                candidate_statements=len(result.program),
                synthesis_partial=result.partial,
            )
        bar = max(self.config.validation_margin, incumbent_rate)
        if candidate_rate > bar:
            return rejected(
                f"candidate false-flag rate {candidate_rate:.3f} exceeds "
                f"acceptance bar {bar:.3f}",
                candidate_statements=len(result.program),
                candidate_false_flag_rate=candidate_rate,
                incumbent_false_flag_rate=incumbent_rate,
                synthesis_partial=result.partial,
            )
        new_version = self.versions.swap(candidate)
        # The healed window is the new "normal": rebase the detectors
        # on it so residual evidence against the old program cannot
        # immediately re-alert.
        try:
            window_relation = Relation.from_rows(rows)
        except Exception:
            window_relation = train_relation
        self.drift.rebase(
            window_relation, baseline_violation_rate=candidate_rate
        )
        return HealOutcome(
            alert=alert,
            accepted=True,
            reason=(
                f"swapped v{old_version} -> v{new_version}: candidate "
                f"false-flag {candidate_rate:.3f} <= bar {bar:.3f}"
            ),
            old_version=old_version,
            new_version=new_version,
            candidate_statements=len(result.program),
            candidate_false_flag_rate=candidate_rate,
            incumbent_false_flag_rate=incumbent_rate,
            synthesis_partial=result.partial,
            elapsed_seconds=time.perf_counter() - started,
        )

    def rollback(self) -> int:
        """Back out the most recent swap (see
        :meth:`GuardrailVersions.rollback`)."""
        return self.versions.rollback()

    def _warm_start(self):
        """The incumbent's PC result, when it has one (synthesized
        guardrails do; hand-written programs don't)."""
        result = self.versions.current._result
        if result is not None and result.pc_result is not None:
            return result.pc_result
        return None
