"""Resilience layer: budgets, policies, chaos, and self-healing.

Five pillars keep the pipeline production-safe:

* :mod:`~repro.resilience.budget` — :class:`Budget` objects threaded
  through synthesis (PC, MEC enumeration, sketch filling, OptSMT) so
  combinatorial phases stop gracefully at a deadline/step cap and
  ``synthesize`` returns a best-so-far ``partial`` result;
* :mod:`~repro.resilience.policy` — :class:`GuardPolicy` degradation
  modes (strict / warn / pass_through / reject), a
  :class:`CircuitBreaker` with retry/backoff, and a resilient wrapper
  for the streaming guard;
* :mod:`~repro.resilience.drift` — online :class:`DriftDetector`\\ s
  (codec-unseen rate, χ²/G² marginal shift, EWMA violation chart)
  raising typed :class:`DriftAlert`\\ s when the stream leaves the
  training distribution;
* :mod:`~repro.resilience.recovery` — the :class:`GuardrailSupervisor`
  closing the loop: quarantine, budgeted warm-started re-synthesis,
  held-out validation, atomic guardrail hot-swap with rollback;
* :mod:`~repro.resilience.chaos` — a fault-injection harness: one
  registry (:data:`FAULTS`) of fault classes in five families — unit,
  worker (forked pool workers), durability (the state disk), load
  (component faults inside a live :class:`repro.serve.GuardServer`
  under closed-loop clients) and overload (traffic storms) — each
  judged policy-conformant by one runner (:func:`run_fault`), with
  the served families in :mod:`~repro.resilience.chaos_serve`;
* :mod:`~repro.resilience.durability` — the crash-safe state store
  (write-ahead journal + atomic snapshot generations +
  :func:`~repro.resilience.durability.recover`) that makes hot-swaps,
  quarantine contents, and drift baselines survive process death;
* :mod:`~repro.resilience.overload` — overload control for the
  serving layer (CoDel-style adaptive admission, request deadlines,
  weighted fair-share budgets, brownout degradation tiers), judged by
  the chaos harness's ``overload`` family.
"""

from .budget import Budget, BudgetExceeded
from .chaos import (
    FAMILIES,
    FAULTS,
    ChaosOutcome,
    FaultClass,
    chaos_program,
    chaos_relation,
    render_chaos_report,
    run_chaos_suite,
    run_fault,
)
from .durability import (
    DiskIO,
    DurabilityError,
    DurableStateStore,
    FullDiskIO,
    JournalRecord,
    RecoveredState,
    SnapshotStore,
    TornWriteIO,
    WriteAheadJournal,
    atomic_write_text,
    fold_runtime_state,
    io_shim,
    recover,
    recover_runtime_state,
)
from .overload import (
    STEADY_CLOCK,
    AdmissionController,
    BrownoutConfig,
    BrownoutController,
    FairShareLimiter,
    SteadyClock,
)
from .drift import (
    DRIFT_KINDS,
    DriftAlert,
    DriftDetector,
    DriftStats,
    render_drift_report,
)
from .policy import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    DegradationStats,
    GuardPolicy,
    GuardUnavailableError,
    ResilientGuard,
    resilient_call,
)
from .policy import ResilientBatchGuard, ResilientRowGuard  # noqa: F401 - former names
from .recovery import (
    GuardrailSupervisor,
    GuardrailVersions,
    HealOutcome,
    LiveGuard,
    QuarantineBuffer,
    SupervisorConfig,
)
from .recovery import LiveBatchGuard, LiveRowGuard  # noqa: F401 - former names

__all__ = [
    "Budget",
    "BudgetExceeded",
    "GuardPolicy",
    "GuardUnavailableError",
    "CircuitOpenError",
    "BreakerState",
    "CircuitBreaker",
    "DegradationStats",
    "ResilientGuard",
    "resilient_call",
    "DRIFT_KINDS",
    "DriftAlert",
    "DriftDetector",
    "DriftStats",
    "render_drift_report",
    "QuarantineBuffer",
    "GuardrailVersions",
    "LiveGuard",
    "SupervisorConfig",
    "HealOutcome",
    "GuardrailSupervisor",
    "FAMILIES",
    "FAULTS",
    "FaultClass",
    "ChaosOutcome",
    "chaos_relation",
    "chaos_program",
    "run_fault",
    "run_chaos_suite",
    "render_chaos_report",
    "STEADY_CLOCK",
    "SteadyClock",
    "AdmissionController",
    "FairShareLimiter",
    "BrownoutConfig",
    "BrownoutController",
    "DurabilityError",
    "DiskIO",
    "TornWriteIO",
    "FullDiskIO",
    "io_shim",
    "atomic_write_text",
    "JournalRecord",
    "WriteAheadJournal",
    "SnapshotStore",
    "DurableStateStore",
    "RecoveredState",
    "recover",
    "recover_runtime_state",
    "fold_runtime_state",
]
