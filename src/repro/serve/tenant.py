"""One tenant: a named guardrail, its admission queue, and its batcher.

Each registered tenant owns

* a :class:`~repro.resilience.GuardrailVersions` holder (hot-swap under
  live traffic, per tenant);
* one live guard proxy (:class:`~repro.resilience.LiveGuard`) wrapped
  in one :class:`~repro.resilience.ResilientGuard`, so a per-tenant
  :class:`~repro.resilience.GuardPolicy` and
  :class:`~repro.resilience.CircuitBreaker` govern degradation of
  checks and repairs alike;
* a bounded admission queue: requests coalesce into micro-batches
  (flush on ``max_batch`` rows or ``max_wait_ms``), and an overload
  pipeline sheds deliberately — adaptive admission
  (:class:`~repro.resilience.AdmissionController`) rejects with
  honest jittered ``retry_after`` before the queue-full cliff,
  request deadlines expire at dequeue (typed ``EXPIRED``, no guard
  work wasted), and the server-wide fair-share budget keeps one
  noisy tenant from starving the rest;
* service metrics (:class:`TenantMetrics`), the one always-on
  per-tenant tally.  With tracing on, every serve event is also
  counted live in the active :mod:`repro.obs` sink, labelled
  ``tenant=<name>``, once per occurrence; obs stamps it with
  :data:`~repro.obs.STEADY_CLOCK`, the clock ``queued_ms`` accounting
  reads, so event time never steps backwards under NTP corrections.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

from .. import obs
from ..obs import STEADY_CLOCK
from ..resilience import (
    CircuitBreaker,
    GuardrailVersions,
    QuarantineBuffer,
    ResilientGuard,
)
from ..resilience.overload import (
    AdmissionController,
    expired as _deadline_expired,
)
from ..resilience.policy import GuardUnavailableError
from ..synth import Guardrail
from .config import ServeMode, TenantConfig
from .responses import ServeResponse, ServeStatus

_LATENCY_WINDOW = 4096
"""Recent per-request latencies kept for percentile reporting."""


@dataclass
class TenantMetrics:
    """Service counters one tenant accumulates (see :meth:`snapshot`)."""

    requests: int = 0
    checks: int = 0
    rectifies: int = 0
    predicts: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    shed_admission: int = 0
    shed_fair_share: int = 0
    errors: int = 0
    degraded: int = 0
    gated: int = 0
    voided: int = 0
    batches: int = 0
    rows_flushed: int = 0
    swaps: int = 0
    batcher_restarts: int = 0
    queue_high_water: int = 0
    queued_ms_total: float = 0.0
    service_ms_total: float = 0.0
    service_ms_max: float = 0.0
    latencies_ms: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )

    @property
    def mean_batch_fill(self) -> float:
        """Average rows per flushed micro-batch."""
        if self.batches == 0:
            return 0.0
        return self.rows_flushed / self.batches

    @property
    def mean_service_ms(self) -> float:
        """Average request residency (admission to response)."""
        if self.completed == 0:
            return 0.0
        return self.service_ms_total / self.completed

    def percentile_ms(self, q: float) -> float:
        """The q-th latency percentile over the recent window."""
        window = sorted(self.latencies_ms)
        if not window:
            return 0.0
        index = min(len(window) - 1, int(q * (len(window) - 1) + 0.5))
        return window[index]

    def snapshot(self) -> dict:
        """A plain-dict view (for reports, JSON, and assertions)."""
        return {
            "requests": self.requests,
            "checks": self.checks,
            "rectifies": self.rectifies,
            "predicts": self.predicts,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "shed_admission": self.shed_admission,
            "shed_fair_share": self.shed_fair_share,
            "errors": self.errors,
            "degraded": self.degraded,
            "gated": self.gated,
            "voided": self.voided,
            "batches": self.batches,
            "rows_flushed": self.rows_flushed,
            "swaps": self.swaps,
            "batcher_restarts": self.batcher_restarts,
            "queue_high_water": self.queue_high_water,
            "mean_batch_fill": self.mean_batch_fill,
            "mean_service_ms": self.mean_service_ms,
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
        }


@dataclass
class _Pending:
    """One admitted request waiting in the tenant's queue."""

    kind: str
    row: Mapping[str, Hashable]
    future: asyncio.Future
    request_id: int
    enqueued_at: float
    deadline_at: float | None = None
    holds_token: bool = False


@dataclass(frozen=True)
class _FlushOutcome:
    """What the batcher resolved one pending request with."""

    version: int = 0
    verdict: object = None
    row: Mapping[str, Hashable] | None = None
    degraded: bool = False
    expired: bool = False
    error: str | None = None


class Tenant:
    """Per-tenant serving state; constructed by ``GuardServer.register``.

    Not a public entry point on its own — the server owns the batcher
    task and the request path — but its :attr:`metrics` and
    :attr:`versions` are the per-tenant observability surface callers
    read.
    """

    def __init__(
        self,
        name: str,
        guardrail: "Guardrail | GuardrailVersions",
        config: TenantConfig | None = None,
        predictor: Callable | None = None,
    ):
        self.name = name
        self.config = config or TenantConfig()
        self.versions = (
            guardrail
            if isinstance(guardrail, GuardrailVersions)
            else GuardrailVersions(guardrail)
        )
        self.predictor = predictor
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.failure_threshold,
            recovery_seconds=self.config.recovery_seconds,
            max_retries=0,
        )
        self.live_guard = self.versions.guard()
        self.guard = ResilientGuard(
            self.live_guard,
            policy=self.config.policy,
            breaker=self.breaker,
            watchdog_seconds=self.config.watchdog_seconds,
        )
        self.quarantine = QuarantineBuffer(
            capacity=self.config.quarantine_capacity
        )
        self.metrics = TenantMetrics()
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.queue_size
        )
        self.admission = AdmissionController(
            target_delay_ms=self.config.target_delay_ms,
            min_backlog=self.config.max_batch,
            seed=f"retry:{name}",
        )
        self.limiter = None
        self.brownout = None
        self.drift = None
        self._drift_base_sample_every: int | None = None

    # ------------------------------------------------------------------
    # Overload wiring (attached by the server at registration).
    # ------------------------------------------------------------------

    def attach_overload(self, limiter, brownout) -> None:
        """Bind the server-wide fair-share limiter and brownout
        controller (either may be None) into this tenant's admission
        and flush paths."""
        self.limiter = limiter
        self.brownout = brownout

    def attach_drift(self, detector) -> None:
        """Attach a :class:`~repro.resilience.DriftDetector` to the
        tenant's live guard so served checks feed it — and let
        brownout tier 2 widen its 1-in-k sampling under pressure,
        from the first served row when attached mid-brownout."""
        self.drift = detector
        self._drift_base_sample_every = getattr(
            detector, "sample_every", None
        )
        self.live_guard.attach_drift(detector)
        self.apply_brownout_effects()

    def effective_mode(self) -> ServeMode:
        """The serve mode in force right now: the configured mode,
        downgraded to blocking at brownout tier >= 1 (parallel races
        are the first optional work shed under pressure)."""
        if (
            self.brownout is not None
            and self.brownout.degrade_parallel
        ):
            return ServeMode.BLOCKING
        return self.config.mode

    def apply_brownout_effects(self) -> None:
        """Make the current brownout tier's degradations effective:
        widen (or restore) the drift detector's sampling interval."""
        if self.drift is None or self._drift_base_sample_every is None:
            return
        factor = (
            self.brownout.drift_widen_factor
            if self.brownout is not None
            else 1
        )
        want = max(1, self._drift_base_sample_every * factor)
        if self.drift.sample_every != want:
            self.drift.sample_every = want
            self.emit("serve.drift_sample_every", value=want)

    # ------------------------------------------------------------------
    # Admission (runs on the event loop, synchronously).
    # ------------------------------------------------------------------

    def admit(
        self,
        kind: str,
        row: Mapping[str, Hashable],
        request_id: int,
        deadline_ms: "float | None" = None,
    ) -> "_Pending | ServeResponse":
        """Enqueue one request, or shed it with a typed response.

        The admission pipeline, in order: an already-spent deadline is
        EXPIRED on the spot; a full queue or an adaptive-admission
        shed (standing queue delay above the tenant's target) is
        REJECTED with an honest jittered ``retry_after``; the
        server-wide fair-share budget rejects a tenant past its
        guarantee when the server has no headroom.  Returns the
        queued :class:`_Pending` (whose future the batcher will
        resolve) otherwise — shedding is a response, never an
        exception.
        """
        metrics = self.metrics
        metrics.requests += 1
        if kind == "check":
            metrics.checks += 1
        elif kind == "rectify":
            metrics.rectifies += 1
        else:
            metrics.predicts += 1
        now = STEADY_CLOCK.monotonic()
        if deadline_ms is not None and deadline_ms <= 0:
            metrics.expired += 1
            self.emit("serve.expired", kind=kind)
            return ServeResponse(
                status=ServeStatus.EXPIRED,
                tenant=self.name,
                kind=kind,
                request_id=request_id,
                version=self.live_guard.version,
            )
        depth = self.queue.qsize()
        if self.queue.full():
            metrics.rejected += 1
            self.emit("serve.rejected", kind=kind)
            return self._reject(kind, request_id)
        if self.admission.should_shed(depth, now):
            metrics.rejected += 1
            metrics.shed_admission += 1
            self.emit("serve.shed_admission", kind=kind)
            return self._reject(kind, request_id)
        holds_token = False
        if self.limiter is not None:
            if not self.limiter.try_acquire(self.name):
                metrics.rejected += 1
                metrics.shed_fair_share += 1
                self.emit("serve.shed_fair_share", kind=kind)
                return self._reject(kind, request_id)
            holds_token = True
        pending = _Pending(
            kind=kind,
            row=row,
            future=asyncio.get_running_loop().create_future(),
            request_id=request_id,
            enqueued_at=now,
            deadline_at=(
                None if deadline_ms is None else now + deadline_ms / 1000.0
            ),
            holds_token=holds_token,
        )
        self.queue.put_nowait(pending)
        depth = self.queue.qsize()
        if depth > metrics.queue_high_water:
            metrics.queue_high_water = depth
        return pending

    def _reject(self, kind: str, request_id: int) -> ServeResponse:
        return ServeResponse(
            status=ServeStatus.REJECTED,
            tenant=self.name,
            kind=kind,
            request_id=request_id,
            retry_after=self.retry_after(),
        )

    def release_token(self, pending: "_Pending") -> None:
        """Return the request's fair-share token (idempotent)."""
        if pending.holds_token:
            pending.holds_token = False
            if self.limiter is not None:
                self.limiter.release(self.name)

    def retry_after(self) -> float:
        """Suggested backoff for one shed request: the *measured*
        time the current backlog needs to drain (falling back to the
        configured flush cadence plus observed mean service time
        before any flush has been measured), jittered ±20% so two
        clients rejected together don't re-arrive in lockstep."""
        config = self.config
        backlog = self.queue.qsize()
        backlog_flushes = backlog / config.max_batch + 1.0
        per_flush = config.max_wait_ms / 1000.0 + (
            self.metrics.mean_service_ms / 1000.0
        )
        fallback = backlog_flushes * max(per_flush, 1e-4)
        return self.admission.retry_hint(backlog, fallback)

    # ------------------------------------------------------------------
    # The batcher (one task per tenant, owned by the server).
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Drain the admission queue forever, flushing micro-batches.

        A flush fires at ``max_batch`` queued rows or ``max_wait_ms``
        after the first row, whichever comes first — and never later
        than 75% of the earliest request deadline in hand, so a
        batch's budget bounds its flush while the deadline request can
        still be served.  The budget is a running minimum, tightened
        as each request joins the batch.

        Requests already queued are taken with ``get_nowait``, and the
        batcher yields once (``asyncio.sleep(0)``) per request it takes
        from a non-empty queue: callers and other tenants run in
        between, and a cancel lands with the request already in hand.
        Only an empty queue arms a getter and a timer for the rest of
        the budget, so a queued request costs no Task and no timer.
        The flush itself is synchronous (no awaits), so a whole batch
        runs under one atomic guard snapshot and swaps land only
        between flushes.
        """
        queue = self.queue
        clock = STEADY_CLOCK.monotonic
        max_batch = self.config.max_batch
        max_wait_s = self.config.max_wait_ms / 1000.0
        while True:
            parked = queue.empty()
            pending = await queue.get()
            batch = [pending]
            budget = clock() + max_wait_s
            try:
                if not parked:
                    await asyncio.sleep(0)
                while True:
                    deadline_at = pending.deadline_at
                    if deadline_at is not None:
                        # Flush at 75% of the request's budget, not at
                        # the deadline itself: a batch cut exactly at
                        # the deadline would expire the very request
                        # it was cut for.
                        budget = min(
                            budget,
                            deadline_at
                            - 0.25 * (deadline_at - pending.enqueued_at),
                        )
                    if len(batch) >= max_batch:
                        break
                    remaining = budget - clock()
                    if remaining <= 0:
                        break
                    if not queue.empty():
                        pending = queue.get_nowait()
                        batch.append(pending)
                        await asyncio.sleep(0)
                        continue
                    # Not ``wait_for``: when an external cancel races
                    # its timeout, ``wait_for`` reports TimeoutError
                    # and the cancellation is swallowed — a draining
                    # stop() could then never interrupt a busy
                    # batcher.  ``asyncio.wait`` lets CancelledError
                    # propagate; a just-dequeued item is rescued into
                    # the batch so the cancel handler resolves it.
                    getter = asyncio.ensure_future(queue.get())
                    try:
                        done, _ = await asyncio.wait(
                            {getter}, timeout=remaining
                        )
                    except asyncio.CancelledError:
                        if getter.done() and not getter.cancelled():
                            batch.append(getter.result())
                        else:
                            getter.cancel()
                        raise
                    if getter not in done:
                        getter.cancel()
                        break
                    pending = getter.result()
                    batch.append(pending)
            except asyncio.CancelledError:
                # Killed (chaos, ``stop(drain=False)``) with a batch in
                # hand: the in-hand requests must not be stranded —
                # resolve them with typed ERROR responses, then die.
                self.fail_batch(batch, "batcher cancelled before flush")
                raise
            try:
                self.flush(batch)
            except Exception as error:
                # The service contract is "never an exception": an
                # unexpected flush failure resolves every still-pending
                # request with a typed ERROR outcome and the batcher
                # keeps draining — it must outlive any single batch.
                self.emit("serve.flush_error", value=len(batch))
                outcome = _FlushOutcome(
                    version=self.live_guard.version,
                    error=f"{type(error).__name__}: {error}",
                )
                for pending in batch:
                    self._resolve(pending, outcome)
            finally:
                for _ in batch:
                    self.queue.task_done()

    def fail_batch(self, batch: list, reason: str) -> None:
        """Resolve a batch the batcher will never flush with typed
        outcomes (and balance the queue's join accounting).

        Same deadline honesty as :meth:`fail_pending`: a request whose
        own budget had already run out resolves EXPIRED, the rest
        resolve with a typed ERROR.
        """
        now = STEADY_CLOCK.monotonic()
        version = self.live_guard.version
        for pending in batch:
            if _deadline_expired(pending.deadline_at, now):
                outcome = _FlushOutcome(version=version, expired=True)
            else:
                outcome = _FlushOutcome(version=version, error=reason)
            self._resolve(pending, outcome)
            self.queue.task_done()

    def fail_pending(self, reason: str) -> int:
        """Drain every still-queued request into a typed response.

        The shutdown backstop: after the batchers are gone (drain
        deadline expired, or ``drain=False``), anything left in the
        admission queue would otherwise await a future nobody will
        resolve.  A request whose own deadline has already passed
        resolves EXPIRED (its budget ran out — that is the truthful
        status, not an error); everything else resolves with a typed
        ERROR.  Returns how many requests were drained.
        """
        failed = 0
        now = STEADY_CLOCK.monotonic()
        version = self.live_guard.version
        while True:
            try:
                pending = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if _deadline_expired(pending.deadline_at, now):
                outcome = _FlushOutcome(version=version, expired=True)
            else:
                outcome = _FlushOutcome(version=version, error=reason)
            self._resolve(pending, outcome)
            self.queue.task_done()
            failed += 1
        if failed:
            self.emit("serve.drain_expired", value=failed)
        return failed

    def flush(self, batch: list) -> None:
        """Resolve one micro-batch: vet check/predict rows through the
        batch kernel in a single pass, repair rectify rows one by one,
        and stamp every outcome with the guardrail version its verdict
        actually ran under.

        Requests whose deadline passed while they queued are shed
        *here*, at dequeue, with a typed EXPIRED outcome — the guard
        never runs for them, so an expired request costs the service
        nothing but its queue slot.  Every dequeued request's sojourn
        time feeds the tenant's admission controller, and the flush
        as a whole feeds its drain-rate estimate and the server-wide
        brownout controller's pressure signal.
        """
        now = STEADY_CLOCK.monotonic()
        live = []
        for pending in batch:
            if _deadline_expired(pending.deadline_at, now):
                self._resolve(
                    pending,
                    _FlushOutcome(
                        version=self.live_guard.version, expired=True
                    ),
                )
            else:
                live.append(pending)
            self.admission.observe_sojourn(
                (now - pending.enqueued_at) * 1000.0, now
            )
        if len(live) < len(batch):
            self.emit("serve.expired", value=len(batch) - len(live))
        vet = [p for p in live if p.kind in ("check", "predict")]
        repair = [p for p in live if p.kind == "rectify"]
        metrics = self.metrics
        metrics.batches += 1
        metrics.rows_flushed += len(live)
        if vet:
            stats = self.guard.stats
            failures_before = stats.failures
            try:
                verdicts = self.guard.check_batch([p.row for p in vet])
            except GuardUnavailableError as error:
                # Strict policy: the guard is down; every row in the
                # flush fails closed with a typed error response.  The
                # guard may never have run (open breaker), so stamp the
                # live version, not the last one a flush ran under.
                outcome = _FlushOutcome(
                    version=self.live_guard.version,
                    error=f"{type(error).__name__}: {error}",
                )
                self.emit("serve.guard_unavailable", value=len(vet))
                for pending in vet:
                    self._resolve(pending, outcome)
            else:
                version = self.live_guard.last_version
                degraded = stats.failures > failures_before
                if degraded:
                    metrics.degraded += len(vet)
                    self.emit("serve.degraded", value=len(vet))
                for pending, verdict in zip(vet, verdicts):
                    if verdict is not None and not verdict.ok:
                        # Tripped rows feed the self-healing loop —
                        # and, with a state_dir, the journal, so a
                        # crash loses no quarantined evidence.
                        self.quarantine.push(dict(pending.row))
                    self._resolve(
                        pending,
                        _FlushOutcome(
                            version=version,
                            verdict=verdict,
                            degraded=degraded,
                        ),
                    )
        for pending in repair:
            self._rectify_one(pending)
        self.admission.observe_flush(
            len(live), STEADY_CLOCK.monotonic()
        )
        if self.brownout is not None:
            self.brownout.observe(self.admission.overloaded)
            self.apply_brownout_effects()
        if obs.enabled():
            self.emit("serve.flush", rows=len(live))
            obs.observe("serve.batch_fill", len(live), tenant=self.name)

    def _rectify_one(self, pending) -> None:
        stats = self.guard.stats
        failures_before = stats.failures
        try:
            repaired = self.guard.rectify(pending.row)
        except GuardUnavailableError as error:
            self._resolve(
                pending,
                _FlushOutcome(
                    version=self.live_guard.version,
                    error=f"{type(error).__name__}: {error}",
                ),
            )
            return
        self._resolve(
            pending,
            _FlushOutcome(
                version=self.live_guard.last_version,
                row=repaired,
                degraded=stats.failures > failures_before,
            ),
        )

    @staticmethod
    def _resolve(pending: _Pending, outcome: _FlushOutcome) -> None:
        """Resolve one pending future, tolerating a gone caller.

        The awaiting request task may have been cancelled (client
        timeout, ``stop(drain=False)``), which cancels the future;
        ``set_result`` on it would raise ``InvalidStateError`` and
        kill the batcher task, hanging every later request.
        """
        if not pending.future.done():
            pending.future.set_result(outcome)

    # ------------------------------------------------------------------

    def emit(self, name: str, value: float = 1, **attrs) -> None:
        """Count one serve event in the active obs sink, labelled with
        this tenant; a no-op while tracing is off (:attr:`metrics`
        keeps the always-on tally)."""
        if obs.enabled():
            obs.count(name, value, tenant=self.name, **attrs)
