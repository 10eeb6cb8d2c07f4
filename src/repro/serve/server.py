"""The asyncio multi-tenant guard service front-end.

:class:`GuardServer` registers many named guardrails (tenants), accepts
concurrent ``check`` / ``rectify`` / ``predict`` requests, and
coalesces them per tenant into :class:`~repro.errors.Guard`
micro-batches.  Verdicts are bit-identical to a direct serial
``check_batch`` over the same rows — batching changes latency and
throughput, never semantics — and per-tenant hot-swap
(:meth:`GuardServer.swap`) takes effect between flushes, so no request
ever observes a torn version.

    server = GuardServer()
    server.register("acme", guardrail, TenantConfig(mode="parallel"))
    async with server:
        response = await server.check("acme", row)
        response.verdict.ok

Predict requests run the tenant's registered predictor under the
configured :class:`~repro.serve.ServeMode`: blocking (the verdict
gates the predictor — a tripwire means it never runs) or parallel (the
predictor races the guard — a tripwire voids its output).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Callable, Hashable, Mapping

from .. import obs
from ..obs import STEADY_CLOCK
from ..resilience import GuardrailVersions
from ..resilience.overload import (
    BrownoutConfig,
    BrownoutController,
    FairShareLimiter,
)
from ..synth import Guardrail
from .config import ServeMode, TenantConfig
from .responses import ServeResponse, ServeStatus
from .tenant import Tenant, _FlushOutcome


class GuardServer:
    """A long-lived asyncio serving layer over many named guardrails.

    Lifecycle: :meth:`register` tenants (before or after
    :meth:`start`), serve requests, :meth:`stop` to drain.  The async
    context manager form (``async with server:``) starts and stops it
    around a block.

    Under overload the server sheds deliberately instead of
    collapsing: per-tenant adaptive admission rejects with honest
    jittered ``retry_after`` before the queue-full cliff, request
    ``deadline_ms`` budgets expire at dequeue (typed ``EXPIRED``, no
    guard work wasted), ``budget=`` splits a server-wide concurrency
    budget across tenants by their configured ``share`` weights, and
    the :attr:`brownout` controller steps service down (and, after a
    cool period, back up) through degradation tiers — every
    transition journaled when the server is durable.

    With ``state_dir=`` the server is **durable**: every control-plane
    event (tenant register/remove, hot-swap, rollback) is journaled to
    a write-ahead log *before* it activates, violating rows entering a
    tenant's quarantine are journaled alongside, and a snapshot every
    ``snapshot_every`` events bounds replay time.  After a crash,
    :meth:`recover` rebuilds every tenant at its last committed
    version — with verdicts bit-identical to an uninterrupted run —
    and refills its quarantine.  Steady-state request traffic is never
    journaled, so durability costs nothing on the hot path.
    """

    def __init__(
        self,
        state_dir=None,
        snapshot_every: "int | None" = 256,
        budget: "int | None" = None,
        brownout: "BrownoutConfig | None" = None,
    ):
        self._tenants: dict[str, Tenant] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._ids = itertools.count(1)
        self._running = False
        self._store = None
        self._limiter = (
            FairShareLimiter(budget) if budget is not None else None
        )
        self._brownout = BrownoutController(brownout)
        self._brownout.on_transition(self._on_brownout_transition)
        if state_dir is not None:
            from ..resilience.durability import DurableStateStore

            self._store = DurableStateStore(
                state_dir,
                snapshot_every=snapshot_every,
                state_provider=self._durable_state,
            )
            self._brownout.attach_journal(
                lambda **data: self._store.append("brownout", **data)
            )

    # ------------------------------------------------------------------
    # Durability plumbing.
    # ------------------------------------------------------------------

    @property
    def store(self):
        """The :class:`~repro.resilience.DurableStateStore` backing
        this server, or None when running in-memory only."""
        return self._store

    @property
    def brownout(self) -> BrownoutController:
        """The server-wide :class:`~repro.resilience
        .BrownoutController` (tier 0 = full service)."""
        return self._brownout

    @property
    def limiter(self) -> "FairShareLimiter | None":
        """The fair-share concurrency limiter, or None when the
        server was built without a ``budget``."""
        return self._limiter

    def _on_brownout_transition(self, record: dict) -> None:
        """Surface one brownout tier change in the obs stream."""
        if obs.enabled():
            obs.record("serve.brownout", **record)
            direction = (
                "down" if record["tier"] > record["from"] else "up"
            )
            obs.count(f"serve.brownout_step_{direction}")

    def overload_snapshot(self) -> dict:
        """The overload-control state as one plain dict: brownout
        tier/transitions plus the fair-share budget and per-tenant
        usage (when a budget is configured)."""
        snapshot = {"brownout": self._brownout.snapshot()}
        if self._limiter is not None:
            snapshot["fair_share"] = self._limiter.snapshot()
        return snapshot

    def _durable_state(self) -> dict:
        """The full runtime state, shaped for a snapshot generation.

        The same shape :func:`repro.resilience.fold_runtime_state`
        produces, so snapshot-then-replay and pure-replay recoveries
        are interchangeable.
        """
        from ..dsl import format_program

        tenants = {}
        for name, tenant in self._tenants.items():
            versions = tenant.versions
            tenants[name] = {
                "config": tenant.config.to_payload(),
                "programs": [
                    format_program(guardrail.program)
                    for guardrail in versions.history()
                ],
                "cursor": versions.cursor,
                "quarantine": tenant.quarantine.peek(),
                "quarantine_dropped": tenant.quarantine.dropped,
            }
        return {
            "tenants": tenants,
            "brownout": {
                "tier": self._brownout.tier,
                "transitions": [
                    dict(t) for t in self._brownout.transitions
                ],
            },
        }

    # ------------------------------------------------------------------
    # Registration and lifecycle.
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        guardrail: "Guardrail | GuardrailVersions",
        config: TenantConfig | None = None,
        predictor: Callable | None = None,
    ) -> Tenant:
        """Add a tenant serving ``guardrail`` under ``config``.

        ``predictor`` (sync or async callable of one row) is the
        model stage ``predict`` requests run; omitting it makes
        predict requests fail with a typed error response.  Returns
        the :class:`~repro.serve.Tenant` handle (metrics, versions).
        """
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        tenant = Tenant(name, guardrail, config, predictor)
        if self._store is not None:
            from ..dsl import format_program

            # Journal-before-activation: a registration the disk
            # refused (DurabilityError) never becomes visible.
            self._store.append(
                "tenant_register",
                tenant=name,
                config=tenant.config.to_payload(),
                programs=[
                    format_program(guardrail.program)
                    for guardrail in tenant.versions.history()
                ],
                cursor=tenant.versions.cursor,
            )
        return self._install(name, tenant)

    def _install(self, name: str, tenant: Tenant) -> Tenant:
        """Activate one built tenant: journal hooks (when durable), its
        fair share, overload wiring, the tenant map, and a batcher when
        the server is running.  Both :meth:`register` and
        :meth:`recover` end here, so a recovered tenant is wired
        exactly like a registered one."""
        if self._store is not None:
            # Route the tenant's committed events into the journal.
            def journal(kind: str, **data) -> None:
                self._store.append(kind, tenant=name, **data)

            tenant.versions.attach_journal(journal)
            tenant.quarantine.attach_journal(journal)
        if self._limiter is not None:
            self._limiter.register(name, tenant.config.share)
        tenant.attach_overload(self._limiter, self._brownout)
        self._tenants[name] = tenant
        if self._running:
            self._spawn_batcher(name, tenant)
        return tenant

    def unregister(self, name: str) -> None:
        """Remove a tenant (journaled first when durable).

        The tenant's batcher is cancelled; any request still queued
        resolves with a typed ERROR response.  Raises ``KeyError`` for
        unknown tenants and propagates the journal's typed error —
        with the tenant still registered — when the removal cannot be
        committed.
        """
        tenant = self._tenant(name)
        if self._store is not None:
            self._store.append("tenant_remove", tenant=name)
        del self._tenants[name]
        if self._limiter is not None:
            self._limiter.unregister(name)
        task = self._tasks.pop(name, None)
        if task is not None and not task.done():
            task.cancel()
        tenant.fail_pending(f"tenant {name!r} unregistered")
        if obs.enabled():
            obs.record("serve.unregister", tenant=name)

    @property
    def tenants(self) -> tuple[str, ...]:
        """The registered tenant names, in registration order."""
        return tuple(self._tenants)

    @property
    def running(self) -> bool:
        """Is the server accepting requests?"""
        return self._running

    async def start(self) -> "GuardServer":
        """Spawn one supervised batcher task per registered tenant."""
        if self._running:
            return self
        self._running = True
        for name, tenant in self._tenants.items():
            self._spawn_batcher(name, tenant)
        if obs.enabled():
            obs.record("serve.start", tenants=len(self._tenants))
        return self

    def _spawn_batcher(self, name: str, tenant: Tenant) -> None:
        """Start (or restart) one tenant's batcher under supervision:
        a batcher that dies while the server runs is respawned, so one
        killed task can never silently wedge a tenant."""
        task = asyncio.ensure_future(tenant.run())
        self._tasks[name] = task
        task.add_done_callback(
            lambda done, name=name, tenant=tenant: self._on_batcher_exit(
                name, tenant, done
            )
        )

    def _on_batcher_exit(
        self, name: str, tenant: Tenant, task: asyncio.Task
    ) -> None:
        if not task.cancelled():
            task.exception()  # retrieved: no "never retrieved" warning
        if not self._running or self._tasks.get(name) is not task:
            return  # deliberate shutdown or already replaced
        tenant.metrics.batcher_restarts += 1
        tenant.emit("serve.batcher_restart")
        self._spawn_batcher(name, tenant)

    def kill_batcher(self, name: str) -> None:
        """Chaos hook: cancel ``name``'s batcher task mid-flight.

        Any batch in the batcher's hand resolves with typed ERROR
        responses (see ``Tenant.run``), and the supervision callback
        respawns a fresh batcher while the server is running — the
        fault the chaos-under-load suite's ``worker_kill`` class
        injects and judges.
        """
        self._tenant(name)  # raise KeyError on unknown tenants
        task = self._tasks.get(name)
        if task is not None and not task.done():
            task.cancel()

    async def stop(
        self,
        drain: bool = True,
        drain_timeout_seconds: "float | None" = 30.0,
    ) -> None:
        """Stop serving; with ``drain`` (default) finish queued work
        first, so no admitted request is ever dropped.

        The drain is bounded by ``drain_timeout_seconds`` (``None``
        waits forever): if a wedged batcher keeps its queue from
        joining, shutdown proceeds anyway and every still-pending
        request resolves with a typed ERROR response — stop can never
        hang, and no caller is left awaiting a future nobody owns.
        """
        if not self._running:
            return
        self._running = False
        if drain:
            joins = [
                asyncio.ensure_future(t.queue.join())
                for t in self._tenants.values()
            ]
            # Not ``wait_for``: on timeout it cancels the joins and
            # waits for them to unwind, about six loop passes, and a
            # busy batcher can hold a blocking flush in each.
            # ``asyncio.wait`` resumes on the next pass; an expired
            # drain's leftovers go to the backstop below.
            try:
                if joins:
                    await asyncio.wait(joins, timeout=drain_timeout_seconds)
            finally:
                for join in joins:
                    join.cancel()
        for task in self._tasks.values():
            task.cancel()
        await asyncio.gather(
            *self._tasks.values(), return_exceptions=True
        )
        self._tasks.clear()
        for tenant in self._tenants.values():
            tenant.fail_pending(
                "server stopped before this request was flushed"
            )
        if self._store is not None:
            from ..resilience.durability import DurabilityError

            try:
                # A clean-shutdown snapshot makes the next recovery a
                # snapshot load with an empty journal tail.
                self._store.snapshot(self._durable_state())
            except DurabilityError:
                # The journal already holds everything committed;
                # stop() must still succeed on a sick disk.
                if obs.enabled():
                    obs.count("durability.stop_snapshot_failed")

    @classmethod
    def recover(
        cls,
        state_dir,
        predictors: "Mapping[str, Callable] | None" = None,
        snapshot_every: "int | None" = 256,
        budget: "int | None" = None,
        brownout: "BrownoutConfig | None" = None,
    ) -> "GuardServer":
        """Rebuild a durable server from ``state_dir`` after a crash.

        Loads the last valid snapshot, replays the journal tail
        (truncating any torn tail to the committed prefix), and
        reconstructs every tenant exactly as last committed: the full
        version history re-parsed from journaled DSL text (so
        recovered verdicts are bit-identical to the pre-crash
        guardrails), the rollback cursor, the quarantine contents and
        drop count, and the tenant config.  ``predictors`` re-binds
        predict callables (they are code, not state, so they cannot be
        journaled) by tenant name; ``budget`` / ``brownout`` re-bind
        the overload-control configuration the same way, and the
        journaled brownout tier transitions replay bit-identically
        onto the rebuilt controller.

        The rebuilt server is durable over the same ``state_dir`` and
        ready to :meth:`start`; recovery diagnostics are on
        ``server.store.recovered``.
        """
        from ..dsl import parse_program
        from ..resilience.durability import fold_runtime_state

        server = cls(
            state_dir=state_dir,
            snapshot_every=snapshot_every,
            budget=budget,
            brownout=brownout,
        )
        recovered = server._store.recovered
        folded = fold_runtime_state(recovered.state, recovered.events)
        for name, state in folded["tenants"].items():
            programs = state["programs"] or [""]
            guardrails = [
                Guardrail.from_program(parse_program(text))
                for text in programs
            ]
            versions = GuardrailVersions(guardrails[0])
            for guardrail in guardrails[1:]:
                versions.swap(guardrail)
            for _ in range(len(guardrails) - 1 - state["cursor"]):
                versions.rollback()
            tenant = Tenant(
                name,
                versions,
                TenantConfig.from_payload(state["config"]),
                (predictors or {}).get(name),
            )
            tenant.quarantine.restore(
                state["quarantine"], dropped=state["quarantine_dropped"]
            )
            # Installed (journal hooks attached) *after* the rebuild:
            # replayed events must not be journaled a second time.
            server._install(name, tenant)
        brownout_state = folded.get("brownout")
        if brownout_state:
            # Restore (not replay-through-observe): journaled tier
            # transitions carry no timestamps, so the recovered
            # history is bit-identical to the pre-crash record.
            server._brownout.restore(
                brownout_state.get("tier", 0),
                brownout_state.get("transitions", []),
            )
        if obs.enabled():
            obs.record(
                "serve.recover",
                tenants=len(folded["tenants"]),
                replayed=recovered.replayed_records,
                truncated_tail_bytes=recovered.truncated_tail_bytes,
            )
        return server

    async def __aenter__(self) -> "GuardServer":
        """``async with server:`` starts the batchers."""
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        """Drain and stop on block exit."""
        await self.stop()

    # ------------------------------------------------------------------
    # The request path.
    # ------------------------------------------------------------------

    async def check(
        self,
        tenant: str,
        row: Mapping[str, Hashable],
        deadline_ms: "float | None" = None,
    ) -> ServeResponse:
        """Vet one row for ``tenant`` through its micro-batcher.

        ``deadline_ms`` is the request's latency budget: a request
        still queued when it runs out is shed at dequeue with a typed
        :attr:`~repro.serve.ServeStatus.EXPIRED` response and never
        reaches the guard.
        """
        return await self._submit(tenant, "check", row, deadline_ms)

    async def rectify(
        self,
        tenant: str,
        row: Mapping[str, Hashable],
        deadline_ms: "float | None" = None,
    ) -> ServeResponse:
        """Repair one row for ``tenant`` (response carries ``row``).

        ``deadline_ms`` bounds the request as in :meth:`check`.
        """
        return await self._submit(tenant, "rectify", row, deadline_ms)

    async def predict(
        self,
        tenant: str,
        row: Mapping[str, Hashable],
        deadline_ms: "float | None" = None,
    ) -> ServeResponse:
        """Run the tenant's predictor under its guard and serve mode.

        Blocking mode awaits the verdict first and *gates* the
        predictor on a tripwire; parallel mode races the predictor
        against the guard and *voids* its output on a tripwire (at
        brownout tier >= 1 parallel downgrades to blocking).
        ``deadline_ms`` bounds the request as in :meth:`check`.
        """
        tenant_state = self._tenant(tenant)
        if tenant_state.predictor is None:
            tenant_state.metrics.requests += 1
            tenant_state.metrics.predicts += 1
            tenant_state.metrics.errors += 1
            return ServeResponse(
                status=ServeStatus.ERROR,
                tenant=tenant,
                kind="predict",
                request_id=next(self._ids),
                error=f"tenant {tenant!r} has no predictor registered",
            )
        return await self._submit(tenant, "predict", row, deadline_ms)

    async def _submit(
        self,
        tenant: str,
        kind: str,
        row: Mapping[str, Hashable],
        deadline_ms: "float | None" = None,
    ) -> ServeResponse:
        tenant_state = self._tenant(tenant)
        if not self._running:
            raise RuntimeError(
                "GuardServer is not running; use `async with server:` "
                "or call start() first"
            )
        request_id = next(self._ids)
        started = time.perf_counter()
        admitted = tenant_state.admit(kind, row, request_id, deadline_ms)
        if isinstance(admitted, ServeResponse):
            return admitted  # typed shed (rejected / expired)
        try:
            predict_task: asyncio.Task | None = None
            if (
                kind == "predict"
                and tenant_state.effective_mode() is ServeMode.PARALLEL
            ):
                predict_task = asyncio.ensure_future(
                    self._run_predictor(tenant_state, row)
                )
            try:
                outcome: _FlushOutcome = await admitted.future
            except BaseException:
                # Request cancelled (or the future otherwise failed):
                # a racing predictor must not be orphaned mid-flight.
                if predict_task is not None:
                    await self._void(predict_task)
                raise
        finally:
            # The fair-share token spans admission to resolution: the
            # release must happen on every exit, or a cancelled caller
            # would leak budget forever.
            tenant_state.release_token(admitted)
        queued_ms = (
            STEADY_CLOCK.monotonic() - admitted.enqueued_at
        ) * 1000.0
        status, fields = await self._complete(
            tenant_state, kind, row, outcome, predict_task
        )
        service_ms = (time.perf_counter() - started) * 1000.0
        metrics = tenant_state.metrics
        if status is ServeStatus.ERROR:
            metrics.errors += 1
        elif status is ServeStatus.EXPIRED:
            metrics.expired += 1
        else:
            metrics.completed += 1
            metrics.queued_ms_total += queued_ms
            metrics.service_ms_total += service_ms
            metrics.latencies_ms.append(service_ms)
            if service_ms > metrics.service_ms_max:
                metrics.service_ms_max = service_ms
        # Built once with its timings: the response is frozen, so
        # stamping them on afterwards would copy it.
        return ServeResponse(
            status=status,
            tenant=tenant,
            kind=kind,
            request_id=request_id,
            version=outcome.version,
            verdict=outcome.verdict,
            degraded=outcome.degraded,
            queued_ms=queued_ms,
            service_ms=service_ms,
            **fields,
        )

    async def _complete(
        self,
        tenant: Tenant,
        kind: str,
        row: Mapping[str, Hashable],
        outcome: _FlushOutcome,
        predict_task: "asyncio.Task | None",
    ) -> "tuple[ServeStatus, dict]":
        """Decide a flush outcome's terminal status, running or
        cancelling the predict stage as the mode dictates.  Returns the
        status and the response fields beyond those every response
        carries (``error``, ``row``, ``prediction``, ``gated``,
        ``voided``)."""
        if outcome.expired:
            # Shed at dequeue: the guard never ran; a racing predictor
            # (parallel mode) is pointless work now — void it.
            if predict_task is not None:
                await self._void(predict_task)
            return ServeStatus.EXPIRED, {}
        if outcome.error is not None:
            if predict_task is not None:
                await self._void(predict_task)
            return ServeStatus.ERROR, {"error": outcome.error}
        if kind == "check":
            return ServeStatus.OK, {}
        if kind == "rectify":
            return ServeStatus.OK, {"row": outcome.row}
        # predict
        tripped = outcome.verdict is not None and not outcome.verdict.ok
        metrics = tenant.metrics
        if predict_task is not None:  # parallel mode: already racing
            if tripped:
                await self._void(predict_task)
                metrics.voided += 1
                tenant.emit("serve.voided")
                return ServeStatus.OK, {"voided": True}
            try:
                prediction = await predict_task
            except Exception as error:
                return ServeStatus.ERROR, {
                    "error": f"predictor failed: {error}"
                }
            return ServeStatus.OK, {"prediction": prediction}
        if tripped:  # blocking mode: the expensive stage never runs
            metrics.gated += 1
            tenant.emit("serve.gated")
            return ServeStatus.OK, {"gated": True}
        try:
            prediction = await self._run_predictor(tenant, row)
        except Exception as error:
            return ServeStatus.ERROR, {"error": f"predictor failed: {error}"}
        return ServeStatus.OK, {"prediction": prediction}

    async def _run_predictor(self, tenant: Tenant, row):
        """Run the tenant's predictor (awaiting it when async)."""
        result = tenant.predictor(row)
        if asyncio.iscoroutine(result):
            return await result
        return result

    @staticmethod
    async def _void(task: asyncio.Task) -> None:
        """Cancel a racing predict task and swallow its outcome."""
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, Exception):
            pass

    # ------------------------------------------------------------------
    # Hot-swap, metrics, and reporting.
    # ------------------------------------------------------------------

    def swap(
        self, tenant: str, guardrail: Guardrail
    ) -> int:
        """Hot-swap ``tenant`` to a new guardrail under live traffic.

        Delegates to :meth:`repro.resilience.GuardrailVersions.swap`
        (atomic; a rejected candidate leaves the old version live);
        in-flight flushes finish under the version they snapshotted.
        Returns the new version number.
        """
        state = self._tenant(tenant)
        version = state.versions.swap(guardrail)
        state.metrics.swaps += 1
        state.emit("serve.swap", version=version)
        return version

    def rollback(self, tenant: str) -> int:
        """Back out ``tenant``'s most recent swap; returns the version."""
        state = self._tenant(tenant)
        version = state.versions.rollback()
        state.metrics.swaps += 1
        state.emit("serve.rollback", version=version)
        return version

    def tenant(self, name: str) -> Tenant:
        """The :class:`~repro.serve.Tenant` handle for ``name``."""
        return self._tenant(name)

    def metrics(self) -> dict[str, dict]:
        """Per-tenant service metric snapshots, keyed by tenant name."""
        return {
            name: tenant.metrics.snapshot()
            for name, tenant in self._tenants.items()
        }

    def _tenant(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            known = ", ".join(self._tenants) or "none registered"
            raise KeyError(f"unknown tenant {name!r} (known: {known})")
        return tenant
