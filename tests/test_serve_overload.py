"""Unit tests for the serving layer's overload-control pipeline.

Covers the four mechanisms of :mod:`repro.resilience.overload` in
isolation (steady clock, adaptive admission, fair-share budget,
brownout hysteresis) and their wiring through the live server:
typed EXPIRED deadlines shed at dequeue with zero guard work,
distinct jittered retry hints for simultaneous rejections, fair-share
isolation under a concurrency budget, brownout transitions journaled
and replayed bit-identically by recovery, and a deadline-respecting
shutdown drain.
"""

import asyncio
import time

import pytest

from repro import obs
from repro.dsl import Branch, Condition, Program, Statement
from repro.obs.report import ObsReport, aggregate_overload
from repro.resilience import (
    STEADY_CLOCK,
    AdmissionController,
    BrownoutConfig,
    BrownoutController,
    FairShareLimiter,
    SteadyClock,
    recover_runtime_state,
)
from repro.serve import (
    GuardServer,
    ServeMode,
    ServeStatus,
    TenantConfig,
    render_service_report,
)
from repro.synth import Guardrail

pytestmark = pytest.mark.serve


def _program() -> Program:
    branches = (
        Branch(Condition.of(PostalCode="94704"), "City", "Berkeley"),
    )
    return Program((Statement(("PostalCode",), "City", branches),))


def _guardrail() -> Guardrail:
    return Guardrail.from_program(_program())


def _slow_guardrail(delay_s: float, counter: dict) -> Guardrail:
    """A correct guardrail whose guards sleep and count vetted rows."""

    class _SlowGuard:
        def __init__(self, inner):
            self._inner = inner

        def check_batch(self, rows):
            time.sleep(delay_s)
            counter["rows"] += len(rows)
            return self._inner.check_batch(rows)

        def rectify(self, row):
            time.sleep(delay_s)
            counter["rows"] += 1
            return self._inner.rectify(row)

    class _SlowServeGuardrail(Guardrail):
        def guard(self):
            return _SlowGuard(super().guard())

    return _SlowServeGuardrail.from_program(_program())


ROW = {"PostalCode": "94704", "City": "Berkeley"}


class TestSteadyClock:
    def test_now_never_steps_backwards(self):
        clock = SteadyClock()
        stamps = [clock.now() for _ in range(200)]
        assert stamps == sorted(stamps)

    def test_single_clock_source(self):
        # A duration measured from two now() stamps must equal the
        # same duration measured on the monotonic axis — the property
        # that makes obs-event stamps and queued_ms accounting agree
        # even when the wall clock is stepped by NTP underneath.
        clock = SteadyClock()
        n0, m0 = clock.now(), clock.monotonic()
        time.sleep(0.01)
        n1, m1 = clock.now(), clock.monotonic()
        assert (n1 - n0) == pytest.approx(m1 - m0, abs=5e-3)

    def test_wall_anchor(self):
        assert SteadyClock().now() == pytest.approx(time.time(), abs=1.0)

    async def test_tenant_events_share_the_steady_clock(self):
        # Regression for the old `time.time()` stamping: event
        # timestamps and sojourn accounting must come from the one
        # shared SteadyClock, so event time is ordered against it.
        server = GuardServer()
        server.register("a", _guardrail())
        async with server:
            before = STEADY_CLOCK.now()
            await server.check("a", ROW)
            after = STEADY_CLOCK.now()
        events = list(server.tenant("a").events)
        assert events
        for event in events:
            assert before <= event["ts"] <= after


class TestAdmissionController:
    def test_transient_burst_is_not_overload(self):
        controller = AdmissionController(target_delay_ms=10.0)
        controller.observe_sojourn(12.0, now=0.0)
        # One quiet observation pulls the EWMA back under target: the
        # above-target streak resets and nothing is shed.
        controller.observe_sojourn(1.0, now=0.001)
        assert not controller.should_shed(backlog=8, now=1.0)

    def test_standing_queue_sheds_before_full(self):
        controller = AdmissionController(target_delay_ms=10.0)
        controller.observe_sojourn(50.0, now=0.0)
        controller.observe_sojourn(50.0, now=0.005)
        # Above target, but not yet for a full interval (10ms).
        assert not controller.should_shed(backlog=8, now=0.005)
        assert controller.should_shed(backlog=8, now=0.02)
        assert controller.shed_total == 1

    def test_no_shed_without_backlog(self):
        controller = AdmissionController(
            target_delay_ms=10.0, min_backlog=4
        )
        controller.observe_sojourn(50.0, now=0.0)
        assert not controller.should_shed(backlog=3, now=1.0)

    def test_retry_hint_uses_measured_drain_rate(self):
        controller = AdmissionController(target_delay_ms=10.0, seed=1)
        # Two flushes of 10 rows, 0.1s apart: 100 rows/s drain rate.
        controller.observe_flush(10, now=0.0)
        controller.observe_flush(10, now=0.1)
        assert controller.drain_rate_rps == pytest.approx(100.0)
        # 50 queued rows drain in ~0.5s; the hint jitters +-20%.
        hint = controller.retry_hint(backlog=50, fallback=99.0)
        assert 0.5 * 0.8 <= hint <= 0.5 * 1.2

    def test_retry_hint_falls_back_before_any_flush(self):
        controller = AdmissionController(target_delay_ms=10.0, seed=1)
        hint = controller.retry_hint(backlog=5, fallback=0.25)
        assert 0.25 * 0.8 <= hint <= 0.25 * 1.2

    def test_consecutive_hints_are_distinct(self):
        controller = AdmissionController(target_delay_ms=10.0, seed=7)
        hints = {
            controller.retry_hint(backlog=5, fallback=0.25)
            for _ in range(8)
        }
        assert len(hints) == 8

    def test_hints_are_deterministic_per_seed(self):
        take = lambda: [  # noqa: E731
            AdmissionController(target_delay_ms=10.0, seed="retry:a")
            .retry_hint(backlog=5, fallback=0.25)
            for _ in range(1)
        ]
        assert take() == take()

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            AdmissionController(target_delay_ms=0.0)


class TestFairShareLimiter:
    def test_guaranteed_is_the_weighted_slice(self):
        limiter = FairShareLimiter(budget=12)
        limiter.register("a", share=1.0)
        limiter.register("b", share=2.0)
        assert limiter.guaranteed("a") == pytest.approx(4.0)
        assert limiter.guaranteed("b") == pytest.approx(8.0)

    def test_work_conserving_past_guarantee(self):
        limiter = FairShareLimiter(budget=4)
        limiter.register("a", share=1.0)
        limiter.register("b", share=1.0)
        # "a" may exceed its guarantee of 2 while "b" is idle...
        assert all(limiter.try_acquire("a") for _ in range(4))
        # ...but not past the whole budget.
        assert not limiter.try_acquire("a")
        assert limiter.denied_total == 1
        # "b" is under its guarantee, so it is admitted regardless.
        assert limiter.try_acquire("b")

    def test_release_and_snapshot(self):
        limiter = FairShareLimiter(budget=2)
        limiter.register("a")
        assert limiter.try_acquire("a")
        limiter.release("a")
        limiter.release("ghost")  # no-op, never raises
        snapshot = limiter.snapshot()
        assert snapshot["in_flight"] == 0
        assert snapshot["budget"] == 2

    def test_guarantee_floor_is_one(self):
        limiter = FairShareLimiter(budget=2)
        for name in "abcdefgh":
            limiter.register(name)
        assert limiter.guaranteed("a") == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FairShareLimiter(budget=0)
        limiter = FairShareLimiter(budget=1)
        with pytest.raises(ValueError):
            limiter.register("a", share=0.0)


class TestBrownoutController:
    def _controller(self, **overrides) -> BrownoutController:
        config = BrownoutConfig(
            step_down_after=2,
            cool_seconds=1.0,
            min_dwell_seconds=0.0,
            **overrides,
        )
        return BrownoutController(config)

    def test_steps_down_after_sustained_pressure(self):
        controller = self._controller()
        assert controller.observe(True, now=0.0) == 0
        assert controller.observe(True, now=0.1) == 1
        assert controller.max_tier_seen == 1

    def test_steps_up_only_after_cool_period(self):
        controller = self._controller()
        controller.observe(True, now=0.0)
        controller.observe(True, now=0.1)  # tier 1
        assert controller.observe(False, now=0.5) == 1  # not cooled
        assert controller.observe(False, now=1.2) == 0  # cooled

    def test_dwell_rate_limits_transitions(self):
        config = BrownoutConfig(
            step_down_after=1, cool_seconds=0.0, min_dwell_seconds=10.0
        )
        controller = BrownoutController(config)
        assert controller.observe(True, now=0.0) == 1
        # Pressure continues, but the dwell blocks a second step.
        assert controller.observe(True, now=0.1) == 1
        assert controller.observe(True, now=11.0) == 2

    def test_max_tier_bound(self):
        controller = self._controller(max_tier=1)
        for k in range(10):
            controller.observe(True, now=0.1 * k)
        assert controller.tier == 1

    def test_effects_per_tier(self):
        controller = self._controller(drift_widen_factor=6)
        assert not controller.degrade_parallel
        controller.observe(True, now=0.0)
        controller.observe(True, now=0.1)  # tier 1
        assert controller.degrade_parallel
        assert controller.drift_widen_factor == 1
        assert not controller.shed_observability
        controller.observe(True, now=0.2)
        controller.observe(True, now=0.3)  # tier 2
        assert controller.drift_widen_factor == 6
        assert controller.shed_observability

    def test_journal_before_activation_and_records(self):
        controller = self._controller()
        journaled = []
        controller.attach_journal(
            lambda **data: journaled.append(data)
        )
        controller.observe(True, now=0.0)
        controller.observe(True, now=0.1)
        assert journaled == [
            {"from": 0, "tier": 1, "reason": "pressure"}
        ]
        # Records carry no timestamps: replay is bit-identical.
        assert controller.transitions == journaled

    def test_journal_failure_is_absorbed(self):
        controller = self._controller()

        def broken(**data):
            raise OSError("disk is gone")

        controller.attach_journal(broken)
        controller.observe(True, now=0.0)
        controller.observe(True, now=0.1)
        assert controller.tier == 1  # shedding kept working
        assert controller.unjournaled == 1

    def test_restore_does_not_rejournal(self):
        controller = self._controller()
        journaled = []
        controller.attach_journal(
            lambda **data: journaled.append(data)
        )
        history = [
            {"from": 0, "tier": 1, "reason": "pressure"},
            {"from": 1, "tier": 2, "reason": "pressure"},
            {"from": 2, "tier": 1, "reason": "cooled"},
        ]
        controller.restore(1, history)
        assert controller.tier == 1
        assert controller.max_tier_seen == 2
        assert controller.transitions == history
        assert journaled == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BrownoutConfig(step_down_after=0)
        with pytest.raises(ValueError):
            BrownoutConfig(max_tier=0)


class TestTenantConfigOverload:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantConfig(target_delay_ms=0.0)
        with pytest.raises(ValueError):
            TenantConfig(share=0.0)

    def test_payload_round_trip(self):
        config = TenantConfig(target_delay_ms=25.0, share=3.0)
        payload = config.to_payload()
        rebuilt = TenantConfig.from_payload(payload)
        assert rebuilt.target_delay_ms == 25.0
        assert rebuilt.share == 3.0


class TestDeadlines:
    async def test_spent_budget_expires_at_admission(self):
        server = GuardServer()
        server.register("a", _guardrail())
        async with server:
            response = await server.check("a", ROW, deadline_ms=0.0)
        assert response.status is ServeStatus.EXPIRED
        assert response.expired
        assert response.verdict is None
        assert server.tenant("a").metrics.expired == 1

    async def test_queued_past_deadline_sheds_with_zero_guard_work(self):
        counter = {"rows": 0}
        server = GuardServer()
        server.register(
            "a",
            _slow_guardrail(0.03, counter),
            TenantConfig(max_batch=1, max_wait_ms=0.5, queue_size=64),
        )
        async with server:
            # All four admit in the same loop pass: the first occupies
            # the batcher (a 30ms blocking flush) while the doomed
            # three sit queued past their 5ms budgets.
            first = asyncio.ensure_future(server.check("a", ROW))
            doomed = [
                asyncio.ensure_future(
                    server.check("a", ROW, deadline_ms=5.0)
                )
                for _ in range(3)
            ]
            responses = await asyncio.gather(first, *doomed)
        assert responses[0].status is ServeStatus.OK
        for response in responses[1:]:
            assert response.status is ServeStatus.EXPIRED
            assert response.verdict is None
        # The guard vetted only the one live row — expired requests
        # cost the service nothing but their queue slot.
        assert counter["rows"] == 1
        assert server.tenant("a").metrics.expired == 3

    async def test_deadline_bounds_batch_accumulation(self):
        # A 5ms deadline must flush the batch well before the 500ms
        # max_wait would — the batch budget is min(deadline, wait).
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(max_batch=64, max_wait_ms=500.0),
        )
        async with server:
            started = time.perf_counter()
            response = await server.check("a", ROW, deadline_ms=20.0)
            elapsed = time.perf_counter() - started
        assert response.status is ServeStatus.OK
        assert elapsed < 0.4

    async def test_last_admitted_deadline_still_bounds_batch(self):
        # The tightest deadline arrives last, into a batch already
        # open on a 2s max_wait: the flush budget is a running
        # minimum, so the batch is cut at 75% of that request's 200ms
        # budget (about 150ms) with every request served in one flush.
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(max_batch=64, max_wait_ms=2000.0),
        )
        async with server:
            first = asyncio.ensure_future(server.check("a", ROW))
            await asyncio.sleep(0.005)  # the batch is open, first in hand
            started = time.perf_counter()
            others = [
                asyncio.ensure_future(server.check("a", ROW))
                for _ in range(3)
            ]
            last = await server.check("a", ROW, deadline_ms=200.0)
            elapsed = time.perf_counter() - started
            responses = await asyncio.gather(first, *others)
        assert last.status is ServeStatus.OK
        assert all(r.status is ServeStatus.OK for r in responses)
        assert elapsed < 1.0
        metrics = server.tenant("a").metrics
        assert (metrics.batches, metrics.rows_flushed) == (1, 5)


class TestRetryHints:
    async def test_simultaneous_rejections_get_distinct_hints(self):
        # Regression: the old static retry_after formula handed every
        # client rejected in the same tick the identical figure, so
        # they all re-arrived in lockstep and re-formed the storm.
        counter = {"rows": 0}
        server = GuardServer()
        server.register(
            "a",
            _slow_guardrail(0.05, counter),
            TenantConfig(max_batch=1, max_wait_ms=0.5, queue_size=1),
        )
        async with server:
            # All three admit in the same loop pass: the first fills
            # the 1-deep queue, so the next two are rejected in the
            # very same tick — the lockstep-retry scenario.
            first = asyncio.ensure_future(server.check("a", ROW))
            shed_tasks = [
                asyncio.ensure_future(server.check("a", ROW))
                for _ in range(2)
            ]
            responses = await asyncio.gather(first, *shed_tasks)
        assert responses[0].status is ServeStatus.OK
        shed = responses[1:]
        assert [r.status for r in shed] == [ServeStatus.REJECTED] * 2
        hints = [r.retry_after for r in shed]
        assert all(h > 0 for h in hints)
        assert hints[0] != hints[1]


class TestFairShareServing:
    async def test_requests_past_budget_are_shed_typed(self):
        counter = {"rows": 0}
        server = GuardServer(budget=2)
        server.register(
            "a",
            _slow_guardrail(0.03, counter),
            TenantConfig(max_batch=1, max_wait_ms=0.5, queue_size=64),
        )
        async with server:
            burst = [
                asyncio.ensure_future(server.check("a", ROW))
                for _ in range(5)
            ]
            responses = await asyncio.gather(*burst)
        statuses = [r.status for r in responses]
        assert statuses.count(ServeStatus.OK) == 2
        assert statuses.count(ServeStatus.REJECTED) == 3
        metrics = server.tenant("a").metrics
        assert metrics.shed_fair_share == 3
        # Tokens span admission to resolution — all returned now.
        assert server.limiter.in_flight == 0

    async def test_tokens_release_on_cancelled_caller(self):
        counter = {"rows": 0}
        server = GuardServer(budget=2)
        server.register(
            "a",
            _slow_guardrail(0.05, counter),
            TenantConfig(max_batch=1, max_wait_ms=0.5, queue_size=64),
        )
        async with server:
            task = asyncio.ensure_future(server.check("a", ROW))
            await asyncio.sleep(0.005)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await asyncio.sleep(0.1)  # let the flush settle
        assert server.limiter.in_flight == 0


class TestBrownoutServing:
    # A long cool period keeps the tier pinned while request flushes
    # feed their own (not-overloaded) pressure samples in.
    _CONFIG = BrownoutConfig(
        step_down_after=1, cool_seconds=100.0, min_dwell_seconds=0.0
    )

    async def test_parallel_downgrades_to_blocking(self):
        server = GuardServer(brownout=self._CONFIG)
        ran = []

        def predictor(row):
            ran.append(dict(row))
            return "p"

        server.register(
            "a",
            _guardrail(),
            TenantConfig(mode=ServeMode.PARALLEL),
            predictor=predictor,
        )
        async with server:
            server.brownout.observe(True)  # tier 1
            assert (
                server.tenant("a").effective_mode()
                is ServeMode.BLOCKING
            )
            bad = {"PostalCode": "94704", "City": "Oakland"}
            response = await server.predict("a", bad)
        # Blocking semantics under brownout: the tripwire *gates* the
        # predictor (it never runs) instead of voiding a started race.
        assert response.status is ServeStatus.OK
        assert response.gated
        assert ran == []

    async def test_tier_two_sheds_obs_events(self):
        server = GuardServer(brownout=self._CONFIG)
        server.register("a", _guardrail())
        async with server:
            for _ in range(2):
                server.brownout.observe(True)
            assert server.brownout.tier == 2
            for _ in range(16):
                await server.check("a", ROW)
        metrics = server.tenant("a").metrics
        assert metrics.events_shed > 0
        assert len(server.tenant("a").events) < 16

    async def test_transitions_surface_in_report_and_snapshot(self):
        server = GuardServer(budget=4, brownout=self._CONFIG)
        server.register("a", _guardrail())
        async with server:
            server.brownout.observe(True)
            await server.check("a", ROW)
        report = render_service_report(server)
        assert "brownout tier 1" in report
        assert "fair share: budget 4" in report
        snapshot = server.overload_snapshot()
        assert snapshot["brownout"]["tier"] == 1
        assert snapshot["fair_share"]["budget"] == 4


class TestBrownoutDurability:
    _CONFIG = BrownoutConfig(
        step_down_after=1, cool_seconds=100.0, min_dwell_seconds=0.0
    )

    async def test_journaled_transitions_replay_bit_identically(
        self, tmp_path
    ):
        server = GuardServer(
            state_dir=tmp_path, brownout=self._CONFIG
        )
        server.register("a", _guardrail())
        async with server:
            base = STEADY_CLOCK.monotonic()
            server.brownout.observe(True, now=base)  # 0 -> 1
            server.brownout.observe(True, now=base + 0.1)  # 1 -> 2
            # Far past the cool period: steps back up, 2 -> 1.
            server.brownout.observe(False, now=base + 200.0)
            await server.check("a", ROW)
            live = [dict(t) for t in server.brownout.transitions]
            # Mid-run, before any stop() snapshot: the pure-replay
            # path must already fold the journaled transitions.
            folded, _ = recover_runtime_state(tmp_path)
            assert folded["brownout"]["transitions"] == live
            assert folded["brownout"]["tier"] == 1
        recovered = GuardServer.recover(
            tmp_path, brownout=self._CONFIG
        )
        assert recovered.brownout.tier == 1
        assert recovered.brownout.max_tier_seen == 2
        assert [
            dict(t) for t in recovered.brownout.transitions
        ] == live

    async def test_transitions_survive_without_rejournaling(
        self, tmp_path
    ):
        server = GuardServer(
            state_dir=tmp_path, brownout=self._CONFIG
        )
        server.register("a", _guardrail())
        async with server:
            server.brownout.observe(True)
        recovered = GuardServer.recover(
            tmp_path, brownout=self._CONFIG
        )
        seq_before = recovered.store.last_seq
        # Recovery restored the tier without appending new records.
        assert recovered.brownout.tier == 1
        assert recovered.store.last_seq == seq_before


class TestFairShareRecovery:
    def test_recovered_tenants_keep_their_shares(self, tmp_path):
        server = GuardServer(state_dir=tmp_path, budget=8)
        server.register("a", _guardrail(), TenantConfig(share=3.0))
        server.register("b", _guardrail(), TenantConfig(share=1.0))
        recovered = GuardServer.recover(tmp_path, budget=8)
        seq_before = recovered.store.last_seq
        limiter = recovered.limiter
        assert limiter.snapshot()["shares"] == {"a": 3.0, "b": 1.0}
        assert limiter.guaranteed("a") == pytest.approx(6.0)
        assert limiter.guaranteed("b") == pytest.approx(2.0)
        # A tenant registered after recovery splits the budget with the
        # recovered ones instead of claiming all of it.
        recovered.register("c", _guardrail(), TenantConfig(share=4.0))
        assert limiter.guaranteed("a") == pytest.approx(3.0)
        assert limiter.guaranteed("b") == pytest.approx(1.0)
        assert limiter.guaranteed("c") == pytest.approx(4.0)
        # Installing the recovered tenants journaled nothing; only the
        # new registration did.
        assert recovered.store.last_seq == seq_before + 1


class TestDrainUnderSaturation:
    async def test_drain_respects_deadlines(self):
        # stop(drain=True) with a saturated queue and a too-short
        # drain budget: requests whose own deadline passed resolve
        # EXPIRED (the truthful status), the rest resolve ERROR —
        # nothing is silently dropped.
        counter = {"rows": 0}
        server = GuardServer()
        server.register(
            "a",
            _slow_guardrail(0.1, counter),
            TenantConfig(max_batch=2, max_wait_ms=0.5, queue_size=64),
        )
        await server.start()
        # All admit in one loop pass; 100ms blocking flushes then
        # strand the rest in the queue, with the doomed four past
        # their (already microscopic) budgets well before dequeue.
        first = asyncio.ensure_future(server.check("a", ROW))
        doomed = [
            asyncio.ensure_future(
                server.check("a", ROW, deadline_ms=0.01)
            )
            for _ in range(4)
        ]
        patient = [
            asyncio.ensure_future(server.check("a", ROW))
            for _ in range(10)
        ]
        await asyncio.sleep(0.01)
        started = time.perf_counter()
        await server.stop(drain=True, drain_timeout_seconds=0.05)
        stop_elapsed = time.perf_counter() - started
        responses = await asyncio.gather(first, *doomed, *patient)
        # The drain timeout bounds stop() far below the ~1.1s the
        # saturated queue would need to flush in full.
        assert stop_elapsed < 0.45
        statuses = [r.status for r in responses]
        assert statuses.count(ServeStatus.EXPIRED) == 4
        assert ServeStatus.ERROR in statuses
        for response in responses:
            if response.status is ServeStatus.ERROR:
                assert (
                    "stopped" in response.error
                    or "cancelled" in response.error
                )

    async def test_unbounded_drain_completes_everything(self):
        counter = {"rows": 0}
        server = GuardServer()
        server.register(
            "a",
            _slow_guardrail(0.01, counter),
            TenantConfig(max_batch=2, max_wait_ms=0.5, queue_size=64),
        )
        await server.start()
        pending = [
            asyncio.ensure_future(server.check("a", ROW))
            for _ in range(6)
        ]
        await asyncio.sleep(0)
        await server.stop(drain=True, drain_timeout_seconds=None)
        responses = await asyncio.gather(*pending)
        assert all(r.status is ServeStatus.OK for r in responses)


class TestOverloadObservability:
    def test_aggregate_overload_counters(self):
        events = [
            {"type": "counter", "name": "serve.rejected", "value": 2},
            {"type": "counter", "name": "serve.rejected", "value": 3},
            {"type": "counter", "name": "serve.expired", "value": 1},
            {"type": "counter", "name": "serve.flush", "value": 9},
            {"type": "observe", "name": "serve.rejected", "value": 9},
        ]
        totals = aggregate_overload(events)
        assert totals == {"serve.rejected": 5, "serve.expired": 1}

    async def test_overload_section_in_obs_report(self):
        with obs.tracing() as sink:
            server = GuardServer(
                brownout=BrownoutConfig(
                    step_down_after=1,
                    cool_seconds=0.0,
                    min_dwell_seconds=0.0,
                )
            )
            server.register("a", _guardrail())
            async with server:
                server.brownout.observe(True, now=0.0)
                await server.check("a", ROW, deadline_ms=0.0)
                server.publish_metrics()
        report = ObsReport.from_events(sink.events)
        assert report.overload.get("serve.expired") == 1
        assert report.overload.get("serve.brownout_step_down") == 1
        assert "overload:" in report.render()
