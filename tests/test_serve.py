"""Unit tests for the asyncio multi-tenant guard service.

Covers the service semantics the serve PR promises: micro-batched
verdicts bit-identical to direct serial ``Guard.check_batch``,
blocking vs parallel predict modes, typed backpressure rejections,
per-tenant degradation policies, hot-swap under traffic, and the
per-tenant metrics/obs surface.
"""

import asyncio

import pytest

from repro import obs
from repro.dsl import Branch, Condition, Program, Statement
from repro.errors import Guard
from repro.resilience import GuardrailVersions
from repro.serve import (
    GuardServer,
    ServeMode,
    ServeStatus,
    TenantConfig,
    render_service_report,
)
from repro.synth import Guardrail

pytestmark = pytest.mark.serve


def _program(city: str = "Berkeley") -> Program:
    branches = (
        Branch(Condition.of(PostalCode="94704"), "City", city),
        Branch(Condition.of(PostalCode="10001"), "City", "NewYork"),
    )
    return Program((Statement(("PostalCode",), "City", branches),))


def _guardrail(city: str = "Berkeley") -> Guardrail:
    return Guardrail.from_program(_program(city))


def _rows(n: int) -> list[dict]:
    """A deterministic mix of conforming and violating rows."""
    rows = []
    for i in range(n):
        city = "Berkeley" if i % 3 else "NewYork"
        rows.append({"PostalCode": "94704", "City": city, "i": str(i)})
    return rows


class TestConfig:
    def test_mode_parse(self):
        assert ServeMode.parse("parallel") is ServeMode.PARALLEL
        assert ServeMode.parse(ServeMode.BLOCKING) is ServeMode.BLOCKING
        with pytest.raises(ValueError, match="unknown serve mode"):
            ServeMode.parse("sideways")

    def test_config_coerces_and_validates(self):
        config = TenantConfig(mode="parallel", policy="warn")
        assert config.mode is ServeMode.PARALLEL
        assert config.policy.value == "warn"
        with pytest.raises(ValueError):
            TenantConfig(max_batch=0)
        with pytest.raises(ValueError):
            TenantConfig(queue_size=0)


class TestLifecycle:
    async def test_requires_start(self):
        server = GuardServer()
        server.register("a", _guardrail())
        with pytest.raises(RuntimeError, match="not running"):
            await server.check("a", _rows(1)[0])

    async def test_unknown_tenant(self):
        server = GuardServer()
        async with server:
            with pytest.raises(KeyError, match="unknown tenant"):
                await server.check("ghost", {})

    async def test_duplicate_registration(self):
        server = GuardServer()
        server.register("a", _guardrail())
        with pytest.raises(ValueError, match="already registered"):
            server.register("a", _guardrail())

    async def test_register_after_start(self):
        server = GuardServer()
        async with server:
            server.register("late", _guardrail())
            response = await server.check("late", _rows(1)[0])
            assert response.ok

    async def test_stop_drains_admitted_requests(self):
        server = GuardServer()
        server.register(
            "a", _guardrail(), TenantConfig(max_batch=8, max_wait_ms=20.0)
        )
        await server.start()
        pending = [
            asyncio.ensure_future(server.check("a", row))
            for row in _rows(5)
        ]
        await asyncio.sleep(0)  # let the submissions enqueue
        await server.stop()
        responses = await asyncio.gather(*pending)
        assert all(r.ok for r in responses)


class TestSupervisionAndDrain:
    async def test_stop_drain_deadline_resolves_pending_typed(self):
        """A batcher parked on a long accumulation window cannot hold
        stop() hostage: the drain deadline expires, and every pending
        request resolves with a typed ERROR response (never a hang)."""
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            # Huge batch + 10s wait: the batcher parks with the rows in
            # hand and queue.join() cannot complete within the deadline.
            TenantConfig(max_batch=64, max_wait_ms=10_000.0),
        )
        await server.start()
        pending = [
            asyncio.ensure_future(server.check("a", row))
            for row in _rows(5)
        ]
        await asyncio.sleep(0.01)  # let the batcher take rows in hand
        loop = asyncio.get_running_loop()
        started = loop.time()
        await server.stop(drain_timeout_seconds=0.05)
        elapsed = loop.time() - started
        assert elapsed < 5.0  # bounded by the deadline, not max_wait_ms
        responses = await asyncio.gather(*pending)
        assert all(r.status is ServeStatus.ERROR for r in responses)
        assert all(r.error for r in responses)

    async def test_stop_without_drain_fails_queued_typed(self):
        """stop(drain=False) must not strand admitted futures: queued
        requests resolve with typed ERROR instead of hanging forever."""
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(max_batch=64, max_wait_ms=10_000.0),
        )
        await server.start()
        pending = [
            asyncio.ensure_future(server.check("a", row))
            for row in _rows(4)
        ]
        await asyncio.sleep(0)  # enqueue, but before any flush
        await server.stop(drain=False)
        responses = await asyncio.wait_for(
            asyncio.gather(*pending), timeout=5.0
        )
        assert all(r.status is ServeStatus.ERROR for r in responses)

    async def test_killed_batcher_respawns_and_keeps_serving(self):
        server = GuardServer()
        server.register(
            "a", _guardrail(), TenantConfig(max_batch=8, max_wait_ms=1.0)
        )
        async with server:
            before = await server.check("a", _rows(1)[0])
            assert before.ok
            server.kill_batcher("a")
            await asyncio.sleep(0.01)  # supervision respawns the task
            tenant = server.tenant("a")
            assert tenant.metrics.batcher_restarts >= 1
            after = await asyncio.wait_for(
                server.check("a", _rows(1)[0]), timeout=5.0
            )
            assert after.ok

    async def test_kill_mid_batch_resolves_in_hand_typed(self):
        """Requests in the batcher's hand when it is cancelled resolve
        with typed ERROR, and traffic after the respawn succeeds."""
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            # A 2-row burst < max_batch with a long wait parks the
            # batcher mid-accumulation, rows in hand.
            TenantConfig(max_batch=8, max_wait_ms=10_000.0),
        )
        async with server:
            burst = [
                asyncio.ensure_future(server.check("a", row))
                for row in _rows(2)
            ]
            await asyncio.sleep(0.01)
            server.kill_batcher("a")
            responses = await asyncio.wait_for(
                asyncio.gather(*burst), timeout=5.0
            )
            assert all(
                r.status is ServeStatus.ERROR and "cancelled" in r.error
                for r in responses
            )
            await asyncio.sleep(0)  # let the respawn land
            # A full max_batch burst flushes immediately (no wait
            # window), proving the respawned batcher serves traffic.
            recovered = await asyncio.wait_for(
                asyncio.gather(
                    *(server.check("a", row) for row in _rows(8))
                ),
                timeout=5.0,
            )
            assert all(r.ok for r in recovered)
            assert server.tenant("a").metrics.batcher_restarts >= 1

    async def test_kill_unknown_tenant_raises(self):
        server = GuardServer()
        async with server:
            with pytest.raises(KeyError, match="unknown tenant"):
                server.kill_batcher("ghost")


class TestBatchedVerdictParity:
    async def test_verdicts_match_direct_serial_batch_guard(self):
        """Micro-batched service verdicts are bit-identical to a
        direct serial Guard.check_batch over the same rows."""
        rows = _rows(96)
        reference = Guard(_program()).check_batch(rows)
        for mode in ("blocking", "parallel"):
            server = GuardServer()
            server.register(
                "a",
                _guardrail(),
                TenantConfig(mode=mode, max_batch=16, max_wait_ms=1.0),
            )
            async with server:
                responses = await asyncio.gather(
                    *(server.check("a", row) for row in rows)
                )
            for response, expected in zip(responses, reference):
                assert response.ok
                assert response.verdict == expected
                assert response.version == 1

    async def test_single_requests_flush_on_max_wait(self):
        server = GuardServer()
        server.register(
            "a", _guardrail(), TenantConfig(max_batch=64, max_wait_ms=1.0)
        )
        ok_row = {"PostalCode": "94704", "City": "Berkeley", "i": "0"}
        async with server:
            response = await server.check("a", ok_row)
        assert response.ok
        assert response.verdict.ok


class TestBatcherTasks:
    async def test_queued_burst_takes_no_task_per_request(self):
        """A burst of ``max_batch`` queued checks is taken with
        ``get_nowait``: at most one ``Queue.get`` Task per batch, not
        one per request."""
        loop = asyncio.get_running_loop()
        getter_tasks = []

        def factory(loop, coro, **kwargs):
            if getattr(coro, "__qualname__", "") == "Queue.get":
                getter_tasks.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        try:
            server = GuardServer()
            server.register(
                "a",
                _guardrail(),
                TenantConfig(max_batch=16, max_wait_ms=1000.0),
            )
            async with server:
                responses = await asyncio.gather(
                    *(server.check("a", row) for row in _rows(16))
                )
        finally:
            loop.set_task_factory(None)
        assert all(r.ok for r in responses)
        batches = server.tenant("a").metrics.batches
        assert batches >= 1
        assert len(getter_tasks) <= batches


class TestModes:
    async def test_blocking_gates_predict_on_tripwire(self):
        calls = []

        def predictor(row):
            calls.append(row)
            return f"pred-{row['i']}"

        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(mode="blocking", max_wait_ms=0.5),
            predictor=predictor,
        )
        ok_row = {"PostalCode": "94704", "City": "Berkeley", "i": "1"}
        bad_row = {"PostalCode": "94704", "City": "NewYork", "i": "2"}
        async with server:
            good = await server.predict("a", ok_row)
            bad = await server.predict("a", bad_row)
        assert good.prediction == "pred-1" and not good.gated
        assert bad.gated and bad.prediction is None and not bad.voided
        # The tripwire kept the expensive stage from ever running.
        assert [row["i"] for row in calls] == ["1"]
        assert server.tenant("a").metrics.gated == 1

    async def test_parallel_voids_prediction_on_tripwire(self):
        async def predictor(row):
            await asyncio.sleep(0.005)
            return f"pred-{row['i']}"

        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(mode="parallel", max_wait_ms=0.5),
            predictor=predictor,
        )
        ok_row = {"PostalCode": "94704", "City": "Berkeley", "i": "1"}
        bad_row = {"PostalCode": "94704", "City": "NewYork", "i": "2"}
        async with server:
            good = await server.predict("a", ok_row)
            bad = await server.predict("a", bad_row)
        assert good.prediction == "pred-1" and not good.voided
        assert bad.voided and bad.prediction is None and not bad.gated
        assert server.tenant("a").metrics.voided == 1

    async def test_predict_without_predictor_is_typed_error(self):
        server = GuardServer()
        server.register("a", _guardrail())
        async with server:
            response = await server.predict("a", _rows(1)[0])
        assert response.status is ServeStatus.ERROR
        assert "no predictor" in response.error

    async def test_failing_predictor_is_typed_error(self):
        def predictor(row):
            raise RuntimeError("model fell over")

        for mode in ("blocking", "parallel"):
            server = GuardServer()
            server.register(
                "a",
                _guardrail(),
                TenantConfig(mode=mode, max_wait_ms=0.5),
                predictor=predictor,
            )
            ok_row = {"PostalCode": "94704", "City": "Berkeley", "i": "1"}
            async with server:
                response = await server.predict("a", ok_row)
            assert response.status is ServeStatus.ERROR
            assert "model fell over" in response.error


class TestBackpressure:
    async def test_full_queue_rejects_with_retry_after(self):
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(queue_size=4, max_batch=4, max_wait_ms=50.0),
        )
        rows = _rows(32)
        async with server:
            # Submit without yielding: the queue (4) must overflow.
            pending = [
                asyncio.ensure_future(server.check("a", row))
                for row in rows
            ]
            responses = await asyncio.gather(*pending)
        rejected = [r for r in responses if r.rejected]
        completed = [r for r in responses if r.ok]
        assert rejected, "expected the bounded queue to reject work"
        assert len(rejected) + len(completed) == len(rows)
        for response in rejected:
            assert response.status is ServeStatus.REJECTED
            assert response.retry_after > 0
            assert response.verdict is None
        assert server.tenant("a").metrics.rejected == len(rejected)

    async def test_rejected_work_succeeds_on_retry(self):
        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(queue_size=2, max_batch=2, max_wait_ms=0.5),
        )
        async with server:
            responses = []
            for row in _rows(16):
                response = await server.check("a", row)
                while response.rejected:
                    await asyncio.sleep(response.retry_after)
                    response = await server.check("a", row)
                responses.append(response)
        assert all(r.ok for r in responses)


class TestDegradation:
    class _Bomb:
        """A guardrail-shaped object whose batch kernel always dies."""

        def __init__(self, guardrail):
            self._inner = guardrail
            self.program = guardrail.program
            self.config = guardrail.config
            self._result = None

        def guard(self):
            raise RuntimeError("kernel exploded")

    def _bombed_versions(self) -> GuardrailVersions:
        versions = GuardrailVersions(_guardrail())
        bomb = self._Bomb(versions.current)
        versions._versions[0] = bomb  # sabotage the live version
        versions._live = (1, bomb)
        return versions

    async def test_warn_policy_fails_open_and_marks_degraded(self):
        server = GuardServer()
        server.register(
            "a",
            self._bombed_versions(),
            TenantConfig(
                policy="warn", max_wait_ms=0.5, failure_threshold=100
            ),
        )
        async with server:
            response = await server.check("a", _rows(1)[0])
        assert response.ok
        assert response.degraded
        assert response.verdict.ok  # fail open
        assert server.tenant("a").metrics.degraded >= 1

    async def test_reject_policy_fails_closed(self):
        server = GuardServer()
        server.register(
            "a",
            self._bombed_versions(),
            TenantConfig(
                policy="reject", max_wait_ms=0.5, failure_threshold=100
            ),
        )
        async with server:
            response = await server.check("a", _rows(1)[0])
        assert response.ok and response.degraded
        assert not response.verdict.ok  # fail closed

    async def test_strict_policy_surfaces_typed_error(self):
        server = GuardServer()
        server.register(
            "a",
            self._bombed_versions(),
            TenantConfig(
                policy="strict", max_wait_ms=0.5, failure_threshold=100
            ),
        )
        async with server:
            response = await server.check("a", _rows(1)[0])
        assert response.status is ServeStatus.ERROR
        assert response.error
        assert server.tenant("a").metrics.errors == 1

    async def test_open_breaker_error_reports_live_version(self):
        """An error response produced while the breaker is open (guard
        never ran) reports the *live* version, not the stale version of
        the last flush that actually reached the guard."""
        server = GuardServer()
        server.register(
            "a",
            self._bombed_versions(),
            TenantConfig(
                policy="strict",
                max_wait_ms=0.5,
                failure_threshold=1,
                recovery_seconds=60.0,
            ),
        )
        async with server:
            first = await server.check("a", _rows(1)[0])
            assert first.status is ServeStatus.ERROR  # trips the breaker
            server.swap("a", _guardrail())  # v2 live; breaker still open
            second = await server.check("a", _rows(1)[0])
        assert second.status is ServeStatus.ERROR
        assert "CircuitOpenError" in second.error
        assert second.version == 2

    async def test_unexpected_flush_failure_is_typed_error(self):
        """An exception the flush path does not anticipate must not
        kill the batcher task: the affected requests get a typed ERROR
        response and later requests still complete."""
        server = GuardServer()
        server.register("a", _guardrail(), TenantConfig(max_wait_ms=0.5))
        tenant = server.tenant("a")
        real = tenant.guard.check_batch

        def explode(rows):
            raise ValueError("unexpected kernel bug")

        tenant.guard.check_batch = explode
        async with server:
            response = await asyncio.wait_for(
                server.check("a", _rows(1)[0]), 5.0
            )
            assert response.status is ServeStatus.ERROR
            assert "unexpected kernel bug" in response.error
            tenant.guard.check_batch = real
            recovered = await asyncio.wait_for(
                server.check("a", _rows(1)[0]), 5.0
            )
        assert recovered.ok


class TestCallerCancellation:
    async def test_cancelled_request_does_not_kill_batcher(self):
        """Cancelling a caller cancels its future; the batcher must
        tolerate resolving it and keep serving later requests."""
        server = GuardServer()
        server.register(
            "a", _guardrail(), TenantConfig(max_batch=8, max_wait_ms=20.0)
        )
        async with server:
            doomed = asyncio.ensure_future(server.check("a", _rows(1)[0]))
            await asyncio.sleep(0)  # let it enqueue
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            response = await asyncio.wait_for(
                server.check("a", _rows(1)[0]), 5.0
            )
        assert response.ok

    async def test_cancelled_parallel_predict_voids_racing_predictor(self):
        """Cancelling a parallel-mode predict request must cancel the
        racing predictor task rather than orphan it."""
        predictor_started = asyncio.Event()
        predictor_cancelled = asyncio.Event()

        async def predictor(row):
            predictor_started.set()
            try:
                await asyncio.sleep(30.0)
            except asyncio.CancelledError:
                predictor_cancelled.set()
                raise
            return "never"

        server = GuardServer()
        server.register(
            "a",
            _guardrail(),
            TenantConfig(mode="parallel", max_batch=8, max_wait_ms=20.0),
            predictor=predictor,
        )
        async with server:
            doomed = asyncio.ensure_future(
                server.predict("a", _rows(1)[0])
            )
            await asyncio.wait_for(predictor_started.wait(), 5.0)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await asyncio.wait_for(predictor_cancelled.wait(), 5.0)


class TestHotSwap:
    async def test_swap_under_traffic_no_torn_versions(self):
        """Every response's verdict matches the program of the version
        it reports — across a mid-traffic hot-swap."""
        rows = _rows(256)
        references = {
            1: Guard(_program("Berkeley")).check_batch(rows),
            2: Guard(_program("Oakland")).check_batch(rows),
        }
        server = GuardServer()
        server.register(
            "a",
            _guardrail("Berkeley"),
            TenantConfig(max_batch=16, max_wait_ms=1.0),
        )

        async def swap_later():
            await asyncio.sleep(0.004)
            return server.swap("a", _guardrail("Oakland"))

        async with server:
            results = await asyncio.gather(
                *(server.check("a", row) for i, row in enumerate(rows)),
                swap_later(),
            )
        responses, swapped_to = results[:-1], results[-1]
        assert swapped_to == 2
        seen_versions = set()
        for i, response in enumerate(responses):
            assert response.ok
            seen_versions.add(response.version)
            assert response.verdict == references[response.version][i]
        assert seen_versions <= {1, 2}
        assert server.tenant("a").metrics.swaps == 1

    async def test_rollback_restores_previous_version(self):
        server = GuardServer()
        server.register(
            "a", _guardrail("Berkeley"), TenantConfig(max_wait_ms=0.5)
        )
        bad_row = {"PostalCode": "94704", "City": "Berkeley", "i": "0"}
        async with server:
            assert (await server.check("a", bad_row)).verdict.ok
            server.swap("a", _guardrail("Oakland"))
            assert not (await server.check("a", bad_row)).verdict.ok
            server.rollback("a")
            restored = await server.check("a", bad_row)
        assert restored.verdict.ok
        assert restored.version == 1


class TestMetricsAndObs:
    async def test_request_ids_unique_and_counters_consistent(self):
        server = GuardServer()
        server.register(
            "a", _guardrail(), TenantConfig(max_batch=8, max_wait_ms=0.5)
        )
        server.register(
            "b", _guardrail(), TenantConfig(max_batch=8, max_wait_ms=0.5)
        )
        rows = _rows(40)
        async with server:
            responses = await asyncio.gather(
                *(
                    server.check("ab"[i % 2], row)
                    for i, row in enumerate(rows)
                )
            )
        ids = [r.request_id for r in responses]
        assert len(set(ids)) == len(ids)
        metrics = server.metrics()
        assert metrics["a"]["completed"] == 20
        assert metrics["b"]["completed"] == 20
        assert metrics["a"]["rows_flushed"] == 20
        assert metrics["a"]["p95_ms"] >= metrics["a"]["p50_ms"] >= 0
        report = render_service_report(server)
        assert "tenant" in report and "a" in report and "TOTAL" in report

    async def test_trace_counts_match_tenant_metrics(self):
        """Regression: serve events went through a bounded per-tenant
        buffer (4 096 events) that ``publish_metrics`` replayed as if
        forked workers sent it, so a trace lost counts past the bound
        and reported tenants as worker processes."""
        server = GuardServer()
        server.register(
            "a", _guardrail(), TenantConfig(queue_size=1, max_wait_ms=50)
        )
        server.register("b", _guardrail(), TenantConfig(max_wait_ms=0.5))
        with obs.tracing() as sink:
            async with server:
                await asyncio.gather(
                    *(server.check("a", row) for row in _rows(5000))
                )
                await server.check("b", _rows(1)[0])
        events = sink.events
        report = obs.ObsReport.from_events(events)
        metrics = server.tenant("a").metrics
        assert metrics.rejected > 4096  # more than the old buffer held
        assert report.counter("serve.rejected") == metrics.rejected
        counters = [
            e for e in events
            if e["type"] == "counter" and e["name"].startswith("serve.")
        ]
        assert all("tenant" in e["attrs"] for e in counters)
        assert {
            e["attrs"]["tenant"] for e in counters
            if e["name"] == "serve.flush"
        } == {"a", "b"}
        assert report.workers == ()


class TestDriftWiring:
    async def test_served_checks_reach_the_drift_detector(self):
        """Regression: the tenant's detector used to sit on a proxy that
        served only rectify (which never feeds drift), so served
        checks never reached it."""
        from repro.relation import Relation
        from repro.resilience import DriftDetector

        server = GuardServer()
        server.register("a", _guardrail(), TenantConfig(max_wait_ms=0.5))
        detector = DriftDetector(
            Relation.from_rows(_rows(30)),
            window=64,
            min_window=1,
            sample_every=1,
        )
        server.tenant("a").attach_drift(detector)
        async with server:
            for row in _rows(200):
                assert (await server.check("a", row)).ok
            for row in _rows(10):
                assert (await server.rectify("a", row)).ok
        detector.flush()
        # Every served check, and nothing else, was sampled.
        assert detector.stats.rows_observed == 200
