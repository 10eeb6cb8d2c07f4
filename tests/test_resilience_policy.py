"""Tests for guard degradation policies, the circuit breaker, and the
resilient guard wrappers (repro.resilience.policy)."""

import time

import pytest

from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    GuardPolicy,
    GuardUnavailableError,
    ResilientGuard,
    resilient_call,
)
from repro.synth import Guardrail


class TestGuardPolicy:
    def test_parse_strings(self):
        assert GuardPolicy.parse("strict") is GuardPolicy.STRICT
        assert GuardPolicy.parse("WARN") is GuardPolicy.WARN
        assert GuardPolicy.parse("pass-through") is GuardPolicy.PASS_THROUGH
        assert GuardPolicy.parse(GuardPolicy.REJECT) is GuardPolicy.REJECT

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown guard policy"):
            GuardPolicy.parse("yolo")

    def test_fails_open(self):
        assert GuardPolicy.WARN.fails_open
        assert GuardPolicy.PASS_THROUGH.fails_open
        assert not GuardPolicy.STRICT.fails_open
        assert not GuardPolicy.REJECT.fails_open


class _Flaky:
    """Callable failing the first ``n_failures`` invocations."""

    def __init__(self, n_failures: int):
        self.n_failures = n_failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise RuntimeError(f"boom #{self.calls}")
        return "ok"


class TestCircuitBreaker:
    def test_success_passes_through(self):
        breaker = CircuitBreaker()
        assert breaker.call(lambda: 7) == 7
        assert breaker.state is BreakerState.CLOSED

    def test_retry_recovers_transient_failure(self):
        breaker = CircuitBreaker(max_retries=2)
        flaky = _Flaky(2)
        assert breaker.call(flaky) == "ok"
        assert flaky.calls == 3
        assert breaker.total_retries == 2
        assert breaker.consecutive_failures == 0

    def test_failure_after_retries_raises_original(self):
        breaker = CircuitBreaker(max_retries=1)
        with pytest.raises(RuntimeError, match="boom"):
            breaker.call(_Flaky(5))
        assert breaker.total_failures == 1

    def test_threshold_opens_circuit(self):
        breaker = CircuitBreaker(failure_threshold=2, max_retries=0)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(_Flaky(1))
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_recovery_half_open_probe(self):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=0.01, max_retries=0
        )
        with pytest.raises(RuntimeError):
            breaker.call(_Flaky(1))
        assert breaker.state is BreakerState.OPEN
        time.sleep(0.02)
        # The probe succeeds and closes the circuit again.
        assert breaker.call(lambda: "alive") == "alive"
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=0.01, max_retries=0
        )
        with pytest.raises(RuntimeError):
            breaker.call(_Flaky(1))
        time.sleep(0.02)
        with pytest.raises(RuntimeError):
            breaker.call(_Flaky(1))
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2

    def test_expected_exceptions_bypass_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, max_retries=3)

        def intended():
            raise KeyError("the guard working as designed")

        with pytest.raises(KeyError):
            breaker.call(intended, expected=(KeyError,))
        # Not a failure: no retries burned, circuit stays closed.
        assert breaker.total_failures == 0
        assert breaker.total_retries == 0
        assert breaker.state is BreakerState.CLOSED

    def test_backoff_sleeps_between_retries(self):
        breaker = CircuitBreaker(max_retries=2, backoff_seconds=0.01)
        start = time.perf_counter()
        assert breaker.call(_Flaky(2)) == "ok"
        assert time.perf_counter() - start >= 0.03  # 0.01 + 0.02


class TestResilientCall:
    def test_strict_wraps_failure(self):
        with pytest.raises(GuardUnavailableError, match="strict"):
            resilient_call(_Flaky(1), policy="strict")

    def test_fail_open_returns_fallback(self):
        sentinel = object()
        assert (
            resilient_call(_Flaky(1), policy="warn", fallback=sentinel)
            is sentinel
        )

    def test_expected_propagates_unwrapped(self):
        def intended():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            resilient_call(intended, policy="warn", expected=(KeyError,))

    def test_success_is_transparent(self):
        assert resilient_call(lambda x: x + 1, 2, policy="reject") == 3


@pytest.fixture
def guardrail(city_program) -> Guardrail:
    return Guardrail.from_program(city_program)


def _wrappers(guardrail, policy):
    """Two resilient wrappers under one policy and one breaker: the
    first for the row path, the second for the batch path."""
    kwargs = dict(
        policy=policy,
        breaker=CircuitBreaker(failure_threshold=10_000, max_retries=0),
    )
    return (
        ResilientGuard(guardrail.guard(), **kwargs),
        ResilientGuard(guardrail.guard(), **kwargs),
    )


_ADVERSARIAL = [
    # (row, is_vettable) — vettable rows the bare guards handle natively.
    ({"PostalCode": "94704", "City": "Berkeley", "State": "CA",
      "Country": "USA"}, True),
    # Extra attributes are ignored by the canonical semantics.
    ({"PostalCode": "94704", "City": "Berkeley", "State": "CA",
      "Country": "USA", "Mayor": "?"}, True),
    # None cells are missing values, vetted natively.
    ({"PostalCode": "94704", "City": None, "State": "CA",
      "Country": None}, True),
    # Non-mapping rows can only degrade per policy.
    (["94704", "Berkeley", "CA", "USA"], False),
    (42, False),
    (None, False),
]


class TestAdversarialGuardParity:
    """Satellite: the row path vs the batch path on adversarial inputs.

    Under every policy the two paths must give the same per-row
    verdicts, every row must get a verdict, and unvettable rows must
    take exactly the policy's degraded verdict.  The batch path is
    pinned on both sides of the guard's size dispatch (probes and
    kernel), the per-row salvage included.
    """

    @pytest.mark.parametrize(
        "policy", ["warn", "pass_through", "reject"]
    )
    def test_row_and_batch_verdicts_agree(
        self, guardrail, policy, batch_sides
    ):
        rows = [row for row, _ in _ADVERSARIAL]
        expect_degraded_ok = GuardPolicy.parse(policy).fails_open
        for side in batch_sides:
            row_guard, batch_guard = _wrappers(guardrail, policy)
            row_verdicts = [row_guard.check(row) for row in rows]
            batch_verdicts = batch_guard.check_batch(rows)
            assert len(row_verdicts) == len(batch_verdicts) == len(rows)
            for (row, vettable), rv, bv in zip(
                _ADVERSARIAL, row_verdicts, batch_verdicts
            ):
                assert rv.ok == bv.ok, f"{side}: diverged on {row!r}"
                if not vettable:
                    assert rv.ok == expect_degraded_ok

    def test_strict_raises_on_unvettable_rows(self, guardrail, batch_sides):
        row_guard, batch_guard = _wrappers(guardrail, "strict")
        with pytest.raises(GuardUnavailableError):
            row_guard.check(42)
        for side in batch_sides:
            with pytest.raises(GuardUnavailableError):
                batch_guard.check_batch([42])

    def test_vettable_rows_get_real_verdicts(self, guardrail, batch_sides):
        # Healthy rows keep their native verdicts even when the batch
        # contains poison (per-row salvage).
        bad_city = {
            "PostalCode": "94704",
            "City": "Austin",  # contradicts PostalCode -> City
            "State": "CA",
            "Country": "USA",
        }
        rows = [bad_city, 42, _ADVERSARIAL[0][0]]
        for side in batch_sides:
            _, batch_guard = _wrappers(guardrail, "warn")
            verdicts = batch_guard.check_batch(rows)
            assert verdicts[0].ok is False, side  # real violation
            assert verdicts[1].ok is True, side  # degraded open
            assert verdicts[2].ok is True, side  # genuinely clean
            assert batch_guard.stats.degraded_verdicts == 1, side

    def test_stats_track_degradations(self, guardrail):
        row_guard, _ = _wrappers(guardrail, "warn")
        assert not row_guard.stats.degraded
        row_guard.check(42)
        assert row_guard.stats.degraded
        assert row_guard.stats.failures == 1
        assert "42" in row_guard.stats.last_error or row_guard.stats.last_error

    def test_rectify_degrades_per_policy(self):
        class _ExplodingGuard:
            def rectify(self, row):
                raise RuntimeError("chaos: repair kernel down")

        def wrap(policy):
            return ResilientGuard(_ExplodingGuard(), policy=policy)

        row = {"PostalCode": "94704", "City": "Berkeley"}
        # Fail open: the row comes back unrepaired (best effort).
        assert wrap("warn").rectify(row) == row
        # Reject: the row is withheld.
        assert wrap("reject").rectify(row) is None
        with pytest.raises(GuardUnavailableError):
            wrap("strict").rectify(row)

    def test_watchdog_counts_slow_calls(self, guardrail):
        breaker = CircuitBreaker(failure_threshold=10_000, max_retries=0)

        class _SlowGuard:
            def __init__(self, inner):
                self._inner = inner

            def check(self, row):
                time.sleep(0.005)
                return self._inner.check(row)

        guard = ResilientGuard(
            _SlowGuard(guardrail.guard()),
            policy="warn",
            breaker=breaker,
            watchdog_seconds=0.001,
        )
        verdict = guard.check(_ADVERSARIAL[0][0])
        assert verdict.ok  # the slow verdict is still used...
        assert guard.stats.slow_calls == 1  # ...but counted
        assert breaker.consecutive_failures == 1
