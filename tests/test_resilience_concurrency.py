"""Concurrency regression tests for the resilience layer.

The serving layer (:mod:`repro.serve`) drives the breaker, the live
guard proxies, and the quarantine buffer from many concurrent
requests; these tests pin the three races that surfaced when the
resilience primitives first met real concurrency:

* the breaker's OPEN → HALF_OPEN flip admitted *every* caller racing
  the recovery window, stampeding the failing dependency;
* the live guard proxy rebuilt its inner guard with a non-atomic
  read-version / rebuild / assign, so checks racing a ``swap()`` could
  leave the proxy serving the old program under the new version label;
* ``QuarantineBuffer.push`` checked capacity and appended non-
  atomically, so concurrent pushes overshot the capacity bound.
"""

import threading
import time

import pytest

from repro.dsl import Branch, Condition, Program, Statement
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    GuardrailVersions,
    LiveGuard,
    QuarantineBuffer,
)
from repro.synth import Guardrail


def _program(city: str) -> Program:
    """One-statement program mapping 94704 -> ``city``."""
    branches = (
        Branch(Condition.of(PostalCode="94704"), "City", city),
        Branch(Condition.of(PostalCode="10001"), "City", "NewYork"),
    )
    return Program((Statement(("PostalCode",), "City", branches),))


def _run_threads(n: int, target) -> list:
    """Run ``target(i)`` in n threads behind a start barrier."""
    barrier = threading.Barrier(n)
    results: list = [None] * n
    errors: list = []

    def runner(i: int) -> None:
        barrier.wait()
        try:
            results[i] = target(i)
        except BaseException as error:  # pragma: no cover - fail loudly
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


class TestBreakerHalfOpenStampede:
    def test_exactly_one_concurrent_probe(self):
        """N callers racing the recovery window get exactly one probe."""
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=0.05, max_retries=0
        )
        with pytest.raises(ZeroDivisionError):
            breaker.call(lambda: 1 / 0)
        assert breaker.state is BreakerState.OPEN
        time.sleep(0.06)  # recovery window elapsed; next allow() probes

        admitted = _run_threads(16, lambda i: breaker.allow())
        assert sum(admitted) == 1
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_failure_reopens_then_one_more_probe(self):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=0.02, max_retries=0
        )
        with pytest.raises(ZeroDivisionError):
            breaker.call(lambda: 1 / 0)
        time.sleep(0.03)
        assert breaker.allow()          # the probe token
        assert not breaker.allow()      # everyone else is refused
        breaker.record_failure()        # probe failed: reopen
        assert breaker.state is BreakerState.OPEN
        time.sleep(0.03)
        admitted = _run_threads(8, lambda i: breaker.allow())
        assert sum(admitted) == 1

    def test_probe_success_closes_and_admits_everyone(self):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=0.02, max_retries=0
        )
        with pytest.raises(ZeroDivisionError):
            breaker.call(lambda: 1 / 0)
        time.sleep(0.03)
        assert breaker.call(lambda: "alive") == "alive"
        assert breaker.state is BreakerState.CLOSED
        assert all(_run_threads(8, lambda i: breaker.allow()))

    def test_lost_probe_is_replaced_after_recovery_window(self):
        """A probe whose caller never reports back does not wedge the
        breaker refusing forever."""
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=0.02, max_retries=0
        )
        with pytest.raises(ZeroDivisionError):
            breaker.call(lambda: 1 / 0)
        time.sleep(0.03)
        assert breaker.allow()      # probe admitted ... and lost
        assert not breaker.allow()  # in-flight: refused
        time.sleep(0.03)            # probe presumed dead
        assert breaker.allow()


class TestLiveGuardSwapRace:
    """Hot-swap rebuild race: torn (version, guard) states."""

    ROW = {"PostalCode": "94704", "City": "Berkeley"}

    def _versions(self) -> GuardrailVersions:
        return GuardrailVersions(
            Guardrail.from_program(_program("Berkeley"))
        )

    @pytest.mark.parametrize("batched", [False, True], ids=["row", "batch"])
    def test_swap_under_load_never_tears(self, batched):
        """Checks hammering the proxy while swaps land must always
        quiesce to a guard that agrees with the live version."""
        versions = self._versions()
        guard = LiveGuard(versions)

        def vet(row):
            if batched:
                return guard.check_batch([row])[0]
            return guard.check(row)

        programs = {
            1: Guardrail.from_program(_program("Berkeley")),  # row ok
            0: Guardrail.from_program(_program("Oakland")),   # row bad
        }
        stop = threading.Event()

        def hammer(i: int) -> int:
            checks = 0
            while not stop.is_set():
                verdict = vet(dict(self.ROW))
                # Every verdict comes from one of the two programs.
                assert verdict.ok in (True, False)
                checks += 1
            return checks

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for flip in range(200):
                versions.swap(programs[flip % 2])
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        # Quiesced: the proxy must agree with the live version — the
        # torn state left the old program serving under the new label.
        expected_ok = versions.current.program is programs[1].program
        for _ in range(3):
            assert vet(dict(self.ROW)).ok is expected_ok
        version, inner = guard.current_snapshot()
        assert version == versions.version

    def test_snapshot_is_consistent_mid_swap(self):
        """current_snapshot() never pairs a new version number with a
        guard built from the old program (or vice versa)."""
        versions = self._versions()
        guard = LiveGuard(versions)
        ok_program = _program("Berkeley")
        bad_program = _program("Oakland")
        stop = threading.Event()
        seen: list[tuple[int, bool]] = []

        def reader(i: int) -> None:
            while not stop.is_set():
                version, inner = guard.current_snapshot()
                verdict = inner.check(dict(self.ROW))
                seen.append((version, verdict.ok))

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for flip in range(100):
                program = ok_program if flip % 2 else bad_program
                versions.swap(Guardrail.from_program(program))
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        # Version v was installed with program ok_program iff v is odd
        # (v1 = Berkeley seed, then flips starting with Oakland at v2).
        for version, ok in seen:
            assert ok is bool(version % 2), (
                f"torn snapshot: version {version} served the "
                f"{'ok' if ok else 'bad'} program"
            )

    def test_single_rebuild_per_version_keeps_stats(self):
        """Two racing first-checks must not rebuild twice and silently
        drop the first rebuild's stats counters."""
        versions = self._versions()
        guard = LiveGuard(versions)
        builds: list[int] = []
        original_build = LiveGuard._build

        def counting_build(self, guardrail):
            builds.append(1)
            time.sleep(0.01)  # widen the race window
            return original_build(self, guardrail)

        LiveGuard._build = counting_build
        try:
            _run_threads(8, lambda i: guard.check(dict(self.ROW)))
        finally:
            LiveGuard._build = original_build
        assert len(builds) == 1
        assert guard.stats.rows_checked == 8


class TestQuarantineCapacityRace:
    @pytest.mark.parametrize("overflow", ["drop_oldest", "drop_newest"])
    def test_concurrent_pushes_respect_capacity(self, overflow):
        capacity = 64
        buffer = QuarantineBuffer(capacity=capacity, overflow=overflow)
        n_threads, per_thread = 8, 100

        def pusher(i: int) -> int:
            accepted = 0
            for j in range(per_thread):
                if buffer.push({"thread": i, "j": j}):
                    accepted += 1
                assert len(buffer) <= capacity
            return accepted

        accepted = _run_threads(n_threads, pusher)
        total = n_threads * per_thread
        assert len(buffer) == capacity
        assert sum(accepted) == capacity
        assert buffer.dropped == total - capacity

    def test_drop_newest_under_capacity_never_drops(self):
        """dropped stays 0 while pushes fit — the race dropped rows
        even under capacity when the len check went stale."""
        buffer = QuarantineBuffer(capacity=800, overflow="drop_newest")

        def pusher(i: int) -> int:
            return sum(
                buffer.push({"thread": i, "j": j}) for j in range(100)
            )

        accepted = _run_threads(8, pusher)
        assert sum(accepted) == 800
        assert buffer.dropped == 0
        assert len(buffer) == 800
