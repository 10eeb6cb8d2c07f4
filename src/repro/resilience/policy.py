"""Guard degradation policies, retries, and the circuit breaker.

The runtime guard (Fig. 1) sits on the query path: if it throws, the
whole query dies with it.  Following the block / warn / pass-through
enforcement modes of the semantic-integrity-constraints line of work,
a :class:`GuardPolicy` states what a *failing* guard (or model stage)
does to the rows it can no longer vet:

* ``strict``       — fail closed: re-raise, the query errors out;
* ``warn``         — fail open, loudly: rows flow unvetted, the
  degradation is recorded (stats, obs counters, execution metrics);
* ``pass_through`` — fail open, quietly: rows flow unvetted;
* ``reject``       — fail closed without raising: the affected rows
  are withheld (verdict *not ok* / rows dropped from the query).

:class:`CircuitBreaker` adds retry-with-backoff and a trip wire: after
``failure_threshold`` consecutive failures the breaker opens and calls
are refused outright (:class:`CircuitOpenError`) until
``recovery_seconds`` pass, at which point a half-open probe is allowed
through.  :class:`ResilientGuard` composes both around the streaming
guard of :mod:`repro.errors.stream`.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .. import obs
from ..errors.stream import RowVerdict, _micro_batches


class GuardPolicy(enum.Enum):
    """What a failing guard/model stage does to the rows it covers."""

    STRICT = "strict"
    WARN = "warn"
    PASS_THROUGH = "pass_through"
    REJECT = "reject"

    @classmethod
    def parse(cls, value: "GuardPolicy | str") -> "GuardPolicy":
        """Coerce a string (or member) into a :class:`GuardPolicy`."""
        if isinstance(value, GuardPolicy):
            return value
        try:
            return cls(value.lower().replace("-", "_"))
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown guard policy {value!r}; expected one of {options}"
            ) from None

    @property
    def fails_open(self) -> bool:
        """Do rows flow through when the guard is down?"""
        return self in (GuardPolicy.WARN, GuardPolicy.PASS_THROUGH)


class GuardUnavailableError(RuntimeError):
    """Raised under the ``strict`` policy when the guard cannot run."""


class CircuitOpenError(GuardUnavailableError):
    """Raised when a call is refused because the breaker is open."""


class BreakerState(enum.Enum):
    """Circuit-breaker lifecycle states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Consecutive-failure trip wire with retry/backoff per call.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (counting a call as one failure after its
        retries are spent) that open the circuit.
    recovery_seconds:
        How long an open circuit refuses calls before letting one
        half-open probe through.
    max_retries:
        In-call retries before the call counts as failed.
    backoff_seconds:
        Sleep before the first retry; multiplied by
        ``backoff_multiplier`` for each further retry.  0 disables
        sleeping (the right setting for tests and for in-process
        guards, where retrying later does not help a deterministic
        fault).

    The breaker is thread-safe: state transitions happen under an
    internal lock, and the OPEN → HALF_OPEN transition admits exactly
    **one** probe.  Before the serving layer this was a latent
    stampede — every caller racing the recovery window saw the flip
    and probed the failing dependency at once, which is precisely the
    hammering the breaker exists to prevent.
    """

    failure_threshold: int = 3
    recovery_seconds: float = 0.1
    max_retries: int = 1
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    total_failures: int = 0
    total_retries: int = 0
    times_opened: int = 0
    _opened_at: float = field(default=0.0, repr=False)
    _probe_at: float = field(default=0.0, repr=False)
    _probe_in_flight: bool = field(default=False, repr=False)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def allow(self) -> bool:
        """May a call proceed right now?  (Open → half-open on timeout.)

        In the HALF_OPEN window exactly one caller holds the probe
        token; everyone else is refused until the probe reports back
        via :meth:`record_success` / :meth:`record_failure`.  A probe
        whose caller never reports (crashed mid-call) is considered
        lost after ``recovery_seconds`` and a new probe is admitted.
        """
        if self.state is BreakerState.CLOSED:
            return True
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            now = time.monotonic()
            if self.state is BreakerState.OPEN:
                if now - self._opened_at < self.recovery_seconds:
                    return False
                self.state = BreakerState.HALF_OPEN
                self._probe_in_flight = True
                self._probe_at = now
                return True
            # HALF_OPEN: the single probe is either in flight (refuse)
            # or lost (its caller went quiet past the recovery window).
            if (
                self._probe_in_flight
                and now - self._probe_at < self.recovery_seconds
            ):
                return False
            self._probe_in_flight = True
            self._probe_at = now
            return True

    def record_success(self) -> None:
        """A call completed: close the circuit and reset the streak."""
        with self._lock:
            self.consecutive_failures = 0
            self.state = BreakerState.CLOSED
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """A call failed (post-retries): maybe trip the circuit."""
        with self._lock:
            self.consecutive_failures += 1
            self.total_failures += 1
            self._probe_in_flight = False
            if (
                self.state is BreakerState.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold
            ):
                self.state = BreakerState.OPEN
                self._opened_at = time.monotonic()
                self.times_opened += 1
                if obs.enabled():
                    obs.count("resilience.breaker.opened")

    def call(
        self,
        fn: Callable,
        *args,
        expected: tuple[type[BaseException], ...] = (),
        **kwargs,
    ):
        """Run ``fn`` under the breaker with retry/backoff.

        Exception types in ``expected`` are *intended* outcomes (e.g.
        ``DataIntegrityError`` under the ``raise`` strategy): they
        propagate immediately and count as neither failure nor success.
        """
        if not self.allow():
            raise CircuitOpenError(
                f"circuit open after {self.consecutive_failures} "
                f"consecutive failures"
            )
        delay = self.backoff_seconds
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                result = fn(*args, **kwargs)
            except expected:
                raise
            except Exception:
                if attempt + 1 >= attempts:
                    self.record_failure()
                    raise
                self.total_retries += 1
                if obs.enabled():
                    obs.count("resilience.retry")
                if delay > 0:
                    time.sleep(delay)
                    delay *= self.backoff_multiplier
            else:
                self.record_success()
                return result
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class DegradationStats:
    """What a resilient guard had to paper over."""

    failures: int = 0
    degraded_verdicts: int = 0
    slow_calls: int = 0
    last_error: str | None = None

    @property
    def degraded(self) -> bool:
        """Did any call degrade (fail or run past the watchdog)?"""
        return self.failures > 0 or self.slow_calls > 0


class ResilientGuard:
    """A streaming guard that degrades instead of dying.

    Wraps a :class:`~repro.errors.Guard` (or a
    :class:`~repro.resilience.LiveGuard`) with the breaker and the
    watchdog, and converts any guard failure (adversarial input,
    injected fault, open circuit) into the policy's verdict.  A failed
    batch (one malformed row poisons the whole call, probes or kernel)
    is retried row by row, so healthy rows in a bad batch still get real
    verdicts and only the offending rows degrade — :meth:`check` and
    :meth:`check_batch` therefore agree under the same policy.

        guard = ResilientGuard(gr.guard(), policy="warn")
        guard.check(["not", "a", "mapping"]).ok      # True (fail open)
        guard.stats.failures                          # 1
    """

    def __init__(
        self,
        guard,
        policy: "GuardPolicy | str" = GuardPolicy.STRICT,
        breaker: CircuitBreaker | None = None,
        watchdog_seconds: float | None = None,
    ):
        self.guard = guard
        self.policy = GuardPolicy.parse(policy)
        self.breaker = breaker or CircuitBreaker()
        self.watchdog_seconds = watchdog_seconds
        self.stats = DegradationStats()

    def attach_drift(self, detector) -> None:
        """Attach a drift detector to the wrapped guard.

        Delegates to the inner guard's ``attach_drift`` (see
        :meth:`repro.errors.Guard.attach_drift`), so detection rides
        the same verdicts the caller sees — including a degraded
        verdict's row never reaching the detector, since a row the
        guard could not vet says nothing about drift.
        """
        self.guard.attach_drift(detector)

    @property
    def drift(self):
        """The inner guard's attached drift detector, if any."""
        return getattr(self.guard, "drift", None)

    def check(self, row) -> RowVerdict:
        """Vet one row; failures yield the policy verdict."""
        breaker = self.breaker
        # Hot path: no watchdog, no retries, circuit closed — the
        # wrapper must cost next to nothing per row, so skip the timer
        # and the breaker's dispatch machinery.
        if (
            self.watchdog_seconds is None
            and breaker.max_retries == 0
            and breaker.state is BreakerState.CLOSED
        ):
            try:
                verdict = self.guard.check(row)
            except Exception as error:
                breaker.record_failure()
                return self._degraded_verdict(error)
            if breaker.consecutive_failures:
                breaker.record_success()
            return verdict
        try:
            start = time.perf_counter()
            verdict = breaker.call(self.guard.check, row)
            self._watch(time.perf_counter() - start)
            return verdict
        except Exception as error:
            return self._degraded_verdict(error)

    def check_batch(self, rows: Sequence) -> list[RowVerdict]:
        """Vet a batch; kernel failures fall back to per-row vetting."""
        rows = list(rows)
        try:
            start = time.perf_counter()
            verdicts = self.breaker.call(self.guard.check_batch, rows)
            self._watch(time.perf_counter() - start)
            return verdicts
        except Exception:
            if obs.enabled():
                obs.count("resilience.guard.batch_salvage")
            return [self._check_one(row) for row in rows]

    def stream(
        self, rows: Iterable, batch_size: int = 256
    ) -> Iterator[RowVerdict]:
        """Vet a row stream with micro-batching and per-row salvage;
        every row gets a verdict, come what may."""
        return _micro_batches(self.check_batch, rows, batch_size)

    def rectify(self, row) -> dict[str, Hashable] | None:
        """Repair one row; on failure the policy decides the fallback.

        Fail-open policies return the row unrepaired (best effort);
        ``reject`` returns ``None`` (the row is withheld); ``strict``
        raises :class:`GuardUnavailableError`.
        """
        try:
            start = time.perf_counter()
            repaired = self.breaker.call(self.guard.rectify, row)
            self._watch(time.perf_counter() - start)
            return repaired
        except Exception as error:
            self._degraded_verdict(error)  # raises under strict
            if self.policy is GuardPolicy.REJECT:
                return None
            try:
                return dict(row)
            except Exception:
                return None

    def _check_one(self, row) -> RowVerdict:
        """Salvage one row of a failed batch as a batch of one (which
        the inner guard vets with its per-row probes)."""
        try:
            return self.breaker.call(self.guard.check_batch, [row])[0]
        except Exception as error:
            return self._degraded_verdict(error)

    def _degraded_verdict(self, error: BaseException) -> RowVerdict:
        """The policy-dictated verdict for a row the guard never saw."""
        self.stats.failures += 1
        self.stats.last_error = f"{type(error).__name__}: {error}"
        if obs.enabled():
            obs.count("resilience.guard.failure")
            obs.record(
                "resilience.degraded",
                policy=self.policy.value,
                error=type(error).__name__,
            )
        if self.policy is GuardPolicy.STRICT:
            if isinstance(error, GuardUnavailableError):
                raise error
            raise GuardUnavailableError(
                f"guard failed under strict policy: {error}"
            ) from error
        self.stats.degraded_verdicts += 1
        if self.policy is GuardPolicy.REJECT:
            return RowVerdict(False, ())
        # warn / pass_through: fail open.
        return RowVerdict(True, ())

    def _watch(self, elapsed: float) -> None:
        """Post-hoc watchdog: count a slow call as a breaker failure.

        An in-process guard cannot be preempted, so the watchdog trips
        *after* the slow call returns — the verdict is still used, but
        repeated slowness opens the breaker and subsequent calls
        degrade per policy instead of stalling the pipeline.
        """
        if (
            self.watchdog_seconds is not None
            and elapsed > self.watchdog_seconds
        ):
            self.stats.slow_calls += 1
            self.breaker.record_failure()
            if obs.enabled():
                obs.count("resilience.guard.slow")
                obs.observe("resilience.guard.slow_seconds", elapsed)

    def __len__(self) -> int:
        return len(self.guard)


ResilientRowGuard = ResilientGuard  # former name of the row wrapper
ResilientBatchGuard = ResilientGuard  # former name of the batch wrapper


def resilient_call(
    fn: Callable,
    *args,
    policy: "GuardPolicy | str" = GuardPolicy.STRICT,
    breaker: CircuitBreaker | None = None,
    fallback=None,
    expected: tuple[type[BaseException], ...] = (),
    **kwargs,
):
    """One-shot policy wrapper for an arbitrary pipeline stage.

    Runs ``fn`` under ``breaker`` (a throwaway one when omitted); on
    failure, ``strict`` re-raises as :class:`GuardUnavailableError`
    while every other policy returns ``fallback``.  Exceptions listed
    in ``expected`` always propagate unchanged.
    """
    policy = GuardPolicy.parse(policy)
    breaker = breaker or CircuitBreaker(max_retries=0)
    try:
        return breaker.call(fn, *args, expected=expected, **kwargs)
    except expected:
        raise
    except Exception as error:
        if policy is GuardPolicy.STRICT:
            raise GuardUnavailableError(
                f"stage failed under strict policy: {error}"
            ) from error
        if obs.enabled():
            obs.count("resilience.stage.failure")
        return fallback
