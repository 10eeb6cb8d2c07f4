"""Overload control: shed load deliberately instead of collapsing.

A server under a traffic storm has exactly two honest options: make
the work cheaper or turn work away.  This module supplies the four
mechanisms the serving layer (:mod:`repro.serve`) composes into its
admission pipeline, in the order a request meets them:

* :class:`AdmissionController` — CoDel-style *adaptive admission*.
  Tracks each tenant's queue sojourn time as an EWMA and starts
  rejecting **before** the queue is full once the delay has sat above
  a target for a sustained interval; rejection hints
  (:meth:`AdmissionController.retry_hint`) come from the *measured*
  drain rate with ±20% jitter so shed clients don't re-arrive in
  lockstep.
* request **deadlines** — the serve layer stamps ``deadline_ms`` onto
  queued requests; :func:`expired` is the one shared predicate that
  decides, against :class:`~repro.obs.SteadyClock` time (the clock
  obs events are stamped with), whether a request's budget is already
  gone (shed at dequeue, no guard work wasted).
* :class:`FairShareLimiter` — a server-wide concurrency budget split
  across tenants by weighted shares, work-conserving: a tenant may
  always use its guaranteed slice, and may exceed it only while the
  server as a whole has headroom, so one noisy tenant cannot starve
  the rest.
* :class:`BrownoutController` — graceful *degradation tiers* with
  hysteresis: sustained pressure steps the server down (tier 1:
  parallel predict → blocking; tier 2: drift sampling widened too), a
  cool period steps it back up, and every transition is journaled as
  a control-plane event before it activates.

Everything here is synchronous, allocation-light, and loop-agnostic —
the asyncio serve layer calls into it from the admission path and the
batcher, and the chaos harness's ``overload`` family
(:mod:`repro.resilience.chaos_serve`) drives it to its limits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..obs.trace import STEADY_CLOCK, SteadyClock


def expired(deadline_at: "float | None", now: float) -> bool:
    """Is a request's deadline already behind ``now``?

    ``deadline_at`` is an absolute
    :meth:`~repro.obs.SteadyClock.monotonic` instant (None = no
    deadline); the serve layer calls this at admission, at dequeue,
    and during the shutdown drain so every layer applies the identical
    predicate.
    """
    return deadline_at is not None and now > deadline_at


class AdmissionController:
    """CoDel-flavored admission control over one tenant's queue delay.

    The controller watches *sojourn time* — how long each request sat
    in the admission queue before its flush — as an EWMA, and declares
    overload only when that delay has stayed above ``target_delay_ms``
    for at least ``interval_ms`` (the CoDel insight: a standing queue
    is the problem, a transient burst is what queues are *for*).  Once
    overloaded, :meth:`should_shed` rejects new arrivals while a real
    backlog exists, long before the queue-full cliff.

    It also measures the queue's *drain rate* (rows per second across
    flushes, EWMA-smoothed) so :meth:`retry_hint` can tell a rejected
    client how long the current backlog actually needs — an honest
    figure, jittered ±20% so synchronized clients desynchronize.
    """

    def __init__(
        self,
        target_delay_ms: float = 100.0,
        interval_ms: "float | None" = None,
        alpha: float = 0.2,
        min_backlog: int = 1,
        seed: "str | int | None" = None,
        clock: "SteadyClock | None" = None,
    ):
        if target_delay_ms <= 0:
            raise ValueError("target_delay_ms must be > 0")
        self.target_delay_ms = float(target_delay_ms)
        self.interval_s = (
            target_delay_ms if interval_ms is None else interval_ms
        ) / 1000.0
        self.alpha = alpha
        self.min_backlog = max(1, int(min_backlog))
        self.clock = clock or STEADY_CLOCK
        self.sojourn_ewma_ms: "float | None" = None
        self.drain_rate_rps: "float | None" = None
        self.shed_total = 0
        self._above_since: "float | None" = None
        self._last_flush_at: "float | None" = None
        self._rng = random.Random(seed if seed is not None else 0x0DE1)

    def observe_sojourn(
        self, sojourn_ms: float, now: "float | None" = None
    ) -> None:
        """Fold one request's measured queue delay into the EWMA."""
        now = self.clock.monotonic() if now is None else now
        if self.sojourn_ewma_ms is None:
            self.sojourn_ewma_ms = sojourn_ms
        else:
            self.sojourn_ewma_ms += self.alpha * (
                sojourn_ms - self.sojourn_ewma_ms
            )
        if self.sojourn_ewma_ms > self.target_delay_ms:
            if self._above_since is None:
                self._above_since = now
        else:
            self._above_since = None

    def observe_flush(
        self, rows: int, now: "float | None" = None
    ) -> None:
        """Fold one completed flush into the drain-rate estimate."""
        now = self.clock.monotonic() if now is None else now
        last = self._last_flush_at
        self._last_flush_at = now
        if last is None or rows <= 0:
            return
        interval = now - last
        if interval <= 0:
            return
        rate = rows / interval
        if self.drain_rate_rps is None:
            self.drain_rate_rps = rate
        else:
            self.drain_rate_rps += self.alpha * (
                rate - self.drain_rate_rps
            )

    @property
    def overloaded(self) -> bool:
        """Is the sojourn EWMA currently above the target delay?"""
        return (
            self.sojourn_ewma_ms is not None
            and self.sojourn_ewma_ms > self.target_delay_ms
        )

    def should_shed(
        self, backlog: int, now: "float | None" = None
    ) -> bool:
        """Reject this arrival?  True only for a *standing* queue:
        the sojourn EWMA above target for a full interval, with at
        least ``min_backlog`` requests actually waiting."""
        if self._above_since is None or backlog < self.min_backlog:
            return False
        now = self.clock.monotonic() if now is None else now
        if now - self._above_since < self.interval_s:
            return False
        self.shed_total += 1
        return True

    def drain_seconds(self, backlog: int) -> "float | None":
        """Measured time for ``backlog`` queued rows to drain, or None
        before any flush has been observed."""
        if not self.drain_rate_rps or self.drain_rate_rps <= 0:
            return None
        return backlog / self.drain_rate_rps

    def retry_hint(self, backlog: int, fallback: float) -> float:
        """An honest, jittered backoff for one rejected client.

        The base figure is the measured drain time of the current
        backlog (``fallback`` — the caller's static estimate — before
        any flush has been measured); jitter spreads it over ±20% so
        two clients rejected in the same millisecond come back at
        different times instead of re-forming the stampede.
        """
        measured = self.drain_seconds(max(backlog, 1))
        base = measured if measured is not None else fallback
        return max(base, 1e-4) * self._rng.uniform(0.8, 1.2)


class FairShareLimiter:
    """A weighted server-wide concurrency budget across tenants.

    ``budget`` is the total number of requests the server will hold
    in flight at once; each tenant registers a ``share`` weight and is
    *guaranteed* the fraction ``share / total_shares`` of it.  The
    scheme is work-conserving: :meth:`try_acquire` admits a tenant
    under its guarantee unconditionally, and past its guarantee only
    while the server as a whole has headroom — idle capacity is never
    wasted, but a noisy tenant can only ever eat the *slack*, not a
    neighbor's slice.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = int(budget)
        self._shares: dict[str, float] = {}
        self._usage: dict[str, int] = {}
        self.denied_total = 0

    def register(self, name: str, share: float = 1.0) -> None:
        """Add (or re-weight) one tenant's share of the budget."""
        if share <= 0:
            raise ValueError("share must be > 0")
        self._shares[name] = float(share)
        self._usage.setdefault(name, 0)

    def unregister(self, name: str) -> None:
        """Forget a tenant (its in-flight tokens are released)."""
        self._shares.pop(name, None)
        self._usage.pop(name, None)

    @property
    def in_flight(self) -> int:
        """Requests currently holding a token, across all tenants."""
        return sum(self._usage.values())

    def guaranteed(self, name: str) -> float:
        """The concurrency this tenant may always use: its weighted
        slice of the budget (at least 1 — registration is a promise
        of *some* service)."""
        total = sum(self._shares.values())
        if total <= 0:
            return float(self.budget)
        slice_ = self.budget * self._shares.get(name, 0.0) / total
        return max(1.0, slice_)

    def try_acquire(self, name: str) -> bool:
        """Admit one request for ``name`` if fairness allows.

        True admits and holds one token (release it with
        :meth:`release` when the request resolves); False means the
        tenant is past its guarantee *and* the server is at budget.
        """
        usage = self._usage.get(name, 0)
        if usage < self.guaranteed(name) or self.in_flight < self.budget:
            self._usage[name] = usage + 1
            return True
        self.denied_total += 1
        return False

    def release(self, name: str) -> None:
        """Return one token (no-op for unknown/unregistered tenants)."""
        usage = self._usage.get(name)
        if usage:
            self._usage[name] = usage - 1

    def snapshot(self) -> dict:
        """Budget, per-tenant usage, and denials as a plain dict."""
        return {
            "budget": self.budget,
            "in_flight": self.in_flight,
            "denied": self.denied_total,
            "usage": dict(self._usage),
            "shares": dict(self._shares),
        }


@dataclass(frozen=True)
class BrownoutConfig:
    """Hysteresis knobs for :class:`BrownoutController`.

    ``step_down_after`` consecutive overloaded observations trigger one
    tier step down; stepping back up requires ``cool_seconds`` with no
    overload observed; ``min_dwell_seconds`` rate-limits transitions in
    both directions so the controller cannot oscillate within a single
    pressure spike.  ``max_tier`` bounds how far service degrades;
    ``drift_widen_factor`` is the multiplier applied to drift-detector
    sampling at tier >= 2, where the serve layer applies it to every
    tenant's attached :class:`~repro.resilience.DriftDetector`.
    """

    step_down_after: int = 3
    cool_seconds: float = 2.0
    min_dwell_seconds: float = 0.1
    max_tier: int = 2
    drift_widen_factor: int = 4

    def __post_init__(self) -> None:
        if self.step_down_after < 1:
            raise ValueError("step_down_after must be >= 1")
        if self.max_tier < 1:
            raise ValueError("max_tier must be >= 1")
        if self.drift_widen_factor < 1:
            raise ValueError("drift_widen_factor must be >= 1")


class BrownoutController:
    """Server-wide graceful-degradation tiers with hysteresis.

    Tier 0 is full service.  Each step down sheds one class of
    optional work — the serve layer maps tiers to effects through the
    :attr:`degrade_parallel` and :attr:`drift_widen_factor`
    properties:

    ======  ==========================================================
    tier 0  full service
    tier 1  parallel predict races downgrade to blocking (the model
            stage stops burning cycles on rows the guard will void)
    tier 2  drift sampling widened too: each tenant's detector samples
            1-in-(k x ``drift_widen_factor``) served rows
    ======  ==========================================================

    Obs counters are never shed: with tracing on, every served event
    is counted once, at every tier.

    Transitions are driven by :meth:`observe` — one call per flush
    with that moment's overload signal — and follow the hysteresis in
    :class:`BrownoutConfig`.  Every transition is journaled (via
    :meth:`attach_journal`) *before* it activates, matching the
    serve layer's journal-before-activation rule, and the journal
    payloads carry no timestamps so a recovery replay reconstructs
    the transition history bit-identically.
    """

    def __init__(
        self,
        config: "BrownoutConfig | None" = None,
        clock: "SteadyClock | None" = None,
    ):
        self.config = config or BrownoutConfig()
        self.clock = clock or STEADY_CLOCK
        self.tier = 0
        self.max_tier_seen = 0
        self.transitions: list[dict] = []
        self.unjournaled = 0
        self._journal: "Callable | None" = None
        self._listeners: list[Callable] = []
        self._streak = 0
        self._last_transition_at: "float | None" = None
        self._last_overloaded_at: "float | None" = None

    def attach_journal(self, journal: "Callable | None") -> None:
        """Route transitions into a durable journal (``journal(**data)``).

        Journaling is best-effort by design: a sick disk must not
        prevent the server from shedding load, so append failures are
        swallowed and counted on :attr:`unjournaled`.
        """
        self._journal = journal

    def on_transition(self, listener: Callable) -> None:
        """Register ``listener(record)`` called after each transition."""
        self._listeners.append(listener)

    def restore(self, tier: int, transitions: list[dict]) -> None:
        """Adopt a recovered tier + transition history (no journaling,
        no listener calls — replayed events must not re-journal)."""
        self.tier = int(tier)
        self.transitions = [dict(t) for t in transitions]
        self.max_tier_seen = max(
            [self.tier] + [int(t.get("tier", 0)) for t in self.transitions]
        )

    def observe(
        self, overloaded: bool, now: "float | None" = None
    ) -> int:
        """Feed one pressure sample; returns the (possibly new) tier."""
        now = self.clock.monotonic() if now is None else now
        config = self.config
        if overloaded:
            self._last_overloaded_at = now
            self._streak += 1
            if (
                self._streak >= config.step_down_after
                and self.tier < config.max_tier
                and self._dwelled(now)
            ):
                self._transition(self.tier + 1, "pressure", now)
                self._streak = 0
        else:
            self._streak = 0
            cooled = (
                self._last_overloaded_at is None
                or now - self._last_overloaded_at >= config.cool_seconds
            )
            if self.tier > 0 and cooled and self._dwelled(now):
                self._transition(self.tier - 1, "cooled", now)
        return self.tier

    def _dwelled(self, now: float) -> bool:
        return (
            self._last_transition_at is None
            or now - self._last_transition_at
            >= self.config.min_dwell_seconds
        )

    def _transition(self, tier: int, reason: str, now: float) -> None:
        record = {"from": self.tier, "tier": tier, "reason": reason}
        if self._journal is not None:
            try:
                # Journal-before-activation, but best-effort: shedding
                # must keep working on a dead disk.
                self._journal(**record)
            except Exception:
                self.unjournaled += 1
        self.tier = tier
        self.max_tier_seen = max(self.max_tier_seen, tier)
        self._last_transition_at = now
        self.transitions.append(record)
        for listener in self._listeners:
            listener(record)

    @property
    def degrade_parallel(self) -> bool:
        """Should parallel predict races downgrade to blocking?"""
        return self.tier >= 1

    @property
    def drift_widen_factor(self) -> int:
        """Multiplier for drift-detector sampling at the current tier."""
        if self.tier >= 2:
            return self.config.drift_widen_factor
        return 1

    def snapshot(self) -> dict:
        """Tier, peak tier, and transition count as a plain dict."""
        return {
            "tier": self.tier,
            "max_tier_seen": self.max_tier_seen,
            "transitions": len(self.transitions),
            "unjournaled": self.unjournaled,
        }
