"""Served fault families: chaos under live traffic, and traffic storms.

The ``load`` and ``overload`` families of
:data:`repro.resilience.chaos.FAULTS` run against a live
:class:`repro.serve.GuardServer` and judge the service-level contract
instead of the single-call one.  Every class demands **zero lost
requests**: each submission resolves with a typed
:class:`~repro.serve.ServeResponse`, never an exception, never a
future nobody resolves.

The ``load`` family injects *component* faults while 8 closed-loop
clients (5 requests each per traffic phase) drive two tenants; the
second never sees a fault and doubles as an isolation control.  Beyond
zero lost requests it judges **verdict parity** — every healthy (OK,
non-degraded) response matches a serial ``Guard.check_batch``
reference for the guardrail version stamped on it, before, during,
and after the fault — and **recovery**: healthy verdicts flow again
once the fault clears (the first one is timed).  The runs are
phase-driven, not wall-clock-driven, so the family is deterministic.

========================  ====================================================
``guard_exception``       the live guardrail is hot-swapped for one whose
                          guards always raise, then rolled back — requests
                          in the window degrade per policy, never vanish
``hot_swap``              a legitimate v2 guardrail lands mid-traffic;
                          parity is judged per stamped version
``breaker_trip``          the raising guard plus a tight failure threshold
                          trips the tenant's circuit breaker (asserted via
                          ``times_opened``); recovery rides the half-open probe
``worker_kill``           the tenant's batcher task is cancelled mid-batch
                          (``GuardServer.kill_batcher``); in-hand requests
                          resolve with typed ERRORs and supervision respawns
                          the batcher (asserted via ``batcher_restarts``)
========================  ====================================================

The ``overload`` family keeps the components healthy and makes the
**traffic itself the fault**, driving the serve layer's overload
pipeline (:mod:`repro.resilience.overload`) to its limits:

========================  ==================================================
``overload_storm``        open-loop traffic at 10x measured capacity;
                          judged on goodput (>= 70% of the calibrated
                          single-tenant capacity retained), brownout
                          tiers stepping down under pressure and
                          restoring after the storm, and — on the
                          durable server — the journaled tier
                          transitions replaying bit-identically
``retry_storm``           a synchronized burst overflows a tiny queue;
                          judged on honest, *distinct* jittered
                          ``retry_after`` hints (no client re-arrives
                          in lockstep) and every shed request
                          eventually completing on retry
``noisy_neighbor``        one tenant floods while a polite tenant keeps
                          a paced trickle; judged on fair-share
                          isolation — the polite tenant's p95 stays
                          within 2x its unloaded p95 and none of its
                          requests are shed — while the flood is
``deadline_stampede``     a deep backlog plus a wave of tight
                          ``deadline_ms`` requests; judged on typed
                          EXPIRED responses shed at dequeue with zero
                          wasted guard work (guard-visited rows ==
                          completed requests, exactly)
========================  ==================================================

Overload shedding must be orthogonal to guard degradation, so both
families run under every :class:`~repro.resilience.GuardPolicy`.
"""

from __future__ import annotations

import asyncio
import tempfile
import time

from .chaos import (
    _CITY_OF,
    _STATE_OF,
    Nonconformant,
    _sabotaged_guardrail,
    chaos_program,
)
from .overload import BrownoutConfig

_CLIENTS = 8
_REQUESTS = 5
"""The load fleet: closed-loop clients, and the requests each issues
per traffic phase."""

_DOWN = "chaos: guard backend down"


def _rows() -> list[dict]:
    """A fixed request pool mixing clean, violating, and v2-only rows."""
    state_of = dict(_STATE_OF, Oakland="CA")
    postals = sorted(_CITY_OF)
    cities = ("Berkeley", "NewYork", "Austin", "Oakland")
    return [
        {
            "PostalCode": postals[i % len(postals)],
            "City": cities[i % len(cities)],
            "State": state_of[cities[i % len(cities)]],
        }
        for i in range(32)
    ]


# ---------------------------------------------------------------------------
# Traffic drivers
# ---------------------------------------------------------------------------


class _ClosedLoop:
    """Closed-loop clients: each issues its requests one after another.

    Client ``c`` talks to ``tenants[c % len(tenants)]`` and retries
    typed REJECTED backpressure after the hint (capped at 5 ms).  Every
    settled request lands in :attr:`log` as ``(tenant, row_index,
    response, t)``; an exception lands in :attr:`lost` instead.
    """

    def __init__(self, server, tenants, rows):
        self.server = server
        self.tenants = tenants
        self.rows = rows
        self.log: list = []
        self.lost: list[str] = []
        self.submitted = 0
        self.rejected_retries = 0

    async def drive(self, requests: int, offset: int = 0) -> None:
        """One phase: each of the clients issues ``requests`` requests."""

        async def client(cid: int) -> None:
            tenant = self.tenants[cid % len(self.tenants)]
            for k in range(requests):
                self.submitted += 1
                try:
                    await self.request(
                        tenant, (offset + cid * 31 + k * 7) % len(self.rows)
                    )
                except Exception as error:  # noqa: BLE001 - judged
                    self.lost.append(f"{type(error).__name__}: {error}")

        await asyncio.gather(*(client(c) for c in range(_CLIENTS)))

    async def request(self, tenant: str, row_index: int) -> None:
        """One request, retried until it is not shed."""
        from ..serve import ServeStatus

        while True:
            response = await self.server.check(tenant, self.rows[row_index])
            if response.status is not ServeStatus.REJECTED:
                self.log.append(
                    (tenant, row_index, response, time.perf_counter())
                )
                return
            self.rejected_retries += 1
            await asyncio.sleep(min(response.retry_after or 0.001, 0.005))


async def _open_loop(
    server,
    tenant: str,
    rows,
    total: int,
    duration_s: float,
    deadline_ms: "float | None" = None,
) -> tuple[list, float]:
    """Open-loop storm traffic: ``total`` requests submitted over
    ``duration_s`` regardless of completions (the arrival process a
    shedding server actually faces).  Returns every settled result
    (responses or exceptions — the judge wants both) and the elapsed
    time from first submission to last resolution."""
    futures = []
    ticks = 40
    interval = duration_s / ticks
    start = time.perf_counter()
    sent = 0
    for tick in range(ticks):
        quota = (total * (tick + 1)) // ticks
        while sent < quota:
            row = rows[sent % len(rows)]
            futures.append(
                asyncio.ensure_future(
                    server.check(tenant, row, deadline_ms=deadline_ms)
                )
            )
            sent += 1
        await asyncio.sleep(interval)
    results = await asyncio.gather(*futures, return_exceptions=True)
    return list(results), time.perf_counter() - start


async def _cool_down(server, tenant: str, rows, bound_s: float) -> bool:
    """Paced light traffic until the brownout controller steps back to
    tier 0 (or ``bound_s`` expires); True when full service returned."""
    deadline = time.perf_counter() + bound_s
    index = 0
    while time.perf_counter() < deadline:
        await server.check(tenant, rows[index % len(rows)])
        index += 1
        if server.brownout.tier == 0:
            return True
        await asyncio.sleep(0.01)
    return server.brownout.tier == 0


def _tally(results) -> tuple[dict, list]:
    """Split settled results into typed-response counts and losses."""
    from ..serve import ServeResponse, ServeStatus

    counts = dict(resolved=0, completed=0, rejected=0, expired=0, errors=0)
    kinds = {
        ServeStatus.OK: "completed",
        ServeStatus.REJECTED: "rejected",
        ServeStatus.EXPIRED: "expired",
    }
    lost = []
    for result in results:
        if isinstance(result, ServeResponse):
            counts["resolved"] += 1
            counts[kinds.get(result.status, "errors")] += 1
        else:
            lost.append(f"{type(result).__name__}: {result}")
    return counts, lost


def _p95(values: list) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(0.95 * (len(ordered) - 1) + 0.5))
    return ordered[index]


# ---------------------------------------------------------------------------
# The load family: pre-traffic, inject, post-traffic, judge
# ---------------------------------------------------------------------------


async def _load_fault(
    policy, inject, landed, max_wait_ms=2.0, failure_threshold=10_000
):
    """Drive both tenants, ``inject`` the fault, drive them again, and
    apply the service-level contract to the log.

    ``inject(server, fleet, programs)`` returns the evidence that the
    fault ran; ``landed(evidence, responses)`` says whether it landed.
    """
    from ..errors import Guard
    from ..serve import GuardServer, ServeStatus, TenantConfig
    from ..synth import Guardrail

    programs = {  # v1: the training-time world; v2: 94704 is Oakland
        1: chaos_program(),
        2: chaos_program(
            dict(_CITY_OF, **{"94704": "Oakland"}),
            dict(_STATE_OF, Oakland="CA"),
        ),
    }
    rows = _rows()
    references = {
        version: Guard(program).check_batch(rows)
        for version, program in programs.items()
    }
    config = TenantConfig(
        policy=policy,
        max_batch=_CLIENTS // 2,
        max_wait_ms=max_wait_ms,
        queue_size=256,
        # Only breaker_trip wants a hair-trigger breaker; the other
        # classes isolate their own failure mode (the breaker has its
        # own fault class and tests).
        failure_threshold=failure_threshold,
        recovery_seconds=0.05,
    )
    server = GuardServer()
    tenants = ("faulted", "control")
    for name in tenants:
        server.register(name, Guardrail.from_program(programs[1]), config)
    fleet = _ClosedLoop(server, tenants, rows)
    async with server:
        await fleet.drive(_REQUESTS)
        evidence = await inject(server, fleet, programs)
        cleared_at = time.perf_counter()
        await fleet.drive(_REQUESTS, offset=13)

    responses = [response for _, _, response, _ in fleet.log]
    errors = sum(r.status is ServeStatus.ERROR for r in responses)
    measures = dict(
        submitted=fleet.submitted,
        resolved=len(responses),
        errors=errors,
        rejected_retries=fleet.rejected_retries,
    )

    def fail(detail: str) -> Nonconformant:
        return Nonconformant(detail, **measures)

    if fleet.lost:
        raise fail(
            f"{len(fleet.lost)} request(s) lost to exceptions "
            f"(first: {fleet.lost[0]})"
        )
    if len(responses) != fleet.submitted:
        raise fail(
            f"{fleet.submitted} submitted but {len(responses)} resolved — "
            "a request vanished without a typed response"
        )
    # Verdict parity: every healthy response matches the serial
    # reference for the version stamped on it.
    healthy = 0
    for tenant, row_index, response, _ in fleet.log:
        if response.status is not ServeStatus.OK:
            continue
        if response.degraded or response.verdict is None:
            continue
        reference = references.get(response.version)
        if reference is None:
            raise fail(f"response stamped unknown version {response.version}")
        if response.verdict != reference[row_index]:
            raise fail(
                f"verdict parity broken for {tenant} row {row_index} "
                f"under v{response.version}"
            )
        healthy += 1
    if healthy == 0:
        raise fail("no healthy verdict ever flowed")
    # Recovery: healthy verdicts from the *faulted* tenant after the
    # fault cleared.
    post = [
        t
        for tenant, _, response, t in fleet.log
        if tenant == "faulted"
        and t >= cleared_at
        and response.status is ServeStatus.OK
        and not response.degraded
    ]
    if not post:
        raise fail("faulted tenant never recovered a healthy verdict")
    recovery_s = min(post) - cleared_at
    if not landed(evidence, responses):
        raise fail(f"fault never landed (evidence: {evidence})")
    return (
        f"{len(responses)}/{fleet.submitted} typed responses, {healthy} "
        f"parity-checked, {errors} typed error(s), recovery in "
        f"{recovery_s * 1000:.0f}ms",
        dict(measures, recovery_s=recovery_s),
    )


def _guard_exception(policy, rng, scale):
    """The live guardrail is swapped for one whose guards always raise,
    then rolled back; requests in the window degrade per policy."""
    from ..serve import ServeStatus

    async def inject(server, fleet, programs):
        server.swap("faulted", _sabotaged_guardrail(programs[1], error=_DOWN))
        await fleet.drive(3, offset=5)  # traffic through the broken guard
        server.rollback("faulted")
        return {}

    return asyncio.run(
        _load_fault(
            policy,
            inject,
            lambda _, responses: any(
                r.status is ServeStatus.ERROR or r.degraded
                for r in responses
            ),
        )
    )


def _hot_swap(policy, rng, scale):
    """A legitimate v2 guardrail lands mid-traffic; parity is judged per
    stamped version."""
    from ..serve import ServeStatus
    from ..synth import Guardrail

    async def inject(server, fleet, programs):
        version = server.swap("faulted", Guardrail.from_program(programs[2]))
        return {"swapped_to": version}

    return asyncio.run(
        _load_fault(
            policy,
            inject,
            lambda evidence, responses: any(
                r.version == evidence["swapped_to"]
                and r.status is ServeStatus.OK
                for r in responses
            ),
        )
    )


def _breaker_trip(policy, rng, scale):
    """The raising guard plus a hair-trigger threshold trips the
    tenant's breaker; recovery rides the half-open probe."""

    async def inject(server, fleet, programs):
        tenant = server.tenant("faulted")
        server.swap("faulted", _sabotaged_guardrail(programs[1], error=_DOWN))
        await fleet.drive(3, offset=5)  # enough failed flushes to trip
        times_opened = tenant.breaker.times_opened
        server.rollback("faulted")
        # Let the breaker reach half-open so the probe can close it.
        await asyncio.sleep(tenant.config.recovery_seconds * 1.5 + 0.01)
        return {"times_opened": times_opened}

    return asyncio.run(
        _load_fault(
            policy,
            inject,
            lambda evidence, _: evidence["times_opened"] >= 1,
            failure_threshold=2,
        )
    )


def _worker_kill(policy, rng, scale):
    """The tenant's batcher task is cancelled with a batch in hand; the
    batch resolves with typed ERRORs and supervision respawns it."""
    from ..serve import ServeStatus

    async def inject(server, fleet, programs):
        # A partial batch (smaller than max_batch) parks the batcher in
        # its accumulate wait; the cancel lands with that batch in hand.
        burst = [
            asyncio.ensure_future(server.check("faulted", fleet.rows[index]))
            for index in (1, 2)
        ]
        fleet.submitted += len(burst)
        await asyncio.sleep(0.005)
        server.kill_batcher("faulted")
        in_hand_errors = 0
        for index, response in zip((1, 2), await asyncio.gather(*burst)):
            fleet.log.append(("faulted", index, response, time.perf_counter()))
            in_hand_errors += response.status is ServeStatus.ERROR
        return {
            "restarts": server.tenant("faulted").metrics.batcher_restarts,
            "in_hand_errors": in_hand_errors,
        }

    return asyncio.run(
        _load_fault(
            policy,
            inject,
            lambda evidence, _: evidence["restarts"] >= 1
            and evidence["in_hand_errors"] >= 1,
            max_wait_ms=25.0,
        )
    )


# ---------------------------------------------------------------------------
# The overload family: four storms
# ---------------------------------------------------------------------------


def _storm(judge):
    """Make a storm class of ``judge(policy, scale)``: run it on a fresh
    event loop, and once more when it misses.

    Every storm judge is a wall-clock measurement (goodput, p95
    bounds, cool-down windows); one retry absorbs scheduler jitter on a
    loaded machine without masking regressions — a genuine conformance
    failure fails twice.
    """

    def run(policy, rng, scale):
        try:
            return asyncio.run(judge(policy, scale))
        except Nonconformant:
            return asyncio.run(judge(policy, scale))

    return run


@_storm
async def _overload_storm(policy, scale):
    """10x offered load against one tenant on a durable server."""
    from ..serve import GuardServer, TenantConfig
    from .durability import recover_runtime_state

    rows = _rows()
    config = TenantConfig(
        policy=policy,
        max_batch=8,
        max_wait_ms=2.0,
        queue_size=64,
        target_delay_ms=20.0,
        failure_threshold=10_000,
    )
    brownout = BrownoutConfig(
        step_down_after=2,
        cool_seconds=0.15,
        min_dwell_seconds=0.05,
        max_tier=2,
    )
    with tempfile.TemporaryDirectory() as state_dir:
        server = GuardServer(state_dir=state_dir, brownout=brownout)
        server.register("storm", _sabotaged_guardrail(delay_s=0.0025), config)
        async with server:
            calibration = _ClosedLoop(server, ("storm",), rows)
            start = time.perf_counter()
            await calibration.drive(6)
            calibrated_s = time.perf_counter() - start
            capacity = max(1.0, len(calibration.log) / calibrated_s)
            offered = 10.0 * capacity
            total = min(int(4000 * scale), max(64, int(offered * 0.5)))
            results, elapsed = await _open_loop(
                server, "storm", rows, total, total / offered
            )
            peak_tier = server.brownout.max_tier_seen
            recovered = await _cool_down(
                server, "storm", rows, bound_s=4.0 * scale + 1.0
            )
            # Pure-replay recovery, mid-run: fold the journal as a
            # crashed process would and demand the tier transitions
            # come back bit-identical to the live controller's record.
            live = [dict(t) for t in server.brownout.transitions]
            folded, _ = recover_runtime_state(state_dir)
            replay_identical = folded["brownout"]["transitions"] == live
    tally, lost = _tally(results)
    goodput_ratio = tally["completed"] / max(elapsed, 1e-9) / capacity
    measures = dict(
        tally,
        submitted=len(results),
        goodput_ratio=goodput_ratio,
        peak_tier=peak_tier,
        recovered=recovered,
        open_loop_s=elapsed,
    )
    if lost:
        raise Nonconformant(
            f"{len(lost)} request(s) lost (first: {lost[0]})", **measures
        )
    if tally["resolved"] != len(results):
        raise Nonconformant(
            "a submission vanished without a response", **measures
        )
    if goodput_ratio < 0.7:
        raise Nonconformant(
            f"goodput collapsed to {goodput_ratio:.0%} of capacity at 10x "
            f"load (bound: 70%)",
            **measures,
        )
    if peak_tier < 1:
        raise Nonconformant(
            "brownout never stepped down under the storm", **measures
        )
    if not recovered:
        raise Nonconformant(
            f"brownout stuck at tier {server.brownout.tier} after the "
            "storm cleared",
            **measures,
        )
    if not replay_identical:
        raise Nonconformant(
            "journaled brownout transitions did not replay bit-identically",
            **measures,
        )
    if tally["rejected"] == 0:
        raise Nonconformant(
            "10x load was never shed — storm did not land", **measures
        )
    return (
        f"{goodput_ratio:.0%} goodput at 10x ({capacity:.0f} rps "
        f"capacity), peak tier {peak_tier}, {tally['rejected']} shed, "
        f"tier restored, journal replay identical",
        measures,
    )


@_storm
async def _retry_storm(policy, scale):
    """A synchronized burst; judged on distinct honest retry hints."""
    from ..serve import GuardServer, ServeStatus, TenantConfig

    rows = _rows()
    config = TenantConfig(
        policy=policy,
        max_batch=4,
        max_wait_ms=20.0,
        queue_size=8,
        target_delay_ms=500.0,  # isolate queue-full from adaptive shed
        failure_threshold=10_000,
    )
    server = GuardServer()
    server.register("bursty", _sabotaged_guardrail(delay_s=0.005), config)
    burst = max(8, int(30 * scale))
    hints: list[float] = []
    retries: list[int] = []
    lost: list[str] = []
    completed = 0
    async with server:
        results = await asyncio.gather(
            *(
                server.check("bursty", rows[i % len(rows)])
                for i in range(burst)
            ),
            return_exceptions=True,
        )
        for i, result in enumerate(results):
            if not hasattr(result, "status"):
                lost.append(f"{type(result).__name__}: {result}")
            elif result.status is ServeStatus.REJECTED:
                hints.append(result.retry_after)
                retries.append(i)
            elif result.status is ServeStatus.OK:
                completed += 1

        # Every shed client honors its hint, then retries to
        # completion (closed loop) — the storm must fully drain.
        async def retry(i: int, hint: float) -> None:
            nonlocal completed
            await asyncio.sleep(min(hint, 0.1))
            while True:
                response = await server.check("bursty", rows[i % len(rows)])
                if response.status is ServeStatus.OK:
                    completed += 1
                    return
                await asyncio.sleep(min(response.retry_after or 0.005, 0.05))

        await asyncio.gather(*(retry(i, h) for i, h in zip(retries, hints)))
    measures = dict(
        submitted=burst,
        resolved=burst - len(lost),
        completed=completed,
        rejected=len(hints),
    )
    distinct = len({round(h, 9) for h in hints})
    if lost:
        raise Nonconformant(f"lost request(s): {lost[0]}", **measures)
    if len(hints) < 2:
        raise Nonconformant(
            f"burst of {burst} produced only {len(hints)} rejection(s) "
            "— the storm never overflowed the queue",
            **measures,
        )
    if min(hints) <= 0:
        raise Nonconformant("a retry hint was not positive", **measures)
    if max(hints) > 2.0:
        raise Nonconformant(
            f"retry hint {max(hints):.2f}s is not honest for an 8-deep "
            "queue",
            **measures,
        )
    if distinct != len(hints):
        raise Nonconformant(
            f"{len(hints)} simultaneous rejections shared hints "
            f"({distinct} distinct) — clients would retry in lockstep",
            **measures,
        )
    if completed != burst:
        raise Nonconformant(
            f"only {completed}/{burst} requests completed after retry",
            **measures,
        )
    return (
        f"{len(hints)} shed with {distinct} distinct jittered hints "
        f"(spread {min(hints) * 1000:.1f}-{max(hints) * 1000:.1f}ms), "
        f"all {burst} completed on retry",
        measures,
    )


@_storm
async def _noisy_neighbor(policy, scale):
    """One tenant floods; the polite tenant's latency must hold."""
    from ..serve import GuardServer, ServeStatus, TenantConfig

    rows = _rows()

    def config() -> TenantConfig:
        return TenantConfig(
            policy=policy,
            max_batch=4,
            max_wait_ms=2.0,
            queue_size=128,
            target_delay_ms=250.0,
            share=1.0,
            failure_threshold=10_000,
        )

    server = GuardServer(budget=16)
    server.register("polite", _sabotaged_guardrail(delay_s=0.001), config())
    # The noisy tenant's guard is 4x heavier, so its capacity
    # (~4 rows / 4ms) sits well below the flood's offered rate.
    server.register("noisy", _sabotaged_guardrail(delay_s=0.004), config())
    paced = max(10, int(30 * scale))

    async def paced_phase() -> list:
        latencies = []
        for k in range(paced):
            response = await server.check("polite", rows[k % len(rows)])
            if response.status is ServeStatus.OK:
                latencies.append(response.service_ms)
            else:
                latencies.append(float("inf"))  # shed = judged below
            await asyncio.sleep(0.008)
        return latencies

    async with server:
        unloaded = await paced_phase()
        # Offer ~3000 rps for the whole loaded paced phase — a few
        # multiples of the noisy tenant's capacity, so fair share
        # (not luck) is what protects the polite tenant.
        flood_duration = paced * 0.012
        flood_total = int(3000 * flood_duration)
        flood_task = asyncio.ensure_future(
            _open_loop(server, "noisy", rows, flood_total, flood_duration)
        )
        loaded = await paced_phase()
        flood_results, flood_s = await flood_task
    flood, lost = _tally(flood_results)
    p95_unloaded = _p95(unloaded)
    p95_loaded = _p95(loaded)
    bound = 2.0 * max(p95_unloaded, 15.0)  # 15 ms floor
    measures = dict(
        submitted=2 * paced + len(flood_results),
        resolved=2 * paced + flood["resolved"],
        completed=flood["completed"],
        rejected=flood["rejected"],
        # The open loop sends a fixed quota per tick, so a late tick
        # stretches the flood and lowers the rate it really offered.
        flood_s=flood_s,
        flood_rps=len(flood_results) / max(flood_s, 1e-9),
    )
    if lost:
        raise Nonconformant(f"flood lost request(s): {lost[0]}", **measures)
    if float("inf") in unloaded + loaded:
        raise Nonconformant(
            "a polite-tenant request was shed — fair share failed to "
            "protect the guaranteed slice",
            **measures,
        )
    if flood["rejected"] == 0:
        raise Nonconformant(
            "the flood was never shed — the noisy tenant was not "
            "actually limited",
            **measures,
        )
    if p95_loaded > bound:
        raise Nonconformant(
            f"polite p95 {p95_loaded:.1f}ms under flood vs "
            f"{p95_unloaded:.1f}ms unloaded — over the 2x bound "
            f"({bound:.1f}ms)",
            **measures,
        )
    return (
        f"polite p95 {p95_unloaded:.1f}ms -> {p95_loaded:.1f}ms under a "
        f"{flood_total}-request flood over {flood_s:.2f}s "
        f"({measures['flood_rps']:.0f} rps; bound {bound:.1f}ms); flood "
        f"shed {flood['rejected']}, zero polite sheds",
        measures,
    )


@_storm
async def _deadline_stampede(policy, scale):
    """Tight deadlines behind a deep backlog: shed, don't serve."""
    from ..serve import GuardServer, TenantConfig

    rows = _rows()
    counter = {"rows": 0}
    config = TenantConfig(
        policy=policy,
        max_batch=4,
        max_wait_ms=1.0,
        queue_size=512,
        target_delay_ms=10_000.0,  # isolate deadlines from admission
        failure_threshold=10_000,
    )
    server = GuardServer()
    server.register(
        "stampede",
        _sabotaged_guardrail(delay_s=0.004, counter=counter),
        config,
    )
    backlog_n = max(40, int(100 * scale))
    stampede_n = max(20, int(60 * scale))
    async with server:
        backlog = [
            asyncio.ensure_future(
                server.check("stampede", rows[i % len(rows)])
            )
            for i in range(backlog_n)
        ]
        await asyncio.sleep(0)  # let the backlog enqueue first
        stampede = [
            asyncio.ensure_future(
                server.check("stampede", rows[i % len(rows)], deadline_ms=25.0)
            )
            for i in range(stampede_n)
        ]
        results = await asyncio.gather(
            *backlog, *stampede, return_exceptions=True
        )
    tally, lost = _tally(results)
    measures = dict(tally, submitted=backlog_n + stampede_n)
    if lost:
        raise Nonconformant(f"lost request(s): {lost[0]}", **measures)
    if tally["resolved"] != measures["submitted"]:
        raise Nonconformant(
            "a submission vanished without a response", **measures
        )
    if tally["expired"] < stampede_n // 2:
        raise Nonconformant(
            f"only {tally['expired']} of {stampede_n} deadline requests "
            "expired behind the backlog — the stampede never stressed "
            "the deadline path",
            **measures,
        )
    if counter["rows"] != tally["completed"]:
        raise Nonconformant(
            f"guard vetted {counter['rows']} rows but only "
            f"{tally['completed']} requests completed — expired requests "
            "wasted guard work",
            **measures,
        )
    return (
        f"{tally['expired']} expired at dequeue with typed responses; "
        f"guard vetted exactly the {counter['rows']} completed rows "
        "(zero wasted work)",
        measures,
    )
