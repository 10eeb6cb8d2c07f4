"""Overload chaos: traffic storms against a live ``GuardServer``.

The chaos-under-load suite (:mod:`repro.resilience.chaos_load`)
injects *component* faults — a broken guard, a killed batcher — under
steady traffic.  This module injects the opposite failure family:
the components are healthy and the **traffic itself is the fault**.
Four storm classes drive the serve layer's overload pipeline
(:mod:`repro.resilience.overload`) to its limits and judge the
contract the ISSUE spells out:

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

Every class additionally demands **zero lost requests**: each
submission resolves with a typed :class:`~repro.serve.ServeResponse`,
never an exception, never a dangling future.  ``repro chaos
--overload`` is the command-line entry point; the suite runs under
every :class:`~repro.resilience.GuardPolicy` because overload
shedding must be orthogonal to guard degradation.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass

from .chaos_load import _load_rows, _programs
from .overload import BrownoutConfig
from .policy import GuardPolicy

OVERLOAD_FAULT_CLASSES = (
    "overload_storm",
    "retry_storm",
    "noisy_neighbor",
    "deadline_stampede",
)
"""Every storm class the overload suite can inject, in suite order."""


@dataclass
class OverloadOutcome:
    """Verdict on one storm class driven against a live server."""

    fault: str
    policy: GuardPolicy
    conformant: bool
    detail: str
    submitted: int = 0
    resolved: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    goodput_ratio: float = 0.0
    peak_tier: int = 0
    recovered: bool = False


# ---------------------------------------------------------------------------
# Fixture: a deliberately slow (but correct) guardrail
# ---------------------------------------------------------------------------


def _slow_guardrail(program, delay_s: float, counter: dict):
    """A real :class:`~repro.synth.Guardrail` whose guards are correct
    but slow: every guard call sleeps ``delay_s`` and counts the rows
    it actually vetted into ``counter``.  The sleep makes capacity
    small and measurable (so a storm is cheap to mount); the counter
    is the wasted-work evidence ``deadline_stampede`` judges —
    expired requests must never reach the guard."""
    from ..synth import Guardrail

    class _SlowGuard:
        """Delegates verdicts to the real guard, slowly."""

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
        """Validates as a guardrail; serves only slowed guards."""

        def guard(self):
            return _SlowGuard(super().guard())

    return _SlowServeGuardrail.from_program(program)


# ---------------------------------------------------------------------------
# Traffic drivers
# ---------------------------------------------------------------------------


async def _closed_loop(
    server, tenant: str, rows, clients: int, requests: int
) -> tuple[list, float]:
    """Closed-loop calibration traffic; returns (responses, elapsed)."""
    from ..serve import ServeStatus

    responses = []

    async def client(cid: int) -> None:
        for k in range(requests):
            row = rows[(cid * 31 + k * 7) % len(rows)]
            while True:
                response = await server.check(tenant, row)
                if response.status is ServeStatus.REJECTED:
                    await asyncio.sleep(
                        min(response.retry_after or 0.001, 0.01)
                    )
                    continue
                responses.append(response)
                return_ = True
                break
            assert return_

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    return responses, time.perf_counter() - start


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


async def _cool_down(
    server, tenant: str, rows, bound_s: float
) -> bool:
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


def _tally(results) -> dict:
    """Split settled results into typed-response counts and losses."""
    from ..serve import ServeResponse, ServeStatus

    tally = {
        "resolved": 0,
        "completed": 0,
        "rejected": 0,
        "expired": 0,
        "errors": 0,
        "lost": [],
    }
    for result in results:
        if isinstance(result, ServeResponse):
            tally["resolved"] += 1
            if result.status is ServeStatus.OK:
                tally["completed"] += 1
            elif result.status is ServeStatus.REJECTED:
                tally["rejected"] += 1
            elif result.status is ServeStatus.EXPIRED:
                tally["expired"] += 1
            else:
                tally["errors"] += 1
        else:
            tally["lost"].append(f"{type(result).__name__}: {result}")
    return tally


def _p95(values: list) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(0.95 * (len(ordered) - 1) + 0.5))
    return ordered[index]


# ---------------------------------------------------------------------------
# The four storm classes
# ---------------------------------------------------------------------------


async def _run_overload_storm(
    policy: GuardPolicy, scale: float
) -> OverloadOutcome:
    """10x offered load against one tenant on a durable server."""
    from ..resilience.durability import recover_runtime_state
    from ..serve import GuardServer, TenantConfig

    program = _programs()[1]
    rows = _load_rows()
    counter = {"rows": 0}
    guardrail = _slow_guardrail(program, 0.0025, counter)
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
        server.register("storm", guardrail, config)
        async with server:
            calibration, calibrated_s = await _closed_loop(
                server, "storm", rows, clients=8, requests=6
            )
            capacity = max(1.0, len(calibration) / calibrated_s)
            offered = 10.0 * capacity
            total = min(int(4000 * scale), max(64, int(offered * 0.5)))
            duration = total / offered
            results, elapsed = await _open_loop(
                server, "storm", rows, total, duration
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
            replay_identical = (
                folded["brownout"]["transitions"] == live
            )
    tally = _tally(results)
    goodput = tally["completed"] / max(elapsed, 1e-9)
    outcome = OverloadOutcome(
        "overload_storm",
        policy,
        False,
        "",
        submitted=len(results),
        resolved=tally["resolved"],
        completed=tally["completed"],
        rejected=tally["rejected"],
        expired=tally["expired"],
        goodput_ratio=goodput / capacity,
        peak_tier=peak_tier,
        recovered=recovered,
    )
    if tally["lost"]:
        outcome.detail = (
            f"{len(tally['lost'])} request(s) lost (first: "
            f"{tally['lost'][0]})"
        )
    elif tally["resolved"] != len(results):
        outcome.detail = "a submission vanished without a response"
    elif outcome.goodput_ratio < 0.7:
        outcome.detail = (
            f"goodput collapsed to {outcome.goodput_ratio:.0%} of "
            f"capacity at 10x load (bound: 70%)"
        )
    elif peak_tier < 1:
        outcome.detail = "brownout never stepped down under the storm"
    elif not recovered:
        outcome.detail = (
            f"brownout stuck at tier {server.brownout.tier} after the "
            "storm cleared"
        )
    elif not replay_identical:
        outcome.detail = (
            "journaled brownout transitions did not replay "
            "bit-identically"
        )
    elif tally["rejected"] == 0:
        outcome.detail = "10x load was never shed — storm did not land"
    else:
        outcome.conformant = True
        outcome.detail = (
            f"{outcome.goodput_ratio:.0%} goodput at 10x "
            f"({capacity:.0f} rps capacity), peak tier {peak_tier}, "
            f"{tally['rejected']} shed, tier restored, journal "
            f"replay identical"
        )
    return outcome


async def _run_retry_storm(
    policy: GuardPolicy, scale: float
) -> OverloadOutcome:
    """A synchronized burst; judged on distinct honest retry hints."""
    from ..serve import GuardServer, ServeStatus, TenantConfig

    program = _programs()[1]
    rows = _load_rows()
    counter = {"rows": 0}
    guardrail = _slow_guardrail(program, 0.005, counter)
    config = TenantConfig(
        policy=policy,
        max_batch=4,
        max_wait_ms=20.0,
        queue_size=8,
        target_delay_ms=500.0,  # isolate queue-full from adaptive shed
        failure_threshold=10_000,
    )
    server = GuardServer()
    server.register("bursty", guardrail, config)
    burst = max(8, int(30 * scale))
    hints: list[float] = []
    lost: list[str] = []
    completed = 0
    async with server:
        futures = [
            asyncio.ensure_future(
                server.check("bursty", rows[i % len(rows)])
            )
            for i in range(burst)
        ]
        results = await asyncio.gather(*futures, return_exceptions=True)
        retries = []
        for i, result in enumerate(results):
            if not hasattr(result, "status"):
                lost.append(f"{type(result).__name__}: {result}")
                continue
            if result.status is ServeStatus.REJECTED:
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
                response = await server.check(
                    "bursty", rows[i % len(rows)]
                )
                if response.status is ServeStatus.OK:
                    completed += 1
                    return
                await asyncio.sleep(
                    min(response.retry_after or 0.005, 0.05)
                )

        await asyncio.gather(
            *(retry(i, h) for i, h in zip(retries, hints))
        )
    outcome = OverloadOutcome(
        "retry_storm",
        policy,
        False,
        "",
        submitted=burst,
        resolved=burst - len(lost),
        completed=completed,
        rejected=len(hints),
    )
    distinct = len({round(h, 9) for h in hints})
    if lost:
        outcome.detail = f"lost request(s): {lost[0]}"
    elif len(hints) < 2:
        outcome.detail = (
            f"burst of {burst} produced only {len(hints)} rejection(s) "
            "— the storm never overflowed the queue"
        )
    elif min(hints) <= 0:
        outcome.detail = "a retry hint was not positive"
    elif max(hints) > 2.0:
        outcome.detail = (
            f"retry hint {max(hints):.2f}s is not honest for an "
            "8-deep queue"
        )
    elif distinct != len(hints):
        outcome.detail = (
            f"{len(hints)} simultaneous rejections shared hints "
            f"({distinct} distinct) — clients would retry in lockstep"
        )
    elif completed != burst:
        outcome.detail = (
            f"only {completed}/{burst} requests completed after retry"
        )
    else:
        outcome.conformant = True
        outcome.detail = (
            f"{len(hints)} shed with {distinct} distinct jittered "
            f"hints (spread {min(hints) * 1000:.1f}-"
            f"{max(hints) * 1000:.1f}ms), all {burst} completed on "
            "retry"
        )
    return outcome


async def _run_noisy_neighbor(
    policy: GuardPolicy, scale: float
) -> OverloadOutcome:
    """One tenant floods; the polite tenant's latency must hold."""
    from ..serve import GuardServer, ServeStatus, TenantConfig

    program = _programs()[1]
    rows = _load_rows()
    counter = {"rows": 0}

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
    server.register(
        "polite", _slow_guardrail(program, 0.001, counter), config()
    )
    # The noisy tenant's guard is 4x heavier, so its capacity
    # (~4 rows / 4ms) sits well below the flood's offered rate.
    server.register(
        "noisy", _slow_guardrail(program, 0.004, counter), config()
    )
    paced = max(10, int(30 * scale))

    async def paced_phase() -> list:
        latencies = []
        for k in range(paced):
            response = await server.check(
                "polite", rows[k % len(rows)]
            )
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
            _open_loop(
                server, "noisy", rows, flood_total, flood_duration
            )
        )
        loaded = await paced_phase()
        flood_results, _ = await flood_task
    flood = _tally(flood_results)
    p95_unloaded = _p95(unloaded)
    p95_loaded = _p95(loaded)
    floor_ms = 15.0
    bound = 2.0 * max(p95_unloaded, floor_ms)
    outcome = OverloadOutcome(
        "noisy_neighbor",
        policy,
        False,
        "",
        submitted=2 * paced + len(flood_results),
        resolved=2 * paced + flood["resolved"],
        completed=flood["completed"],
        rejected=flood["rejected"],
    )
    if flood["lost"]:
        outcome.detail = f"flood lost request(s): {flood['lost'][0]}"
    elif any(v == float("inf") for v in unloaded + loaded):
        outcome.detail = (
            "a polite-tenant request was shed — fair share failed to "
            "protect the guaranteed slice"
        )
    elif flood["rejected"] == 0:
        outcome.detail = (
            "the flood was never shed — the noisy tenant was not "
            "actually limited"
        )
    elif p95_loaded > bound:
        outcome.detail = (
            f"polite p95 {p95_loaded:.1f}ms under flood vs "
            f"{p95_unloaded:.1f}ms unloaded — over the 2x bound "
            f"({bound:.1f}ms)"
        )
    else:
        outcome.conformant = True
        outcome.detail = (
            f"polite p95 {p95_unloaded:.1f}ms -> {p95_loaded:.1f}ms "
            f"under a {flood_total}-request flood (bound {bound:.1f}ms); "
            f"flood shed {flood['rejected']}, zero polite sheds"
        )
    return outcome


async def _run_deadline_stampede(
    policy: GuardPolicy, scale: float
) -> OverloadOutcome:
    """Tight deadlines behind a deep backlog: shed, don't serve."""
    from ..serve import GuardServer, TenantConfig

    program = _programs()[1]
    rows = _load_rows()
    counter = {"rows": 0}
    guardrail = _slow_guardrail(program, 0.004, counter)
    config = TenantConfig(
        policy=policy,
        max_batch=4,
        max_wait_ms=1.0,
        queue_size=512,
        target_delay_ms=10_000.0,  # isolate deadlines from admission
        failure_threshold=10_000,
    )
    server = GuardServer()
    server.register("stampede", guardrail, config)
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
                server.check(
                    "stampede",
                    rows[i % len(rows)],
                    deadline_ms=25.0,
                )
            )
            for i in range(stampede_n)
        ]
        results = await asyncio.gather(
            *backlog, *stampede, return_exceptions=True
        )
    tally = _tally(results)
    guard_rows = counter["rows"]
    outcome = OverloadOutcome(
        "deadline_stampede",
        policy,
        False,
        "",
        submitted=backlog_n + stampede_n,
        resolved=tally["resolved"],
        completed=tally["completed"],
        rejected=tally["rejected"],
        expired=tally["expired"],
    )
    if tally["lost"]:
        outcome.detail = f"lost request(s): {tally['lost'][0]}"
    elif tally["resolved"] != outcome.submitted:
        outcome.detail = "a submission vanished without a response"
    elif tally["expired"] < stampede_n // 2:
        outcome.detail = (
            f"only {tally['expired']} of {stampede_n} deadline "
            "requests expired behind the backlog — the stampede "
            "never stressed the deadline path"
        )
    elif guard_rows != tally["completed"]:
        outcome.detail = (
            f"guard vetted {guard_rows} rows but only "
            f"{tally['completed']} requests completed — expired "
            "requests wasted guard work"
        )
    else:
        outcome.conformant = True
        outcome.detail = (
            f"{tally['expired']} expired at dequeue with typed "
            f"responses; guard vetted exactly the {guard_rows} "
            "completed rows (zero wasted work)"
        )
    return outcome


_INJECTORS = {
    "overload_storm": _run_overload_storm,
    "retry_storm": _run_retry_storm,
    "noisy_neighbor": _run_noisy_neighbor,
    "deadline_stampede": _run_deadline_stampede,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_overload_fault(
    fault: str,
    policy: "GuardPolicy | str",
    scale: float = 1.0,
) -> OverloadOutcome:
    """Mount one storm class against a fresh server; judge the outcome.

    ``scale`` shrinks (or grows) the storm's request volume and
    patience bounds proportionally — 1.0 is the CLI default; tests
    use a smaller scale for a faster smoke matrix.
    """
    if fault not in _INJECTORS:
        raise ValueError(
            f"unknown overload fault class {fault!r}; choose from "
            + ", ".join(OVERLOAD_FAULT_CLASSES)
        )
    resolved = GuardPolicy.parse(policy)
    outcome = asyncio.run(_INJECTORS[fault](resolved, scale))
    if not outcome.conformant:
        # Every storm judge is a wall-clock measurement (goodput,
        # p95 bounds, cool-down windows); one retry absorbs scheduler
        # jitter on a loaded machine without masking regressions — a
        # genuine conformance failure fails twice.
        outcome = asyncio.run(_INJECTORS[fault](resolved, scale))
    return outcome


def run_overload_suite(
    policy: "GuardPolicy | str" = GuardPolicy.WARN,
    faults: tuple = OVERLOAD_FAULT_CLASSES,
    scale: float = 1.0,
) -> list[OverloadOutcome]:
    """Run every overload storm class under ``policy``."""
    return [
        run_overload_fault(fault, policy, scale=scale)
        for fault in faults
    ]


def render_overload_report(outcomes: list) -> str:
    """Plain-text table of overload outcomes (the CLI's output)."""
    width = max((len(o.fault) for o in outcomes), default=5)
    policy = outcomes[0].policy.value if outcomes else "?"
    lines = [f"overload chaos suite under policy {policy}:"]
    for outcome in outcomes:
        mark = "PASS" if outcome.conformant else "FAIL"
        lines.append(
            f"  {mark}  {outcome.fault.ljust(width)}  {outcome.detail}"
        )
    conformant = sum(o.conformant for o in outcomes)
    lines.append(
        f"{conformant}/{len(outcomes)} storm classes shed conformantly"
    )
    return "\n".join(lines)
