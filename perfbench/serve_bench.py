"""The two serve workloads: closed-loop capacity and open-loop mixed traffic.

Both drive :class:`repro.serve.GuardServer` with the 6-attribute chain
guardrail of ``benchmarks/test_serve_latency.py`` (fixed SEM seed 7).
The run's seed picks which pool rows are corrupted (2%, one wrong
in-domain value each), the request order and, in the open loop, the
arrival schedule, tenant and request kind of every request.

Every response is checked after the timed window against the
interpreter of :mod:`repro.dsl.semantics`, using the program of the
version stamped on the response.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time

import numpy as np

from common import OUT_DIR, Outcome, repeat_setup
from loadgen import Columns, closed_loop, open_loop
from repro.dsl import Program, row_conforms
from repro.pgm import DAG, random_sem, sem_to_program
from repro.resilience.overload import STEADY_CLOCK
from repro.serve import GuardServer, ServeStatus, TenantConfig
from repro.synth import Guardrail

TENANTS = 4
CLIENTS_PER_TENANT = 16
POOL_ROWS = 4096
CORRUPT_RATE = 0.02
CONFIG = TenantConfig(max_batch=64, max_wait_ms=2.0)
"""The configuration of ``benchmarks/test_serve_latency.py``."""
CLOSED_CONFIG = TenantConfig(max_batch=CLIENTS_PER_TENANT, max_wait_ms=50.0)
"""Closed-loop batching: each tenant's clients flush together as one
batch of 16, and the timer never fires first.  Under the 2 ms timer of
``CONFIG`` every batch is cut by the timer, and the loop falls into
timer-aligned regimes whose switching moved throughput and p50 by 15-40%
between identical runs; this way the loop is paced by the CPU alone."""

OPEN_RATE = 3000.0
"""Offered open-loop load, about a fifth of closed-loop capacity."""
OPEN_MIX = (0.8, 0.1, 0.1)
"""Shares of check, rectify and blocking predict requests."""
SWAP_EVERY_S = 1.0

CHECK, RECTIFY, PREDICT = 0, 1, 2
KIND_NAMES = ("check", "rectify", "predict")
NAMES = tuple(f"tenant-{i}" for i in range(TENANTS))


def chain_program():
    """The chain guardrail's program and the clean rows it was built from."""
    rng = np.random.default_rng(7)
    names = [f"a{i}" for i in range(6)]
    dag = DAG(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])
    sem = random_sem(dag, cardinalities=4, determinism=1.0, rng=rng)
    relation = sem.sample(POOL_ROWS, rng)
    return sem_to_program(sem, relation), relation


def request_pool(relation, seed: int):
    """Rows to send (a seeded 2% corrupted) and a seeded sending order."""
    rng = np.random.default_rng([seed, 11])
    pool = relation.to_rows()
    names = relation.names
    for index in np.nonzero(rng.random(len(pool)) < CORRUPT_RATE)[0]:
        name = names[rng.integers(len(names))]
        row = pool[index]
        choices = [v for v in relation.codec(name).values if v != row[name]]
        row[name] = choices[rng.integers(len(choices))]
    return pool, rng.permutation(len(pool)).tolist()


def predictor(row):
    """The trivial model behind predict requests."""
    return row["a5"]


class _Responses:
    """Every response's checkable content, in preallocated columns.

    :meth:`note` runs as the load generator's ``settle``, after the
    request's latency was taken.
    """

    def __init__(self, pool):
        self.pool = pool
        self.columns = Columns(
            idx=np.int32,
            tenant=np.int8,
            kind=np.int8,
            ok=np.int8,
            version=np.int32,
            verdict=np.int8,
            gated=np.int8,
            prediction_ok=np.int8,
        )
        self.repaired: dict[int, dict] = {}
        self.programs: dict[tuple[int, int], Program] = {}
        """(tenant, version) -> the program that version enforces."""

    def note(self, response, idx: int, tenant: int, kind: int) -> bool:
        verdict = response.verdict
        slot = self.columns.append(
            idx=idx,
            tenant=tenant,
            kind=kind,
            ok=response.ok,
            version=response.version,
            verdict=-1 if verdict is None else verdict.ok,
            gated=response.gated,
            prediction_ok=kind == PREDICT
            and response.prediction == predictor(self.pool[idx]),
        )
        if kind == RECTIFY and response.ok:
            self.repaired[slot] = response.row
        return response.ok

    def check(self) -> list[str]:
        """Compare every OK response with the interpreter's verdict."""
        cache: dict[tuple[int, int], bool] = {}

        def conforms(program, idx):
            key = (id(program), idx)
            if key not in cache:
                cache[key] = row_conforms(program, self.pool[idx])
            return cache[key]

        cols = self.columns.as_lists()
        bad: list[str] = []
        for slot in range(self.columns.n):
            if not cols["ok"][slot]:
                continue
            idx, tenant, kind = cols["idx"][slot], cols["tenant"][slot], cols["kind"][slot]
            where = f"{KIND_NAMES[kind]} #{slot} {NAMES[tenant]} row {idx}"
            program = self.programs.get((tenant, cols["version"][slot]))
            if program is None:
                bad.append(f"{where}: unknown version {cols['version'][slot]}")
                continue
            if kind == RECTIFY:
                repaired = self.repaired[slot]
                if not row_conforms(program, repaired):
                    bad.append(f"{where}: rectified row does not conform")
                elif conforms(program, idx) and dict(repaired) != self.pool[idx]:
                    bad.append(f"{where}: a conforming row was changed")
                continue
            expected = conforms(program, idx)
            if cols["verdict"][slot] != expected:
                bad.append(f"{where}: verdict ok={bool(cols['verdict'][slot])}, oracle {expected}")
            elif kind == PREDICT:
                if cols["gated"][slot] != (not expected):
                    bad.append(f"{where}: gated={bool(cols['gated'][slot])} with verdict ok={expected}")
                elif expected and not cols["prediction_ok"][slot]:
                    bad.append(f"{where}: wrong prediction")
        return bad


def _instrument(tracer) -> dict:
    """Wrap the request path's layer boundaries; returns flush end times."""
    from repro.dsl.compiled import CompiledProgram
    from repro.errors import BatchGuard, RowGuard
    from repro.resilience import (
        GuardrailVersions,
        LiveBatchGuard,
        LiveRowGuard,
        QuarantineBuffer,
        ResilientBatchGuard,
        ResilientRowGuard,
    )
    from repro.resilience.durability import DurableStateStore
    from repro.serve import Tenant

    flush_end: dict[int, float] = {}
    extra = tracer.extra

    def before_flush(args):
        batch = args[1]
        now = STEADY_CLOCK.monotonic()
        extra["flushes"] += 1
        extra["flush_rows"] += len(batch)
        extra["queue_wait_s"] += sum(now - pending.enqueued_at for pending in batch)

    def after_flush(args):
        now = time.perf_counter()
        for pending in args[1]:
            flush_end[pending.request_id] = now

    tracer.wrap(Tenant, "admit", "serve.admit")
    tracer.wrap(Tenant, "flush", "serve.flush", before_flush, after_flush)
    tracer.wrap(ResilientBatchGuard, "check_batch", "resilience.policy")
    tracer.wrap(LiveBatchGuard, "check_batch", "resilience.live")
    tracer.wrap(ResilientRowGuard, "rectify", "resilience.policy_rectify")
    tracer.wrap(LiveRowGuard, "rectify", "resilience.live_rectify")
    tracer.wrap(QuarantineBuffer, "push", "resilience.quarantine_push")
    tracer.wrap(DurableStateStore, "append", "resilience.journal_append")
    tracer.wrap(GuardrailVersions, "swap", "resilience.swap")
    tracer.wrap(BatchGuard, "check_batch", "errors.batch_check")
    tracer.wrap(RowGuard, "rectify", "errors.rectify")
    tracer.wrap(CompiledProgram, "run_codes", "dsl.run_codes")
    return flush_end


def _settle(tracer, flush_end: dict, responses: "_Responses"):
    """The load generator's ``settle`` for ``(response, idx, tenant, kind)``.

    In a traced run it first charges the time from the request's flush
    to this call, which runs as soon as the caller has resumed.
    """

    def settle(outcome) -> bool:
        response = outcome[0]
        ended = flush_end.pop(response.request_id, None)
        if ended is not None and tracer.on:
            tracer.extra["respond_s"] += time.perf_counter() - ended
        return responses.note(*outcome)

    return settle


def _facts(server, responses) -> dict:
    metrics = [server.tenant(name).metrics for name in NAMES]
    batches = sum(m.batches for m in metrics)
    return {
        "batch_fill": sum(m.rows_flushed for m in metrics) / max(batches, 1),
        "responses_checked": responses.columns.n,
        "tripped": int(np.count_nonzero(responses.columns["verdict"] == 0)),
        "swaps": sum(m.swaps for m in metrics),
        "journal_records": server.store.last_seq if server.store else 0,
    }


def serve_closed(seconds, seed, tracer, make_guardrail=Guardrail.from_program):
    """4 tenants x 16 closed-loop clients sending ``check``."""

    def build():
        program, relation = chain_program()
        server = GuardServer()
        for name in NAMES:
            server.register(name, make_guardrail(program), CLOSED_CONFIG)
        return program, relation, server

    (program, relation, server), setups = repeat_setup(build)
    pool, order = request_pool(relation, seed)
    responses = _Responses(pool)
    for tenant in range(TENANTS):
        responses.programs[(tenant, 1)] = program
    flush_end = _instrument(tracer) if tracer.enabled else {}
    settle = _settle(tracer, flush_end, responses)

    async def op(seq, client):
        tenant = client % TENANTS
        idx = order[seq % len(order)]
        response = await server.check(NAMES[tenant], pool[idx])
        while response.status is ServeStatus.REJECTED:
            await asyncio.sleep(response.retry_after)
            response = await server.check(NAMES[tenant], pool[idx])
        return response, idx, tenant, CHECK

    async def drive():
        clients = TENANTS * CLIENTS_PER_TENANT
        async with server:
            warm = await closed_loop(
                op, clients, min(2.0, seconds / 5), "warmup", settle=settle
            )
            tracer.start()
            measured = await closed_loop(
                op, clients, seconds, settle=settle, traced=tracer.enabled
            )
            tracer.stop()
        return [warm, measured]

    phases = asyncio.run(drive())
    setups += repeat_setup(build)[1]
    return Outcome(setups, phases, responses.check(), _facts(server, responses))


def serve_open_mixed(seconds, seed, tracer, make_guardrail=Guardrail.from_program):
    """Poisson arrivals at 3000 req/s over 4 tenants of a durable server:
    80% check, 10% rectify, 10% blocking predict, with tenant-0
    hot-swapping between two program versions every second."""
    OUT_DIR.mkdir(exist_ok=True)
    state_dirs: list[str] = []

    def build():
        program, relation = chain_program()
        programs = (program, Program(program.statements[:-1]))
        state_dirs.append(tempfile.mkdtemp(prefix="state-", dir=OUT_DIR))
        server = GuardServer(state_dir=state_dirs[-1])
        guardrails = tuple(make_guardrail(program) for program in programs)
        for name in NAMES:
            server.register(name, guardrails[0], CONFIG, predictor=predictor)
        return programs, relation, guardrails, server

    try:
        (programs, relation, guardrails, server), setups = repeat_setup(build)
        pool, order = request_pool(relation, seed)
        responses = _Responses(pool)
        for tenant in range(TENANTS):
            responses.programs[(tenant, 1)] = programs[0]
        flush_end = _instrument(tracer) if tracer.enabled else {}
        settle = _settle(tracer, flush_end, responses)
        schedule = np.random.default_rng([seed, 23])
        size = int(OPEN_RATE * (seconds + 2) * 1.5) + 1024
        tenant_of = schedule.integers(0, TENANTS, size=size).tolist()
        kind_of = schedule.choice(3, p=OPEN_MIX, size=size).tolist()
        calls = (server.check, server.rectify, server.predict)

        async def op(seq):
            tenant, kind = tenant_of[seq % size], kind_of[seq % size]
            idx = order[seq % len(order)]
            return await calls[kind](NAMES[tenant], pool[idx]), idx, tenant, kind

        async def swapper():
            flip = 1
            while True:
                await asyncio.sleep(SWAP_EVERY_S)
                version = server.swap(NAMES[0], guardrails[flip])
                responses.programs[(0, version)] = programs[flip]
                flip ^= 1

        async def drive():
            async with server:
                swaps = asyncio.ensure_future(swapper())
                try:
                    warm = await open_loop(
                        op,
                        OPEN_RATE,
                        min(1.0, seconds / 5),
                        np.random.default_rng([seed, 24]),
                        "warmup",
                        settle=settle,
                    )
                    tracer.start()
                    measured = await open_loop(
                        op,
                        OPEN_RATE,
                        seconds,
                        np.random.default_rng([seed, 25]),
                        settle=settle,
                        traced=tracer.enabled,
                    )
                    tracer.stop()
                finally:
                    swaps.cancel()
                    await asyncio.gather(swaps, return_exceptions=True)
            return [warm, measured]

        phases = asyncio.run(drive())
        setups += repeat_setup(build)[1]
        return Outcome(
            setups, phases, responses.check(), _facts(server, responses), host_bound=False
        )
    finally:
        for path in state_dirs:
            shutil.rmtree(path, ignore_errors=True)
