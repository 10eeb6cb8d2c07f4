"""Soak test: the acceptance workload for the serving layer.

Drives 4 tenants x 16 concurrent closed-loop clients through
:class:`repro.serve.GuardServer` with one hot-swap mid-run and one
deliberately under-provisioned tenant, then audits the run:

* every verdict is bit-identical to a direct serial
  ``Guard.check_batch`` reference for the guardrail version the
  response reports (no torn versions across the swap);
* zero dropped or duplicated requests — request ids are unique and
  every submitted request resolved exactly once;
* backpressure surfaces as typed ``REJECTED`` responses with a
  ``retry_after`` hint, never as an exception.
"""

import asyncio

import pytest

from repro.dsl import Branch, Condition, Program, Statement
from repro.errors import Guard
from repro.serve import GuardServer, ServeStatus, TenantConfig
from repro.synth import Guardrail

pytestmark = pytest.mark.serve

TENANTS = 4
CLIENTS = 16  # concurrent in-flight requests per tenant wave
REQUESTS_PER_CLIENT = 24


def _program(city: str) -> Program:
    branches = (
        Branch(Condition.of(PostalCode="94704"), "City", city),
        Branch(Condition.of(PostalCode="10001"), "City", "NewYork"),
    )
    return Program((Statement(("PostalCode",), "City", branches),))


def _rows(n: int) -> list[dict]:
    rows = []
    for i in range(n):
        postal = "94704" if i % 2 else "10001"
        city = ("Berkeley", "NewYork", "Austin")[i % 3]
        rows.append({"PostalCode": postal, "City": city, "i": str(i)})
    return rows


async def test_soak_four_tenants_hot_swap_mid_run():
    programs = {1: _program("Berkeley"), 2: _program("Oakland")}
    rows = _rows(CLIENTS * REQUESTS_PER_CLIENT)
    # Serial references, one per guardrail version, computed up front.
    references = {
        version: Guard(program).check_batch(rows)
        for version, program in programs.items()
    }

    server = GuardServer()
    names = [f"tenant-{i}" for i in range(TENANTS)]
    for index, name in enumerate(names):
        # The last tenant is under-provisioned so the soak exercises
        # typed backpressure alongside the happy path.
        queue_size = 8 if index == TENANTS - 1 else 1024
        server.register(
            name,
            Guardrail.from_program(programs[1]),
            TenantConfig(
                max_batch=16, max_wait_ms=1.0, queue_size=queue_size
            ),
        )

    results: dict[str, list] = {name: [] for name in names}
    rejections: dict[str, int] = {name: 0 for name in names}

    async def client(name: str, client_index: int) -> None:
        for j in range(REQUESTS_PER_CLIENT):
            row_index = client_index * REQUESTS_PER_CLIENT + j
            row = rows[row_index]
            response = await server.check(name, row)
            while response.status is ServeStatus.REJECTED:
                rejections[name] += 1
                assert response.retry_after > 0
                assert response.verdict is None
                await asyncio.sleep(min(response.retry_after, 0.01))
                response = await server.check(name, row)
            results[name].append((row_index, response))

    async def swap_mid_run() -> None:
        # Swap once half the traffic has completed under version 1.
        # Closed-loop clients cap in-flight work well below the other
        # half, so both versions are guaranteed to serve traffic.
        target = TENANTS * CLIENTS * REQUESTS_PER_CLIENT // 2
        while sum(len(done) for done in results.values()) < target:
            await asyncio.sleep(0.001)
        for name in names:
            assert server.swap(name, Guardrail.from_program(programs[2])) == 2

    async with server:
        await asyncio.gather(
            *(
                client(name, k)
                for name in names
                for k in range(CLIENTS)
            ),
            swap_mid_run(),
        )

    all_ids = []
    for name in names:
        completed = results[name]
        # Zero dropped: every client iteration produced a terminal
        # response; zero duplicated: each row index appears once.
        assert len(completed) == CLIENTS * REQUESTS_PER_CLIENT
        indices = [row_index for row_index, _ in completed]
        assert sorted(indices) == list(range(len(rows)))
        for row_index, response in completed:
            assert response.status is ServeStatus.OK
            assert not response.degraded
            # Bit-identical to the serial reference for the version
            # the response actually ran under — a torn snapshot would
            # pair version 2 with version 1's program (or vice versa)
            # and fail here on the swapped branch's rows.
            assert response.version in references
            assert response.verdict == references[response.version][row_index]
        all_ids.extend(response.request_id for _, response in completed)
        metrics = server.tenant(name).metrics
        assert metrics.completed == CLIENTS * REQUESTS_PER_CLIENT
        assert metrics.errors == 0
        assert metrics.rejected == rejections[name]
        assert metrics.swaps == 1

    # Request ids are globally unique across tenants (no duplication).
    assert len(set(all_ids)) == len(all_ids)

    # Both versions actually served traffic (the swap was mid-run)...
    versions_seen = {
        response.version
        for name in names
        for _, response in results[name]
    }
    assert versions_seen == {1, 2}
    # ...and the under-provisioned tenant actually hit backpressure.
    assert rejections[names[-1]] > 0


async def test_soak_drain_leaves_no_orphans():
    """After the soak's stop(), no admitted request is left pending
    and the queues are empty."""
    server = GuardServer()
    server.register(
        "a",
        Guardrail.from_program(_program("Berkeley")),
        TenantConfig(max_batch=8, max_wait_ms=5.0),
    )
    rows = _rows(64)
    await server.start()
    pending = [
        asyncio.ensure_future(server.check("a", row)) for row in rows
    ]
    await asyncio.sleep(0)
    await server.stop()
    responses = await asyncio.gather(*pending)
    assert all(r.status is ServeStatus.OK for r in responses)
    assert server.tenant("a").queue.qsize() == 0
