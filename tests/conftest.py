"""Shared fixtures for the GUARDRAIL test suite.

Also provides the suite's asyncio runner: ``async def`` tests are
collected normally, tagged with the ``asyncio`` marker, and executed
via :func:`asyncio.run` — no external pytest-asyncio dependency, so
the serve tests run from a clean checkout with stock pytest.
"""

from __future__ import annotations

import asyncio
import inspect
import sys

import numpy as np
import pytest

from repro.dsl import Branch, Condition, Program, Statement
from repro.pgm import DAG, random_sem
from repro.relation import Relation


def pytest_collection_modifyitems(items):
    """Tag every coroutine test with the ``asyncio`` marker."""
    for item in items:
        function = getattr(item, "function", None)
        if function is not None and inspect.iscoroutinefunction(function):
            item.add_marker(pytest.mark.asyncio)


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    """Run ``async def`` tests under a fresh event loop per test."""
    function = pyfuncitem.obj
    if not inspect.iscoroutinefunction(function):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(function(**kwargs))
    return True


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def city_relation() -> Relation:
    """The paper's running example: PostalCode -> City -> State -> Country."""
    rows = []
    mapping = {
        "94704": ("Berkeley", "CA", "USA"),
        "94720": ("Berkeley", "CA", "USA"),
        "10001": ("NewYork", "NY", "USA"),
        "10002": ("NewYork", "NY", "USA"),
        "73301": ("Austin", "TX", "USA"),
    }
    for postal, (city, state, country) in mapping.items():
        for _ in range(10):
            rows.append(
                {
                    "PostalCode": postal,
                    "City": city,
                    "State": state,
                    "Country": country,
                }
            )
    return Relation.from_rows(rows)


@pytest.fixture
def city_program() -> Program:
    """The ground-truth program for :func:`city_relation`."""
    postal_to_city = {
        "94704": "Berkeley",
        "94720": "Berkeley",
        "10001": "NewYork",
        "10002": "NewYork",
        "73301": "Austin",
    }
    city_to_state = {"Berkeley": "CA", "NewYork": "NY", "Austin": "TX"}
    state_to_country = {"CA": "USA", "NY": "USA", "TX": "USA"}

    def statement(dep: str, det: str, table: dict) -> Statement:
        branches = tuple(
            Branch(Condition.of(**{det: key}), dep, value)
            for key, value in table.items()
        )
        return Statement((det,), dep, branches)

    return Program(
        (
            statement("City", "PostalCode", postal_to_city),
            statement("State", "City", city_to_state),
            statement("Country", "State", state_to_country),
        )
    )


@pytest.fixture
def batch_sides(monkeypatch):
    """Both sides of ``Guard.check_batch``'s size dispatch, in turn.

    Iterating yields ``"probes"`` with the crossover
    (``repro.errors.stream._PROBE_MAX_ROWS``) raised so that every
    batch takes the per-row hash probes, then ``"kernel"`` with it at
    0 so that every non-empty batch takes the numpy kernel.  A test
    loops over it to pin a batch behaviour on both paths, whatever the
    sizes of its batches.
    """
    from repro.errors import stream

    def sides():
        for side, crossover in (("probes", sys.maxsize), ("kernel", 0)):
            monkeypatch.setattr(stream, "_PROBE_MAX_ROWS", crossover)
            yield side

    return sides()


@pytest.fixture
def chain_dag() -> DAG:
    """a -> b -> c with d -> b (one v-structure)."""
    return DAG(["a", "b", "c", "d"], [("a", "b"), ("d", "b"), ("b", "c")])


@pytest.fixture
def chain_relation(chain_dag, rng) -> Relation:
    sem = random_sem(chain_dag, cardinalities=3, determinism=0.99, rng=rng)
    return sem.sample(2000, rng)


@pytest.fixture
def chain_sem(chain_dag, rng):
    return random_sem(chain_dag, cardinalities=3, determinism=0.99, rng=rng)


@pytest.fixture(scope="session")
def chaos_matrix():
    """The chaos conformance matrix, one policy at a time.

    ``chaos_matrix(policy)`` maps every registered fault class to its
    outcome under ``policy`` (storms at scale 0.4).  Each policy's
    suite runs once per session and every chaos test file reads its
    cells, so the 23 x 4 matrix costs one run per cell.
    """
    from repro.resilience import FAMILIES, run_chaos_suite

    runs: dict = {}

    def outcomes(policy: str) -> dict:
        if policy not in runs:
            runs[policy] = {
                o.fault: o
                for o in run_chaos_suite(policy, families=FAMILIES, scale=0.4)
            }
        return runs[policy]

    return outcomes
