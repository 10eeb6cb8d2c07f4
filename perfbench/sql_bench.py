"""The guarded-SQL workload: the paper's deployment path (Table 6).

An Adult twin (20000 rows) is split in half; the first half trains a
synthesized guardrail and an :class:`~repro.ml.AutoModel`.  Each
operation runs the Table-6 query ``SELECT PREDICT(m) ... GROUP BY``
with the ``rectify`` strategy over a fresh 1024-row chunk of the second
half carrying 1% injected errors.  The chunk is built and installed as
``executor.catalog["t"]`` before the query's clock starts, and is a new
relation every time, so detection never hits a cache.  Repair and
inference dominate; ``repro.serve`` does nothing here.

The seed picks the chunks and their errors.  After the window every
query's ``rows_flagged`` is compared with the interpreter's count on its
chunk; the guardrail's program and, for pinned seeds, the results of the
first queries are compared with ``pins.json``.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial

import numpy as np

from common import Outcome, repeat_setup
from loadgen import Columns, closed_loop
from repro.datasets import load, queries_for
from repro.dsl import format_program, row_conforms
from repro.errors import inject_errors
from repro.ml import AutoModel
from repro.sql import QueryExecutor
from repro.synth import Guardrail
from synth_bench import CONFIG, digest

ADULT_ROWS = 20000
CHUNK_ROWS = 1024
ERROR_RATE = 0.01
PINNED_QUERIES = 8
"""Queries whose results are pinned per seed (every run makes at least these)."""
CAPACITY = 1 << 14
"""Rows preallocated for per-query results (about 70 queries a second)."""


def build(make_guardrail=None):
    """Fit the guardrail and model; returns what the queries need."""
    dataset = load("Adult", n_rows=ADULT_ROWS)
    train, test = dataset.relation.split(0.5, np.random.default_rng(7))
    fitted = Guardrail(CONFIG).fit(train)
    model = AutoModel(seed=7).fit(train, dataset.target)
    guardrail = make_guardrail(fitted.program) if make_guardrail else fitted
    executor = QueryExecutor(
        {"t": test}, {"m": model}, guardrail=guardrail, strategy="rectify"
    )
    return fitted.program, test, executor, queries_for(dataset)[0].sql


WARMUP, MEASURE = 0, 1
"""Chunk streams: warm-up chunks never equal measured ones, since equal
chunks would share codecs and so compiled programs."""


def chunk(test, seed: int, stream: int, index: int):
    """Chunk ``index`` of a stream: sampled rows of ``test`` with injected errors."""
    rng = np.random.default_rng([seed, 41, stream, index])
    rows = np.sort(rng.choice(test.n_rows, CHUNK_ROWS, replace=False))
    errors = round(CHUNK_ROWS * ERROR_RATE)
    return inject_errors(test.take(rows), rng=rng, n_errors=errors).relation


def flagged_by_interpreter(program, relation, memo: dict) -> int:
    """Rows of ``relation`` that the interpreter says violate ``program``.

    Only the program's attributes decide a verdict, so rows are
    de-duplicated on those before the interpreter runs.
    """
    names = sorted(program.attributes())
    codes, inverse = np.unique(
        relation.codes_matrix(names), axis=0, return_inverse=True
    )
    codecs = [relation.codec(name) for name in names]
    violating = np.zeros(len(codes), dtype=bool)
    for position, row_codes in enumerate(codes.tolist()):
        key = tuple(codec.decode_one(code) for codec, code in zip(codecs, row_codes))
        if key not in memo:
            memo[key] = not row_conforms(program, dict(zip(names, key)))
        violating[position] = memo[key]
    return int(np.count_nonzero(violating[inverse.reshape(-1)]))


def results_digest(results) -> str:
    """sha256 over the result rows of a sequence of queries."""
    return digest(json.dumps([[r.names, r.rows] for r in results], default=str))


def sql_ingest(seconds, seed, tracer, pins=None, make_guardrail=None):
    """The Table-6 query over fresh error-injected chunks until the window closes."""
    (program, test, executor, query), setups = repeat_setup(lambda: build(make_guardrail))
    if tracer.enabled:
        tracer.wrap(QueryExecutor, "execute", "sql.execute")
    queries = Columns(
        CAPACITY,
        stream=np.int8,
        index=np.int64,
        flagged=np.int64,
        guard_ms=np.float64,
        inference_ms=np.float64,
        other_ms=np.float64,
    )
    first_results = []

    def install(stream, index):
        executor.catalog["t"] = chunk(test, seed, stream, index)
        return stream, index

    async def op(chunk_id, client):
        return chunk_id, executor.execute(query), executor.last_metrics

    def settle(outcome) -> bool:
        (stream, index), result, metrics = outcome
        queries.append(
            stream=stream,
            index=index,
            flagged=metrics.rows_flagged,
            guard_ms=metrics.guard_seconds * 1e3,
            inference_ms=metrics.inference_seconds * 1e3,
            other_ms=(metrics.total_seconds - metrics.guard_seconds - metrics.inference_seconds) * 1e3,
        )
        if stream == MEASURE and index < PINNED_QUERIES:
            first_results.append(result)
        return True

    async def drive():
        warm = await closed_loop(
            op,
            1,
            min(1.0, seconds / 5),
            "warmup",
            prepare=partial(install, WARMUP),
            settle=settle,
            capacity=CAPACITY,
        )
        tracer.start()
        measured = await closed_loop(
            op,
            1,
            seconds,
            prepare=partial(install, MEASURE),
            settle=settle,
            min_ops=PINNED_QUERIES,
            traced=tracer.enabled,
            capacity=CAPACITY,
        )
        tracer.stop()
        return [warm, measured]

    phases = asyncio.run(drive())
    setups += repeat_setup(lambda: build(make_guardrail))[1]

    mismatches = []
    memo: dict = {}
    cols = queries.as_lists()
    for stream, index, flagged in zip(cols["stream"], cols["index"], cols["flagged"]):
        expected = flagged_by_interpreter(program, chunk(test, seed, stream, index), memo)
        if flagged != expected:
            mismatches.append(
                f"query on chunk {stream}/{index}: rows_flagged={flagged}, interpreter {expected}"
            )
    pins = pins or {}
    observed = digest(format_program(program))
    if pins.get("guardrail") != observed:
        mismatches.append(f"guardrail program digest {observed}, pinned {pins.get('guardrail')}")
    pinned = pins.get("results", {}).get(str(seed))
    observed = results_digest(first_results)
    if pinned is not None and pinned != observed:
        mismatches.append(f"first {PINNED_QUERIES} results digest {observed}, pinned {pinned}")

    measured = [i for i, stream in enumerate(cols["stream"]) if stream == MEASURE]
    facts = {
        "queries": len(measured),
        "results_digest": observed,
        "rows_flagged_mean": float(np.mean([cols["flagged"][i] for i in measured])),
    }
    for name in ("guard_ms", "inference_ms", "other_ms"):
        facts[f"{name}_p50"] = float(np.median([cols[name][i] for i in measured]))
    return Outcome(setups, phases, mismatches, facts)
