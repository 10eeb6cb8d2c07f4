"""Contract tests: the benchmark's pinned outputs are still produced.

``perfbench/synth_bench.py`` synthesizes four relabelled dataset twins
and checks each program, mapped back to the original labels, against the
digest pinned in ``perfbench/pins.json``.  That check runs only inside
the benchmark; this test runs it at seed 1 with the benchmark's own
config, and also pins the work each twin costs (CI tests run, DAGs
enumerated), so a change that moves a CI verdict or the MEC search fails
here and not only in the benchmark's oracle.  Likewise,
``perfbench/sql_bench.py`` pins its guardrail and the results of the
first guarded ``PREDICT`` queries of each seed, so a change to any
repair or prediction fails here too.  The tests only read
``perfbench/``.
"""

import json
from pathlib import Path

import pytest

from repro.dsl import format_program
from repro.synth import synthesize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WORK = {
    "Telco Customer Churn": (969, 8),
    "Phishing Websites": (772, 8),
    "Cylinder Bands": (964, 1),
    "Jungle Chess": (41, 10),
}
"""Per twin: ``(n_ci_tests, n_dags_enumerated)`` of one synthesis."""


@pytest.fixture(scope="module")
def synth_bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import synth_bench

        yield synth_bench


@pytest.fixture(scope="module")
def sql_bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import sql_bench

        yield sql_bench


def test_twins_synthesize_the_pinned_programs(synth_bench):
    pins = json.loads((PERFBENCH / "pins.json").read_text())["synth-suite"]
    assert [name for name, _ in synth_bench.TWINS] == list(WORK)
    for name, relation, back in synth_bench.twin_inputs(1):
        result = synthesize(relation, synth_bench.CONFIG)
        text = synth_bench.original_text(result.program, back)
        assert synth_bench.digest(text) == pins[name], name
        work = (result.pc_result.n_ci_tests, result.n_dags_enumerated)
        assert work == WORK[name], name


def test_sql_ingest_reproduces_its_pins(sql_bench):
    pins = json.loads((PERFBENCH / "pins.json").read_text())["sql-ingest"]
    program, test, executor, query = sql_bench.build()
    results = []
    for index in range(sql_bench.PINNED_QUERIES):
        executor.catalog["t"] = sql_bench.chunk(
            test, 0, sql_bench.MEASURE, index
        )
        results.append(executor.execute(query))
    assert sql_bench.results_digest(results) == pins["results"]["0"]
    assert sql_bench.digest(format_program(program)) == pins["guardrail"]
